"""Simulator for a single-spin quantum-dot array computer.

Modules:
    qstate    exact vector/density-matrix register simulation
    noise     T1/T2 idle channels: exact on density matrices, seeded jumps on vectors
    pulses    closed-form drive and exchange calculators
    device    the 2D dot array with clocked, noise-aware events
    channels  swap/tunnel/teleport transport and purification
    qec       the five-qubit perfect code cycle and pulse budget
    scenario  declarative scenario files and deterministic reports
    cli       the command-line front door
"""
from .constants import H_EV_S, HBAR_EV_S, MU_0, MU_B_EV_T
from .device import DotArray, MaterialParams, inas_material, si_material
from .errors import (
    AdjacencyError,
    BlockadeError,
    ProtocolError,
    QdotsimError,
    RoutingError,
    SchemaError,
    StateError,
)
from .noise import NoiseParams
from .qstate import Gate, QuantumState

__version__ = "0.1.0"

__all__ = [
    "AdjacencyError",
    "BlockadeError",
    "DotArray",
    "Gate",
    "H_EV_S",
    "HBAR_EV_S",
    "MaterialParams",
    "MU_0",
    "MU_B_EV_T",
    "NoiseParams",
    "ProtocolError",
    "QdotsimError",
    "QuantumState",
    "RoutingError",
    "SchemaError",
    "StateError",
    "inas_material",
    "si_material",
    "__version__",
]
