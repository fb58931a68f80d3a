"""Command-line front door.

Subcommands: resources, channel, teleport, qec, simulate. Every command
emits canonical JSON (stable key order, 17-significant-digit floats) on
stdout and optionally into --out DIR. Exit codes: 0 success, 2 schema or
file problems, 3 physics/protocol violations, 4 numerical state errors,
64 unknown subcommand.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import channels, pulses, qec, scenario as scenario_mod
from .device import MaterialParams, NoiseParams, inas_material, si_material
from .errors import (
    AdjacencyError,
    BlockadeError,
    ProtocolError,
    QdotsimError,
    RoutingError,
    SchemaError,
    StateError,
)
from .qstate import QuantumState, state_fidelity
from .report import dumps_report

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PHYSICS = 3
EXIT_NUMERIC = 4
EXIT_USAGE = 64

_PHYSICS_ERRORS = (BlockadeError, AdjacencyError, RoutingError, ProtocolError)


def _material_from_args(args) -> MaterialParams:
    if args.preset == "si":
        if args.t2 is None:
            raise SchemaError("--preset si requires --t2 (no default exists)")
        material = si_material(args.t2)
    else:
        material = inas_material()
        if args.t2 is not None:
            material = material.with_noise(
                NoiseParams(T1=2.0 * args.t2, T2=args.t2, enabled=False)
            )
    return material


def _emit(payload: dict, out: str | None) -> None:
    text = dumps_report(payload)
    sys.stdout.write(text)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(text)


def cmd_resources(args) -> int:
    material = _material_from_args(args)
    drive = pulses.drive_report(
        material.g_factor, args.rabi_period, material.gate_distance, args.load_ohms
    )
    exchange = pulses.exchange_estimate(material.J_on, material.U_charging)
    payload = {
        "preset": args.preset,
        "drive": drive.to_dict(),
        "exchange": exchange.to_dict(),
        "min_rabi_field_tesla": pulses.min_rabi_field(
            material.g_factor, material.noise.T2
        ),
        "zeeman": {
            "field_ratio_gaas_over_inas_bulk": pulses.equal_splitting_field_ratio(
                pulses.GAAS_G_FACTOR, pulses.INAS_BULK_G_FACTOR
            ),
            "note": "exact equal-splitting ratio; commonly rounded to '30x'",
        },
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_channel(args) -> int:
    material = _material_from_args(args)
    if args.kind == "teleport":
        payload = {
            "kind": "teleport",
            "report": channels.teleport_bandwidth(
                args.distance_m if args.distance_m else args.length_qubits
                * material.dot_pitch,
                material,
                args.purification_rounds,
                args.threshold,
            ),
        }
        _emit(payload, args.out)
        return EXIT_OK
    default_hop = material.t_swap if args.kind == "swap" else material.t_hop
    t_hop = args.t_hop if args.t_hop else default_hop
    lam = args.lam if args.lam else channels.channel_lambda(t_hop, material.noise.T2)
    spec = channels.ChannelSpec(
        kind=args.kind,
        length_qubits=args.length_qubits,
        lam=lam,
        t_hop=t_hop,
        fidelity_threshold=args.threshold,
    )
    metric = (
        channels.swap_channel_metrics
        if args.kind == "swap"
        else channels.tunnel_channel_metrics
    )
    payload = {"kind": args.kind, "report": metric(spec, material).to_dict()}
    _emit(payload, args.out)
    return EXIT_OK


def cmd_teleport(args) -> int:
    data = scenario_mod.load_scenario(args.scenario)
    report = scenario_mod.run_scenario(
        data, shots=args.shots, seed_override=args.seed, strict=args.strict or None
    )
    payload_state = QuantumState.from_vector(
        np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
    )
    branch_check = channels.teleport_branches(payload_state)
    payload = {
        "run": report,
        "branch_verification": {
            "payload": "(|0> + i|1>)/sqrt(2)",
            "branches": branch_check,
            "min_fidelity": min(b["fidelity"] for b in branch_check),
        },
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_qec(args) -> int:
    material = _material_from_args(args)
    rng = np.random.default_rng([args.seed, 0x5EC])
    amp = np.array([1.0, np.exp(1j * np.pi / 4)], dtype=complex) / np.sqrt(2.0)
    base = np.zeros(32, dtype=complex)
    base[0], base[16] = amp[0], amp[1]
    reference = QuantumState(base, 5)
    budget = qec.pulse_budget(material, args.pulses_per_cycle)
    syndrome_histogram: dict[str, int] = {}
    logical_errors = 0
    pulse_counts = []
    for cycle in range(args.cycles):
        lq = qec.LogicalQubit(0, (1, 2, 3, 4))
        state = qec.encode5(QuantumState(base.copy(), 5), lq)
        n_errors = int(rng.binomial(args.pulses_per_cycle, args.p))
        injected = [
            (("X", "Y", "Z")[int(rng.integers(3))], int(rng.integers(5)))
            for _ in range(n_errors)
        ]
        state, rep = qec.qec_cycle(state, lq, injected or None, rng)
        state = qec.decode5(state, lq)
        fidelity = state_fidelity(state, reference)
        if fidelity < 1.0 - 1e-6:
            logical_errors += 1
        key = "".join(str(b) for b in rep["syndrome"])
        syndrome_histogram[key] = syndrome_histogram.get(key, 0) + 1
        pulse_counts.append(rep["pulse_count"])
    payload = {
        "cycles": args.cycles,
        "per_pulse_error_probability": args.p,
        "logical_error_rate": logical_errors / args.cycles if args.cycles else 0.0,
        "syndrome_histogram": dict(sorted(syndrome_histogram.items())),
        "pulse_counts": {
            "compiled_min": min(pulse_counts) if pulse_counts else 0,
            "compiled_max": max(pulse_counts) if pulse_counts else 0,
            "conventional_cycle": args.pulses_per_cycle,
            "note": "compiled counts come from the fixed encoder circuit; the "
                    "500-pulse figure is the conventional budget",
        },
        "budget": budget.to_dict(),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    data = scenario_mod.load_scenario(args.scenario)
    report = scenario_mod.run_scenario(
        data,
        shots=args.shots,
        seed_override=args.seed,
        strict=True if args.strict else None,
    )
    sys.stdout.write(dumps_report({"scenario_digest": report["scenario_digest"],
                                   "final_clock_s": report["final_clock_s"],
                                   "measurement_counts": report["measurement_counts"]}))
    out_dir = args.out or data.get("output") or "out"
    scenario_mod.write_report(report, out_dir)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdotsim",
        description="Quantum-dot array computer simulator",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--preset", choices=("inas", "si"), default="inas")
        p.add_argument("--t2", type=float, default=None,
                       help="override T2 in seconds (required for --preset si)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; simulate/teleport default to the scenario's")
        p.add_argument("--out", default=None, help="directory for report.json")

    p = sub.add_parser("resources", help="Rabi drive and exchange figures")
    common(p)
    p.add_argument("--rabi-period", type=float, default=100e-9, dest="rabi_period")
    p.add_argument("--load-ohms", type=float, default=50.0, dest="load_ohms")

    p = sub.add_parser("channel", help="transport channel figures")
    common(p)
    p.add_argument("--kind", choices=("swap", "tunnel", "teleport"), default="swap")
    p.add_argument("--length-qubits", type=int, default=10, dest="length_qubits")
    p.add_argument("--distance-m", type=float, default=None, dest="distance_m")
    p.add_argument("--t-hop", type=float, default=None, dest="t_hop")
    p.add_argument("--lambda", type=float, default=None, dest="lam")
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--purification-rounds", type=int, default=0,
                   dest="purification_rounds")

    p = sub.add_parser("teleport", help="run the teleportation protocol")
    common(p)
    p.add_argument("--scenario", default="teleport.scenario")
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("qec", help="run five-qubit correction cycles")
    common(p)
    p.set_defaults(seed=0)
    p.add_argument("--cycles", type=int, default=100)
    p.add_argument("--p", type=float, default=0.0,
                   help="per-pulse Pauli error probability")
    p.add_argument("--pulses-per-cycle", type=int, default=500,
                   dest="pulses_per_cycle")

    p = sub.add_parser("simulate", help="run a scenario file")
    common(p)
    p.add_argument("--scenario", required=True)
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--strict", action="store_true")

    return parser


_HANDLERS = {
    "resources": cmd_resources,
    "channel": cmd_channel,
    "teleport": cmd_teleport,
    "qec": cmd_qec,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and argv[0] not in _HANDLERS and not argv[0].startswith("-"):
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"qdotsim: unknown subcommand {argv[0]!r}\n")
        return EXIT_USAGE
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except SchemaError as exc:
        sys.stderr.write(dumps_report({"error": "schema", "message": str(exc)}))
        return EXIT_SCHEMA
    except _PHYSICS_ERRORS as exc:
        sys.stderr.write(dumps_report({"error": "physics", "message": str(exc)}))
        return EXIT_PHYSICS
    except (StateError, QdotsimError) as exc:
        sys.stderr.write(dumps_report({"error": "state", "message": str(exc)}))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
