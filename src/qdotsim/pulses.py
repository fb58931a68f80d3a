"""Closed-form drive and exchange calculators.

Every function is a pure, stateless formula with explicit units:
energies in eV, fields in tesla, currents in amperes, times in seconds.
Conventions that the numbers pin down:

  * Rabi drive field   B_ac = h / (|g| mu_B T_Rabi)   (no factor 2).
  * Wire field         B = mu_0 I / (2 pi r)          (infinite straight wire).
  * Drive power        P = I_peak V_peak / sqrt(2)    (one RMS factor).
  * Swap duration      t_swap = pi hbar / J.
"""
from __future__ import annotations

import math

from .constants import H_EV_S, HBAR_EV_S, MU_0, MU_B_EV_T
from .errors import StateError

GAAS_G_FACTOR = 0.44
INAS_BULK_G_FACTOR = 15.0


def equal_splitting_field_ratio(g_small: float, g_large: float) -> float:
    """Field ratio B(g_small)/B(g_large) that equalizes the Zeeman splitting."""
    if g_small == 0 or g_large == 0:
        raise StateError("g factors must be nonzero")
    return abs(g_large) / abs(g_small)


def rabi_field(g: float, rabi_period: float) -> float:
    """AC drive amplitude giving the requested Rabi period: h/(|g| mu_B T)."""
    if g == 0:
        raise StateError("zero g factor")
    if rabi_period <= 0:
        raise StateError(f"rabi_period must be positive, got {rabi_period}")
    denominator = abs(g) * MU_B_EV_T * rabi_period
    if denominator == 0:  # a subnormal period underflows it: the field is inf
        raise StateError(f"Rabi field is not finite for rabi_period = {rabi_period}")
    return H_EV_S / denominator


def wire_current(B: float, r: float) -> float:
    """Current through a straight wire at distance r producing field B."""
    if r <= 0:
        raise StateError(f"wire distance must be positive, got {r}")
    if B < 0:
        raise StateError(f"negative field B = {B}")
    return 2.0 * math.pi * r * B / MU_0


def drive_electrical(I: float, R: float) -> tuple[float, float]:
    """(V, P) across a resistive load: V = I*R, P = I*V/sqrt(2)."""
    if R <= 0:
        raise StateError(f"load must be positive, got {R}")
    if I < 0:
        raise StateError(f"negative current I = {I}")
    V = I * R
    return V, I * V / math.sqrt(2.0)


def min_rabi_field(g: float, T2: float) -> float:
    """Smallest useful drive: one Rabi flop inside T2, hbar/(|g| mu_B T2)."""
    if g == 0:
        raise StateError("zero g factor")
    if T2 <= 0:
        raise StateError(f"T2 must be positive, got {T2}")
    denominator = abs(g) * MU_B_EV_T * T2
    if denominator == 0:  # a subnormal T2 underflows it: the field is inf
        raise StateError(f"minimum Rabi field is not finite for T2 = {T2}")
    return HBAR_EV_S / denominator


def swap_duration(J: float) -> float:
    """Exchange window that implements SWAP: pi hbar / J."""
    if J <= 0:
        raise StateError(f"J must be positive, got {J}")
    return math.pi * HBAR_EV_S / J


def direct_exchange(t_G: float, U: float) -> float:
    """Tunnel-coupled exchange, t_G^2 / U."""
    if U <= 0:
        raise StateError(f"U must be positive, got {U}")
    if t_G < 0:
        raise StateError(f"negative tunneling amplitude t_G = {t_G}")
    return t_G * t_G / U

def indirect_exchange(t_i: float, U: float, dE_in: float) -> float:
    """Exchange mediated by an intermediary dot, t_i^4 / (U^2 dE_in)."""
    if U <= 0 or dE_in <= 0:
        raise StateError("U and dE_in must be positive")
    if t_i < 0:
        raise StateError(f"negative tunneling amplitude t_i = {t_i}")
    return t_i**4 / (U * U * dE_in)


def _positive(report: dict) -> dict:
    for key, value in report.items():
        if not 0 < value < math.inf:
            raise StateError(f"{key} must be positive and finite, got {value}")
    return report


def drive_report(
    g: float,
    rabi_period: float = 100e-9,
    wire_distance: float = 100e-9,
    load_ohms: float = 50.0,
) -> dict:
    """Chain field -> current -> voltage -> power for one drive setting."""
    b = rabi_field(g, rabi_period)
    i = wire_current(b, wire_distance)
    v, p = drive_electrical(i, load_ohms)
    return _positive({"b_ac_tesla": b, "i_ac_ampere": i, "v_ac_volt": v,
                      "power_watt": p, "rabi_period_s": rabi_period})


def exchange_estimate(J_on: float, U: float, dE_in: float = 0.1e-3) -> dict:
    """Exchange figures for tunneling amplitudes tuned so that the direct and
    intermediary-dot couplings both equal J_on."""
    t_g = math.sqrt(J_on * U)
    t_i = (J_on * U * U * dE_in) ** 0.25
    return _positive({"J_direct_eV": direct_exchange(t_g, U),
                      "J_indirect_eV": indirect_exchange(t_i, U, dE_in),
                      "t_swap_s": swap_duration(J_on)})
