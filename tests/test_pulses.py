"""Drive and exchange calculators against frozen, independently derived values."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdotsim.constants import H_EV_S, HBAR_EV_S, MU_B_EV_T
from qdotsim.errors import StateError
from qdotsim.pulses import (
    drive_electrical,
    drive_report,
    direct_exchange,
    equal_splitting_field_ratio,
    exchange_estimate,
    indirect_exchange,
    min_rabi_field,
    rabi_field,
    swap_duration,
    wire_current,
)

# Frozen values computed from the formulas by hand before implementation:
#   B_ac = h/(10 mu_B 1e-7)          = 7.144773511657439e-05 T
#   I    = 2 pi r B/mu_0 (chained)   = 3.5723867558287196e-05 A
#   V    = I*50                      = 1.786193377914360e-03 V
#   P    = I*V/sqrt(2)               = 4.512029679522199e-08 W
#   Bmin = hbar/(10 mu_B 1e-4)       = 1.137126021818395e-08 T
#   t_swap(5 ueV)                    = 4.135667696604003e-10 s
#   t_i  = (J U^2 dE)^(1/4)          = 2.114742526881128e-04 eV
B_AC_100NS_G10 = 7.144773511657439e-05
I_AC_CHAINED = 3.5723867558287196e-05
V_AC_CHAINED = 1.786193377914360e-03
P_CHAINED = 4.512029679522199e-08
B_MIN_G10_T2 = 1.137126021818395e-08
T_SWAP_5UEV = 4.135667696604003e-10
T_I_BALANCED = 2.114742526881128e-04


# ---------------------------------------------------------------------------
# Zeeman splitting
# ---------------------------------------------------------------------------

def test_zeeman_equal_splitting_ratio():
    # ratio of fields giving identical splitting for g = 0.44 vs 15
    ratio = equal_splitting_field_ratio(0.44, 15.0)
    assert ratio == pytest.approx(34.0909090909, rel=1e-10)
    # so |g| B, and with it the splitting |g| mu_B B, is equal: 0.44 * ratio against 15 * 1
    assert 0.44 * ratio == pytest.approx(15.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Rabi drive chain
# ---------------------------------------------------------------------------

def test_rabi_field_100ns_g10():
    b = rabi_field(-10.0, 100e-9)
    assert b == pytest.approx(B_AC_100NS_G10, rel=1e-12)
    assert b == pytest.approx(71e-6, rel=0.01)


def test_rabi_field_inverse_proportional():
    assert rabi_field(-10.0, 200e-9) == pytest.approx(B_AC_100NS_G10 / 2, rel=1e-12)


def test_rabi_field_sign_independent():
    assert rabi_field(-10.0, 100e-9) == rabi_field(10.0, 100e-9)


def test_rabi_field_rejects_zero_g():
    with pytest.raises(StateError):
        rabi_field(0.0, 100e-9)


def test_rabi_field_rejects_an_underflowed_denominator():
    # |g| mu_B T rounds to 0 for a subnormal period: the field would be inf
    with pytest.raises(StateError, match="not finite"):
        rabi_field(-10.0, 5e-324)


def test_wire_current_values():
    assert wire_current(71e-6, 100e-9) == pytest.approx(35.5e-6, rel=1e-12)
    assert wire_current(0.0, 100e-9) == 0.0
    assert wire_current(71e-6, 200e-9) == pytest.approx(71e-6, rel=1e-12)


def test_wire_current_rejects_bad_distance():
    with pytest.raises(StateError):
        wire_current(1e-6, 0.0)


def test_drive_electrical_values():
    v, p = drive_electrical(36e-6, 50.0)
    assert v == pytest.approx(1.8e-3, rel=1e-12)
    assert p == pytest.approx(36e-6 * 1.8e-3 / math.sqrt(2), rel=1e-12)
    assert p == pytest.approx(45.8e-9, rel=0.01)
    assert drive_electrical(0.0, 50.0) == (0.0, 0.0)


def test_full_drive_chain_frozen():
    rep = drive_report(-10.0, 100e-9, 100e-9, 50.0)
    assert rep["b_ac_tesla"] == pytest.approx(B_AC_100NS_G10, rel=1e-12)
    assert rep["i_ac_ampere"] == pytest.approx(I_AC_CHAINED, rel=1e-12)
    assert rep["v_ac_volt"] == pytest.approx(V_AC_CHAINED, rel=1e-9)
    assert rep["power_watt"] == pytest.approx(P_CHAINED, rel=1e-9)


def test_drive_report_invariant():
    rep = drive_report(-10.0, 100e-9)
    assert rep["rabi_period_s"] * 10.0 * MU_B_EV_T * rep["b_ac_tesla"] == pytest.approx(
        H_EV_S, rel=1e-9
    )


def test_power_scales_with_inverse_g_squared():
    p_inas = drive_report(10.0, 100e-9)["power_watt"]
    p_gaas = drive_report(0.44, 100e-9)["power_watt"]
    assert p_gaas / p_inas == pytest.approx((10.0 / 0.44) ** 2, rel=1e-9)
    assert p_gaas / p_inas == pytest.approx(516.5, rel=1e-3)


# ---------------------------------------------------------------------------
# minimum drive field
# ---------------------------------------------------------------------------

def test_min_rabi_field_ratio_is_g_ratio():
    for t2 in (1e-6, 1e-4, 1.0):
        ratio = min_rabi_field(0.44, t2) / min_rabi_field(15.0, t2)
        assert ratio == pytest.approx(15.0 / 0.44, rel=1e-12)
        assert ratio == pytest.approx(34.09, rel=1e-3)


def test_min_rabi_field_vanishes_for_long_t2():
    assert min_rabi_field(10.0, 1e4) < 1e-15
    assert min_rabi_field(10.0, 1e8) < 1e-19
    assert min_rabi_field(10.0, 1e8) == pytest.approx(
        min_rabi_field(10.0, 1e-4) * 1e-12, rel=1e-12
    )


def test_min_rabi_field_direct_value():
    # direct evaluation of hbar/(|g| mu_B T2) at g = -10, T2 = 100 us
    assert min_rabi_field(-10.0, 1e-4) == pytest.approx(B_MIN_G10_T2, rel=1e-12)


# ---------------------------------------------------------------------------
# exchange timings
# ---------------------------------------------------------------------------

def test_swap_duration_on_state():
    t = swap_duration(5e-6)
    assert t == pytest.approx(T_SWAP_5UEV, rel=1e-12)
    assert t == pytest.approx(4.13e-10, rel=0.01)


def test_swap_duration_scaling():
    assert swap_duration(10e-6) == pytest.approx(T_SWAP_5UEV / 2, rel=1e-12)


def test_swap_duration_off_state_ratio():
    t_off = swap_duration(5e-9)
    assert t_off == pytest.approx(4.135667696604003e-07, rel=1e-12)
    assert t_off / swap_duration(5e-6) == pytest.approx(1000.0, rel=1e-12)


def test_swap_duration_rejects_nonpositive():
    with pytest.raises(StateError):
        swap_duration(0.0)


# ---------------------------------------------------------------------------
# direct and indirect exchange
# ---------------------------------------------------------------------------

def test_indirect_exchange_zero_amplitude():
    assert indirect_exchange(0.0, 2e-3, 1e-4) == 0.0


def test_indirect_exchange_inversion_round_trip():
    # solve t_i so the intermediary-dot coupling equals J = 5 ueV, then
    # feed it back through the formula
    J, U, dE = 5e-6, 2e-3, 1e-4
    t_i = (J * U * U * dE) ** 0.25
    assert t_i == pytest.approx(T_I_BALANCED, rel=1e-12)
    assert indirect_exchange(t_i, U, dE) == pytest.approx(J, rel=1e-9)


def test_indirect_exchange_quartic_scaling():
    base = indirect_exchange(1e-4, 2e-3, 1e-4)
    assert indirect_exchange(2e-4, 2e-3, 1e-4) == pytest.approx(16 * base, rel=1e-12)


def test_direct_exchange_matches_on_state():
    # t_G chosen so t_G^2/U = 5 ueV at U = 2 meV
    t_g = math.sqrt(5e-6 * 2e-3)
    assert direct_exchange(t_g, 2e-3) == pytest.approx(5e-6, rel=1e-12)


def test_exchange_estimate_consistency():
    est = exchange_estimate(5e-6, 2e-3, 1e-4)
    assert est["J_direct_eV"] == pytest.approx(5e-6, rel=1e-9)
    assert est["J_indirect_eV"] == pytest.approx(5e-6, rel=1e-9)
    assert est["t_swap_s"] == pytest.approx(math.pi * HBAR_EV_S / est["J_direct_eV"], rel=1e-12)


def test_indirect_exchange_rejects_zero_denominators():
    with pytest.raises(StateError):
        indirect_exchange(1e-4, 0.0, 1e-4)
    with pytest.raises(StateError):
        indirect_exchange(1e-4, 2e-3, 0.0)


# ---------------------------------------------------------------------------
# dimensional homogeneity (scaling properties)
# ---------------------------------------------------------------------------

@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_rabi_field_homogeneous_inverse(scale):
    base = rabi_field(5.0, 1e-7)
    assert rabi_field(5.0 * scale, 1e-7) == pytest.approx(base / scale, rel=1e-12)
    assert rabi_field(5.0, 1e-7 * scale) == pytest.approx(base / scale, rel=1e-12)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_wire_current_homogeneous(scale):
    base = wire_current(1e-5, 1e-7)
    assert wire_current(1e-5 * scale, 1e-7) == pytest.approx(scale * base, rel=1e-12)
    assert wire_current(1e-5, 1e-7 * scale) == pytest.approx(scale * base, rel=1e-12)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_swap_duration_homogeneous_inverse(scale):
    base = swap_duration(5e-6)
    assert swap_duration(5e-6 * scale) == pytest.approx(base / scale, rel=1e-12)


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_indirect_exchange_homogeneity(scale):
    base = indirect_exchange(1e-4, 2e-3, 1e-4)
    assert indirect_exchange(1e-4 * scale, 2e-3, 1e-4) == pytest.approx(
        scale**4 * base, rel=1e-12
    )
    assert indirect_exchange(1e-4, 2e-3 * scale, 1e-4) == pytest.approx(
        base / scale**2, rel=1e-12
    )
    assert indirect_exchange(1e-4, 2e-3, 1e-4 * scale) == pytest.approx(
        base / scale, rel=1e-12
    )
