import math

import numpy as np
import pytest

from wignermoments import oracle, states, wigner
from wignermoments.errors import InvalidArgumentError, SizeLimitError
from wignermoments.quadrature import GridSpec

PI = math.pi

# Frozen expected values. The first block is exact closed-form arithmetic:
# w3 for the phase-pi N-photon two-mode superposition, N = 1..5, as exact
# rationals times pi^-4. They were derived without the package, by expanding
# W^3 as a polynomial times exp(-3 (u1 + u2)) and integrating every Gaussian
# monomial exactly.
NOON_W3 = {
    1: 1 / 81 / PI**4,
    2: 1 / 729 / PI**4,
    3: -281 / 3**10 / PI**4,
    4: 3065 / 3**12 / PI**4,
    5: 12919 / 3**14 / PI**4,
}

# Single-mode Fock w3, exact closed forms rounded to the printed precision
# of the reference table (abs error of the rounding <= 5e-7).
FOCK_W3_ROUNDED = {
    0: 0.033774,
    1: 0.003753,
    2: 0.010424,
    3: 0.002723,
    4: 0.006548,
    5: 0.002222,
}


def test_vacuum_moments_closed_form():
    # w2 = 1/(2 pi), w3 = 1/(3 pi^2)
    assert oracle.radial_closed_form_moment(states.Fock(0), 2) == pytest.approx(
        1.0 / (2.0 * PI), rel=1e-15
    )
    assert oracle.radial_closed_form_moment(states.Fock(0), 3) == pytest.approx(
        1.0 / (3.0 * PI**2), rel=1e-15
    )


def test_fock_w2_is_purity_over_2pi():
    for n in range(6):
        assert oracle.radial_closed_form_moment(states.Fock(n), 2) == pytest.approx(
            1.0 / (2.0 * PI), rel=1e-14
        )


def test_fock_w3_closed_forms_match_reference_rounding():
    for n, expect in FOCK_W3_ROUNDED.items():
        got = oracle.radial_closed_form_moment(states.Fock(n), 3)
        assert got == pytest.approx(expect, abs=5e-7), f"n={n}"


def test_fock1_w3_exact_value():
    # 1/pi^2 * integral_0^inf e^{-3u} (2u-1)^3 du ... = 1/(27 pi^2)
    got = oracle.radial_closed_form_moment(states.Fock(1), 3)
    assert got == pytest.approx(1.0 / (27.0 * PI**2), rel=1e-15)


def test_noon_w2_is_purity_for_all_n():
    for n in range(1, 6):
        assert oracle.noon_closed_form_moment(n, 2) == pytest.approx(
            1.0 / (4.0 * PI**2), rel=1e-13
        )


def test_noon_w3_frozen_values():
    for n, expect in NOON_W3.items():
        got = oracle.noon_closed_form_moment(n, 3)
        assert got == pytest.approx(expect, rel=1e-12, abs=0), f"N={n}"


def test_noon1_w3_is_inverse_81_pi4():
    assert oracle.noon_closed_form_moment(1, 3) == pytest.approx(
        1.0 / (81.0 * PI**4), rel=1e-14
    )


def test_mixed01_closed_form_and_boundary():
    # at lam = 1 the state is vacuum; at lam = 0 it is the one-photon state
    assert oracle.radial_closed_form_moment(
        states.MixedFock01(1.0), 3
    ) == pytest.approx(1.0 / (3.0 * PI**2), rel=1e-14)
    assert oracle.radial_closed_form_moment(
        states.MixedFock01(0.0), 3
    ) == pytest.approx(1.0 / (27.0 * PI**2), rel=1e-14)


def test_mixed01_critical_weight_location():
    # Delta(lam) = w2^2 - w3 crosses zero just below lam = 0.31
    def delta(lam):
        spec = states.MixedFock01(lam)
        w2 = oracle.radial_closed_form_moment(spec, 2)
        w3 = oracle.radial_closed_form_moment(spec, 3)
        return w2 * w2 - w3

    assert delta(0.305) > 0.0
    assert delta(0.315) < 0.0
    lo, hi = 0.2, 0.45
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if delta(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    lam_star = 0.5 * (lo + hi)
    assert lam_star == pytest.approx(0.3092336695367241, abs=1e-10)


def test_radial_closed_form_rejects_unsupported():
    with pytest.raises(InvalidArgumentError):
        oracle.radial_closed_form_moment(states.Tmsv(0.5), 2)
    with pytest.raises(InvalidArgumentError):
        oracle.radial_closed_form_moment(states.Fock(1), 0)
    with pytest.raises(InvalidArgumentError):
        oracle.noon_closed_form_moment(0, 2)
    with pytest.raises(InvalidArgumentError):
        oracle.noon_closed_form_moment(1, 4)


# ---------------------------------------------------------------------------
# midpoint-rule route


def test_riemann_moment_vacuum():
    field = wigner.wigner_analytic(states.Fock(0))
    got = oracle.riemann_moment(field, 2)
    assert got == pytest.approx(1.0 / (2.0 * PI), rel=1e-6)


def test_riemann_moment_agrees_with_closed_form_fock2():
    field = wigner.wigner_analytic(states.Fock(2))
    got = oracle.riemann_moment(field, 3)
    expect = oracle.radial_closed_form_moment(states.Fock(2), 3)
    assert got == pytest.approx(expect, rel=1e-5)


def test_riemann_moment_two_mode():
    field = wigner.wigner_analytic(states.Noon(1, 0.0))
    got = oracle.riemann_moment(field, 3)
    assert got == pytest.approx(NOON_W3[1], rel=1e-3)


def test_riemann_moment_guards():
    field = wigner.wigner_analytic(states.Noon(1, 0.0))
    with pytest.raises(SizeLimitError):
        oracle.riemann_moment(field, 2, GridSpec(6.0, 512))
    with pytest.raises(InvalidArgumentError):
        oracle.riemann_moment(field, 0)


# ---------------------------------------------------------------------------
# trace powers


def test_trace_power_pure_and_mixed():
    pure = states.state_from_spec(states.Fock(2), cutoff=6)
    assert oracle.trace_power(pure, 2) == pytest.approx(1.0, abs=1e-14)
    assert oracle.trace_power(pure, 3) == pytest.approx(1.0, abs=1e-14)
    mixed = states.state_from_spec(states.MixedFock01(0.3), cutoff=6)
    assert oracle.trace_power(mixed, 2) == pytest.approx(
        0.3**2 + 0.7**2, abs=1e-14
    )
    assert oracle.trace_power(mixed, 3) == pytest.approx(
        0.3**3 + 0.7**3, abs=1e-14
    )


def test_trace_power_connects_to_w2():
    # w2 (2 pi)^k = Tr[rho^2]
    from wignermoments import moments

    spec = states.MixedFock01(0.3)
    field = wigner.wigner_analytic(spec)
    w2 = moments.moment(field, 2)
    state = states.state_from_spec(states.MixedFock01(0.3), cutoff=6)
    assert w2 * 2.0 * PI == pytest.approx(oracle.trace_power(state, 2), abs=1e-12)
