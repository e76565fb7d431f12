"""The argument checks of `errors` and the public entry points that use them."""

import math

import numpy as np
import pytest

from wignermoments import moments, multicopy, oracle, states, wigner
from wignermoments.errors import (
    CutoffTooSmallError,
    InvalidArgumentError,
    check_int,
    check_positive,
    check_real,
)
from wignermoments.quadrature import GridSpec, QuadratureSpec, uniform_grid_integral


def test_check_int():
    for value in (0, 3, np.int64(3), np.uint8(3), np.int32(-1) + 1):
        check_int("x", value, 0)
    for value in (True, False, np.bool_(True), 2.0, 2.5, np.float64(2.0), "2", None, 1 + 0j):
        with pytest.raises(InvalidArgumentError, match="x must be an int, got"):
            check_int("x", value)
    with pytest.raises(InvalidArgumentError, match=r"^x must be an int >= 1, got 0$"):
        check_int("x", 0, 1)
    with pytest.raises(InvalidArgumentError, match=r"^x must be an int in \[0, 1\], got 2$"):
        check_int("x", 2, 0, 1)


def test_check_positive():
    for value in (1e-300, 0.5, 3, np.float32(0.5), np.float64(1e300), np.int64(2)):
        check_positive("x", value)
    for value in (0.0, -1.0, math.inf, math.nan, True, np.bool_(True), "1", None, 1j):
        with pytest.raises(InvalidArgumentError, match="x must be a finite number > 0, got"):
            check_positive("x", value)


def test_check_real():
    for value in (0, 1, 0.5, np.float32(0.5), np.float64(1.0), np.int64(0)):
        check_real("x", value, 0.0, 1.0, "in [0, 1]")
    for value in (-0.5, 1.5, math.inf, math.nan, True, np.bool_(False), "0.5", None, 0.5j):
        with pytest.raises(InvalidArgumentError, match=r"^x must be in \[0, 1\], got"):
            check_real("x", value, 0.0, 1.0, "in [0, 1]")
    for value in (0.0, 1.0):  # each open end is left out
        with pytest.raises(InvalidArgumentError, match=r"^x must be in \(0, 1\), got"):
            check_real("x", value, 0.0, 1.0, "in (0, 1)", low_open=True, high_open=True)
    check_real("x", 0.0, 0.0, 1.0, "in [0, 1)", high_open=True)


# Each entry takes an int argument: (call with that argument, a valid np.int64 value).
# A bool used to pass each check, and a float either passed or escaped as a bare
# numpy TypeError.
INT_ARGUMENTS = {
    "Fock n": (states.Fock, 2),
    "Noon N": (states.Noon, 1),
    "Spssv parity": (lambda v: moments.analyze(states.Spssv(0.5, v)), 1),
    "QuadratureSpec order": (lambda v: QuadratureSpec(order=v), 4),
    "analyze cutoff": (lambda v: moments.analyze(states.Fock(1), cutoff=v), 2),
    "analyze max_m": (lambda v: moments.analyze(states.Fock(1), max_m=v), 4),
    "moment order": (lambda v: moments.moment(wigner.wigner_analytic(states.Fock(1)), v), 2),
    "trace_power power": (
        lambda v: oracle.trace_power(states.state_from_spec(states.Fock(1)), v),
        2,
    ),
    "noon_closed_form_moment N": (lambda v: oracle.noon_closed_form_moment(v, 2), 1),
    "GridSpec points_per_axis": (lambda v: GridSpec(5.0, v), 16),
    "FockState modes": (lambda v: states.FockState(np.eye(2) / 2, v), 1),
    "state_from_spec cutoff": (lambda v: states.state_from_spec(states.Fock(2), v), 3),
    "coherent_state_matrix cutoff": (lambda v: states.coherent_state_matrix(0.3, v), 4),
    "swap_operator cutoff": (multicopy.swap_operator, 2),
    "multicopy_observable cutoff": (lambda v: multicopy.multicopy_observable(2, v), 2),
    "multicopy_observable m": (lambda v: multicopy.multicopy_observable(v, 2), 2),
    "displaced_parity cutoff": (lambda v: multicopy.displaced_parity(0.1, v), 3),
}


@pytest.mark.parametrize("bad", [True, 2.5, 3.0], ids=["bool", "2.5", "3.0"])
@pytest.mark.parametrize("name", list(INT_ARGUMENTS))
def test_int_arguments_refuse_bools_and_floats(name, bad):
    call, good = INT_ARGUMENTS[name]
    with pytest.raises(InvalidArgumentError, match="must be an int"):
        call(bad)
    call(np.int64(good))


FIELD = wigner.wigner_analytic(states.Fock(0))

# Each entry takes a positive float: (call with that argument, a valid value).
POSITIVE_ARGUMENTS = {
    "Tmsv r": (states.Tmsv, 0.5),
    "Spssv r": (states.Spssv, 0.5),
    "dilate c": (lambda v: wigner.dilate(FIELD, v), 0.5),
    "GridSpec half_width": (lambda v: GridSpec(v, 16), 5.0),
    "uniform_grid_integral half_width": (
        lambda v: uniform_grid_integral(lambda z: np.ones(z.shape[1]), 1, v, 4),
        1.0,
    ),
}


@pytest.mark.parametrize("bad", [True, 0.0, -1.0, math.inf, math.nan, "0.5"])
@pytest.mark.parametrize("name", list(POSITIVE_ARGUMENTS))
def test_positive_arguments_refuse_bools_and_non_finite_values(name, bad):
    call, good = POSITIVE_ARGUMENTS[name]
    with pytest.raises(InvalidArgumentError, match="must be a finite number > 0"):
        call(bad)
    call(np.float64(good))


# Each entry takes a real number in a bounded range: (call with that argument,
# a valid value at the top of the range). A string used to escape as a bare
# TypeError and a bool to pass.
BOUNDED_ARGUMENTS = {
    "MixedFock01 lam": (states.MixedFock01, 1),
    "Noon phi": (lambda v: states.Noon(1, v), math.nextafter(2.0 * math.pi, 0.0)),
    "sweep mixed01": (lambda v: moments.sweep("mixed01", [v]), 1),
}


# np.float32(2 pi) lies just above 2 pi
@pytest.mark.parametrize(
    "bad", [True, -0.5, 2.0 * math.pi, np.float32(2.0 * math.pi), math.inf, math.nan, "0.3"]
)
@pytest.mark.parametrize("name", list(BOUNDED_ARGUMENTS))
def test_bounded_arguments_refuse_bools_strings_and_values_out_of_range(name, bad):
    call, top = BOUNDED_ARGUMENTS[name]
    with pytest.raises(InvalidArgumentError, match=r" must be in \["):
        call(bad)
    for good in (0, np.float64(0.3), top):
        call(good)


def test_sweep_refuses_a_bool_for_an_int_field():
    # it used to report fock(n=1) under the value True; an integral float
    # still fills the field as its int
    with pytest.raises(InvalidArgumentError, match="fock photon number must be an int"):
        moments.sweep("fock", [True])
    assert moments.sweep("fock", [np.float64(1.0)])[0][1].state == "fock(n=1)"


def test_grid_span_must_be_finite():
    # 2 * 1e308 overflows: the midpoint cells used to sit at inf and nan
    for call in (lambda L: GridSpec(L, 16), lambda L: uniform_grid_integral(np.sum, 1, L, 4)):
        with pytest.raises(InvalidArgumentError, match="grid span 2 \\* half_width"):
            call(1e308)
    GridSpec(8e307, 16)


CATALOG_SPECS = {
    "fock": states.Fock(2),
    "noon": states.Noon(2),
    "tmsv": states.Tmsv(0.1),
    "spssv": states.Spssv(0.1),
    "mixed01": states.MixedFock01(0.3),
}


def test_catalog_builders_share_the_cutoff_rule():
    # state_from_spec alone applies the default and the minimum cutoff
    assert set(CATALOG_SPECS) == set(states.FAMILIES)
    for name, spec in CATALOG_SPECS.items():
        needed = states.FAMILIES[name].min_cutoff(spec)
        assert states.state_from_spec(spec).cutoff == needed
        assert states.state_from_spec(spec, needed + 1).cutoff == needed + 1
        with pytest.raises(CutoffTooSmallError, match=f"needs cutoff >= {needed}, got"):
            states.state_from_spec(spec, needed - 1)
