"""Squeezed pairs and Gaussians take the moments of their unsqueezed core."""

import math

import numpy as np
import pytest

from wignermoments import moments, oracle, soundness, states, wigner
from wignermoments.errors import DegenerateCovarianceError, InvalidArgumentError
from wignermoments.quadrature import QuadratureSpec

POLAR = "gauss_laguerre_polar"
SQUEEZINGS = [float(r) for r in np.geomspace(0.01, 20.0, 13)]


def _rel(got, want):
    return abs(got - want) / abs(want)


def _core_exact(factors, m):
    return math.prod(oracle.radial_closed_form_moment(f, m) for f in factors)


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("r", SQUEEZINGS)
def test_spssv_has_the_moments_of_one_photon_times_vacuum(r, parity):
    report = moments.analyze(states.Spssv(r, parity))
    for m in (1, 2, 3):
        want = _core_exact((states.Fock(1), states.Fock(0)), m)
        assert _rel(report.moments[m], want) <= 1e-14, m
    assert report.verdict == moments.CERTIFIED


@pytest.mark.parametrize("r", SQUEEZINGS)
def test_tmsv_has_the_moments_of_two_vacua(r):
    report = moments.analyze(states.Tmsv(r))
    for m in (1, 2, 3):
        want = _core_exact((states.Fock(0), states.Fock(0)), m)
        assert _rel(report.moments[m], want) <= 1e-14, m
    assert report.verdict == moments.INCONCLUSIVE


def test_gaussians_match_the_closed_form_and_never_certify():
    specs = soundness.positive_state_specs(20250815, gaussians_1=40, gaussians_2=20, mixtures=0)
    for label, spec in specs:
        report = moments.analyze(spec)
        assert report.quadrature.scheme == POLAR, label
        assert report.verdict == moments.INCONCLUSIVE, label
        state = states.state_from_spec(spec)
        for m in (1, 2, 3):
            want = moments.moment_gaussian_closed_form(state, m)
            assert _rel(report.moments[m], want) <= 1e-13, (label, m)


def test_core_report_keeps_label_modes_and_names_the_largest_factor_rule():
    gauss = states.GaussianCustom.from_arrays(np.zeros(6), np.eye(6))
    cases = [
        (states.Tmsv(0.4), "tmsv(r=0.4)", 2, 1),
        (states.Spssv(0.4, 0), "spssv(r=0.4,parity=0)", 2, 2),
        (gauss, "gaussian(k=3)", 3, 1),
    ]
    for spec, label, k, order in cases:
        report = moments.analyze(spec)
        assert (report.state, report.modes, report.cutoff) == (label, k, None)
        assert (report.quadrature.scheme, report.quadrature.order) == (POLAR, order)
        assert moments.read_report(report.to_json()) == report


def test_core_route_never_builds_the_squeezed_field(monkeypatch):
    def refuse(spec, cutoff):
        raise AssertionError(f"field_for({spec!r}) on the core route")

    monkeypatch.setattr(moments, "field_for", refuse)
    for spec in (
        states.Tmsv(30.0),
        states.Spssv(30.0, 1),
        states.GaussianCustom.from_arrays([1.0, -2.0], [[5.0, 4.9], [4.9, 5.0]]),
    ):
        report = moments.analyze(spec)
        assert report.moments[1] == pytest.approx(1.0, rel=1e-15)


def test_product_error_bounds_every_perturbation():
    assert moments._product_error([(2.0, 0.1), (3.0, 0.2)]) == pytest.approx(0.74)
    assert moments._product_error([(0.5, 0.0)] * 3) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(200):
        w = rng.normal(size=3)
        e = rng.uniform(0.0, 0.1, size=3)
        exact = w + e * rng.uniform(-1.0, 1.0, size=3)
        bound = moments._product_error(list(zip(w.tolist(), e.tolist())))
        assert abs(np.prod(w) - np.prod(exact)) <= bound * (1.0 + 1e-12)


def test_core_est_error_is_the_product_bound_of_the_factor_estimates():
    parts = []
    for n in (1, 0):
        field = wigner.wigner_analytic(states.Fock(n))
        parts.append(moments._moments_and_errors(field, moments.default_quadrature(field, 3), 3))
    report = moments.analyze(states.Spssv(1.3, 1))
    want = max(moments._product_error([(w[m], e[m]) for w, e in parts]) for m in (2, 3))
    assert report.est_error == want
    for m in (1, 2, 3):
        assert report.moments[m] == parts[0][0][m] * parts[1][0][m]


@pytest.mark.parametrize("r", [0.05, 0.3, 0.7, 1.0])
def test_explicit_rule_still_integrates_the_squeezed_field(r):
    gauss = soundness.random_gaussian_spec(np.random.default_rng(int(r * 100)), 2)
    for spec in (states.Tmsv(r), states.Spssv(r, 0), states.Spssv(r, 1), gauss):
        core = moments.analyze(spec)
        field, _ = moments.field_for(spec, None)
        for m in (1, 2, 3):
            squeezed = moments.moment(field, m, QuadratureSpec(order=16))
            assert _rel(squeezed, core.moments[m]) <= 1e-12, (spec, m)


def test_tensor_rule_on_an_extreme_squeezed_field_is_degenerate():
    # double precision cannot factor the envelope of the squeezed field at
    # r = 9.5; analyze takes the core and never meets it
    with pytest.raises(DegenerateCovarianceError):
        moments.moment(wigner.wigner_analytic(states.Tmsv(9.5)), 2)


def test_cutoff_and_invalid_gaussians_keep_their_routes():
    report = moments.analyze(states.Tmsv(0.05), cutoff=3)
    assert report.cutoff == 3
    # the two-mode synthesis field's own rule, not the core's order-1 factors
    field, _ = moments.field_for(states.Tmsv(0.05), 3)
    assert report.quadrature == QuadratureSpec(POLAR, moments.polar_order(field, 3))
    gauss = states.GaussianCustom.from_arrays(np.zeros(2), np.eye(2) / 2)
    with pytest.raises(InvalidArgumentError):
        moments.analyze(gauss, cutoff=3)
    below_vacuum = states.GaussianCustom.from_arrays(np.zeros(2), np.eye(2) / 4)
    with pytest.raises(DegenerateCovarianceError):
        moments.analyze(below_vacuum)
