"""The polar Gauss-Laguerre rule for one- and two-mode Fock-basis fields."""

import dataclasses
import math
import warnings
from functools import cache

import numpy as np
import pytest

from wignermoments import cli, moments, oracle, quadrature, soundness, states, wigner
from wignermoments.errors import (
    InvalidArgumentError,
    SizeLimitError,
    UnsupportedOperationError,
)
from wignermoments.quadrature import (
    MAX_POLAR_NODES,
    MAX_TENSOR_NODES,
    PolarGrid,
    QuadratureSpec,
    laggauss_cached,
)

POLAR = "gauss_laguerre_polar"


@cache
def exact(spec, m):
    return oracle.radial_closed_form_moment(spec, m)


def _rel(got, want):
    return abs(got - want) / abs(want)


def _random_rho(rng, cutoff, rank=3):
    g = rng.normal(size=(cutoff + 1, rank)) + 1j * rng.normal(size=(cutoff + 1, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _points(grid):
    """The polar grid as flat (x, p) points, radius index slowest."""
    x = grid.r[:, None] * np.cos(grid.theta)[None, :]
    p = grid.r[:, None] * np.sin(grid.theta)[None, :]
    return np.stack([x.ravel(), p.ravel()], axis=1)


def _recording(field):
    seen = []

    def evaluate(z, _f=field.evaluate):
        seen.append(type(z))
        return _f(z)

    return dataclasses.replace(field, evaluate=evaluate), seen


# ---------------------------------------------------------------------------
# the Gauss-Laguerre rule


def test_laguerre_rule_integrates_low_powers_at_every_order():
    # integral of e^{-s} s^k / k! is 1; the rule is exact for k < 2 * order
    worst = 0.0
    for order in range(1, 245):
        s, scaled = laggauss_cached(order)
        assert s.size == order and np.all(np.isfinite(scaled))
        for k in range(min(20, 2 * order)):
            terms = scaled * np.exp(-s + k * np.log(s) - math.lgamma(k + 1.0))
            worst = max(worst, abs(math.fsum(terms) - 1.0))
    assert worst <= 1e-13


def test_laguerre_rule_stays_finite_past_overflow():
    # near the largest nodes L_k(s)^2 passes 1e308 from about 180 nodes on
    for order in (300, 600):
        s, scaled = laggauss_cached(order)
        assert np.all(np.isfinite(s)) and np.all(np.diff(s) > 0.0)
        assert np.all(np.isfinite(scaled)) and np.all(scaled > 0.0)
        for k in range(20):
            terms = scaled * np.exp(-s + k * np.log(s) - math.lgamma(k + 1.0))
            assert abs(math.fsum(terms) - 1.0) <= 1e-13


def test_laguerre_rule_nodes_are_roots():
    s, _ = laggauss_cached(30)
    ref = np.polynomial.laguerre.lagroots([0.0] * 30 + [1.0])
    assert np.all(np.diff(s) > 0.0)
    assert np.allclose(s, ref, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# routing


@pytest.mark.parametrize(
    "spec, cutoff",
    [
        (states.Fock(3), None),
        (states.MixedFock01(0.3), None),
        (states.Fock(3), 5),
        (states.MixedFock01(0.3), 2),
        (states.Noon(1), 1),  # two-mode at a cutoff
        (states.Noon(3), None),
        (states.FockCustom.from_matrix(np.diag([0.25, 0.75])), None),
        (states.FockCustom.from_matrix(np.diag([0.1, 0.2, 0.3, 0.4]), modes=2), None),
    ],
    ids=str,
)
def test_default_route_follows_the_field(spec, cutoff):
    rep = moments.analyze(spec, cutoff=cutoff)
    field, _ = moments.field_for(spec, cutoff)
    assert rep.quadrature == QuadratureSpec(POLAR, moments.polar_order(field, 3))
    assert rep.exactness_warning is False


def test_noon_and_symplectic_cores_take_the_polar_rule():
    noon = wigner.wigner_analytic(states.Noon(2))
    for field in (noon, wigner.dilate(noon, 0.5)):
        want = QuadratureSpec(POLAR, moments.polar_order(field, 3))
        assert moments.default_quadrature(field, 3) == want
    assert moments.analyze(states.Noon(2)).quadrature.scheme == POLAR
    gauss = states.GaussianCustom.from_arrays(np.zeros(2), np.eye(2) / 2)
    for spec in (states.Tmsv(0.4), states.Spssv(0.4, 1), gauss):
        assert moments.analyze(spec).quadrature.scheme == POLAR


def test_polar_moment_evaluates_one_polar_grid():
    field, seen = _recording(wigner.wigner_analytic(states.Fock(4)))
    moments.moment(field, 3)
    assert seen == [PolarGrid]


def test_explicit_tensor_spec_is_honoured():
    field, seen = _recording(wigner.wigner_analytic(states.Fock(4)))
    quad = QuadratureSpec(order=moments.exactness_order(field, 3))
    got = moments.moment(field, 3, quad)
    assert set(seen) == {np.ndarray}
    assert got == pytest.approx(exact(states.Fock(4), 3), rel=1e-12)


def test_polar_scheme_refuses_other_fields():
    quad = QuadratureSpec(scheme=POLAR, order=8)
    tmsv = wigner.wigner_analytic(states.Tmsv(0.3))
    gauss = wigner.wigner_gaussian(
        states.state_from_spec(states.GaussianCustom.from_arrays([0.3, 0.0], np.eye(2) / 2))
    )
    for field in (tmsv, gauss):
        with pytest.raises(UnsupportedOperationError):
            moments.moment(field, 2, quad)


# ---------------------------------------------------------------------------
# exactness against the rational oracle and the tensor rule


def test_fock_synthesis_matches_oracle_for_every_n_and_cutoff():
    for c in range(41):
        for n in range(c + 1):
            spec = states.Fock(n)
            field, _ = moments.field_for(spec, c)
            for m in (1, 2, 3):
                order = moments.polar_order(field, 3)
                for quad_order in (order, 2 * order):
                    quad = QuadratureSpec(scheme=POLAR, order=quad_order)
                    got = moments.moment(field, m, quad)
                    assert _rel(got, exact(spec, m)) <= 1e-13, (n, c, m, quad_order)


@pytest.mark.parametrize("n", [0, 1, 7, 20, 40])
def test_fock_closed_form_matches_oracle(n):
    rep = moments.analyze(states.Fock(n))
    for m in (1, 2, 3):
        assert _rel(rep.moments[m], exact(states.Fock(n), m)) <= 1e-13
    assert rep.est_error <= 1e-13 * rep.moments[2]


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_mixed01_matches_oracle(lam):
    spec = states.MixedFock01(lam)
    for cutoff in (None, 1, 6):
        rep = moments.analyze(spec, cutoff=cutoff)
        assert rep.quadrature.scheme == POLAR
        for m in (1, 2, 3):
            assert _rel(rep.moments[m], exact(spec, m)) <= 1e-13, (lam, cutoff, m)


@pytest.mark.parametrize("cutoff", [1, 2, 3, 5, 8, 13, 21, 34, 40])
def test_random_density_matches_tensor_rule(cutoff):
    rng = np.random.default_rng(cutoff)
    field = wigner.wigner_fock_synthesis(states.FockState(_random_rho(rng, cutoff)))
    for m in (1, 2, 3):
        tensor = moments.moment(field, m, QuadratureSpec(order=moments.exactness_order(field, m)))
        assert _rel(moments.moment(field, m), tensor) <= 1e-13, m


def test_coherent_mixtures_match_tensor_rule():
    rng = np.random.default_rng(11)
    for _ in range(6):
        spec = soundness.random_coherent_mixture_spec(rng)
        field, _ = moments.field_for(spec, None)
        for m in (2, 3):
            tensor = moments.moment(
                field, m, QuadratureSpec(order=moments.exactness_order(field, m))
            )
            assert _rel(moments.moment(field, m), tensor) <= 1e-13


@pytest.mark.parametrize("c", [45, 52, 60])
def test_large_cutoffs_stay_finite_and_exact(c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 1, c // 2, c):
            rep = moments.analyze(states.Fock(n), cutoff=c)
            for m in (1, 2, 3):
                assert _rel(rep.moments[m], exact(states.Fock(n), m)) <= 1e-12, (n, c, m)
            assert math.isfinite(rep.est_error)


@pytest.mark.parametrize("spec, cutoff", [(states.Spssv(0.5), 16), (states.Noon(3), 12)], ids=str)
def test_two_mode_synthesis_runs_past_the_tensor_cap(spec, cutoff):
    # the tensor rule's doubled pass refused two-mode synthesis from cutoff 7 on
    rep = moments.analyze(spec, cutoff=cutoff)
    purity = oracle.trace_power(states.state_from_spec(spec, cutoff), 2)
    assert _rel(rep.moments[2], purity / (2.0 * math.pi) ** 2) <= 1e-13


# ---------------------------------------------------------------------------
# the polar grid and its evaluators


@pytest.mark.parametrize("n_theta", [1, 2, 3, 4, 5, 7, 16])
def test_polar_evaluators_match_flat_points(n_theta):
    # n_theta below the cutoff folds the high angular sectors onto the DFT
    rng = np.random.default_rng(n_theta)
    fields = [
        wigner.wigner_fock_synthesis(states.FockState(_random_rho(rng, 6))),
        wigner.wigner_analytic(states.Fock(5)),
        wigner.wigner_analytic(states.MixedFock01(0.3)),
    ]
    grid = PolarGrid.equispaced(np.array([0.0, 0.3, 1.1, 2.5]), n_theta)
    for field in fields:
        flat = field.evaluate(_points(grid)).reshape(grid.shape)
        assert np.allclose(field.evaluate(grid), flat, rtol=0.0, atol=1e-15), field.label


def test_polar_grid_layout_and_scaling():
    grid = PolarGrid.equispaced([1.0, 2.0], 4)
    assert grid.shape == (2, 4) and len(grid) == 8
    assert np.array_equal((np.float64(0.5) * grid).r, [0.5, 1.0])
    with pytest.raises(InvalidArgumentError):
        PolarGrid(np.ones(2), np.array([0.0, 1.0]))


def test_dilated_fock_scales_moments():
    base = wigner.wigner_analytic(states.Fock(3))
    for c in (0.5, np.float64(2.0)):
        field, seen = _recording(wigner.dilate(base, c))
        for m in (1, 2, 3):
            got = moments.moment(field, m)
            want = c ** (2 * (m - 1)) * exact(states.Fock(3), m)
            assert _rel(got, want) <= 1e-13
        assert set(seen) == {PolarGrid}


# ---------------------------------------------------------------------------
# reports, warnings and the size cap


def test_order_below_threshold_warns():
    field = wigner.wigner_analytic(states.Fock(4))
    threshold = moments.polar_order(field, 3)
    low = moments.analyze(states.Fock(4), quad=QuadratureSpec(scheme=POLAR, order=threshold - 1))
    assert low.exactness_warning is True
    ok = moments.analyze(states.Fock(4), quad=QuadratureSpec(scheme=POLAR, order=threshold))
    assert ok.exactness_warning is False


def test_polar_report_round_trips():
    rep = moments.analyze(states.Fock(2), cutoff=4)
    text = rep.to_json()
    back = moments.read_report(text)
    assert back.quadrature.scheme == POLAR
    assert back.quadrature.order == rep.quadrature.order
    assert back.to_json() == text


def test_size_cap_refuses_before_building_the_rule():
    order = math.isqrt(MAX_POLAR_NODES // 2) + 1
    field, seen = _recording(wigner.wigner_analytic(states.Fock(1)))
    before = laggauss_cached.cache_info()
    with pytest.raises(SizeLimitError):
        moments.moment(field, 2, QuadratureSpec(scheme=POLAR, order=order))
    assert laggauss_cached.cache_info() == before
    assert seen == []


def test_two_mode_size_cap_refuses_before_building_the_rule():
    # (order * 2 order)^2 nodes: the smallest order past MAX_TENSOR_NODES
    order = math.isqrt(math.isqrt(MAX_TENSOR_NODES) // 2) + 1
    field, seen = _recording(wigner.wigner_analytic(states.Noon(1)))
    before = laggauss_cached.cache_info()
    with pytest.raises(SizeLimitError):
        moments.moment(field, 2, QuadratureSpec(scheme=POLAR, order=order))
    assert laggauss_cached.cache_info() == before
    assert seen == []


def test_sector_cap_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(wigner, "MAX_SECTOR_BYTES", 1000)
    field = wigner.wigner_fock_synthesis(states.fock_state(2, cutoff=40))
    with pytest.raises(SizeLimitError):
        moments.moment(field, 3)


# ---------------------------------------------------------------------------
# command line


def test_cli_scheme_names_follow_quadrature():
    assert cli.SCHEME_NAMES == quadrature.SCHEMES


def test_cli_polar_scheme(capsys):
    argv = ["analyze", "--state", "fock", "--n", "2", "--scheme", POLAR, "--order", "4"]
    assert cli.main(argv) == 0
    report = moments.read_report(capsys.readouterr().out)
    assert (report.quadrature.scheme, report.quadrature.order) == (POLAR, 4)
    assert report.verdict == moments.CERTIFIED
    assert cli.main(["analyze", "--state", "tmsv", "--r", "0.3", "--scheme", POLAR]) == 2
    assert "gauss_laguerre_polar supports" in capsys.readouterr().err


def test_cli_polar_size_cap_exit_code(capsys):
    argv = ["analyze", "--state", "fock", "--n", "1", "--scheme", POLAR, "--order", "5000"]
    assert cli.main(argv) == 4
    assert capsys.readouterr().out == ""


def test_cli_two_mode_reach_and_size_cap_exit_codes(capsys):
    assert cli.main(["analyze", "--state", "spssv", "--r", "0.3", "--cutoff", "9"]) == 0
    report = moments.read_report(capsys.readouterr().out)
    assert (report.quadrature.scheme, report.cutoff) == (POLAR, 9)
    assert cli.main(["analyze", "--state", "noon", "--N", "171"]) == 4
    assert capsys.readouterr().out == ""
