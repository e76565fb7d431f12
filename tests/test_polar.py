"""The polar Gauss-Laguerre rule for one- and two-mode Fock-basis fields."""

import dataclasses
import math
import warnings
from functools import cache

import numpy as np
import pytest

from wignermoments import cli, moments, oracle, quadrature, soundness, states, wigner
from wignermoments.errors import SizeLimitError, UnsupportedOperationError
from wignermoments.quadrature import (
    MAX_POLAR_NODES,
    MAX_TENSOR_NODES,
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


def _points(r, n_theta):
    """The radii r times the angles 2 pi j / n_theta as flat (x, p) points,
    radius index slowest."""
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    x = r[:, None] * np.cos(theta)[None, :]
    p = r[:, None] * np.sin(theta)[None, :]
    return np.stack([x.ravel(), p.ravel()], axis=1)


def _nodes(r, n_theta):
    return r.size * n_theta


def _logged(field, log, entry, polar_entry=lambda r, n_theta: "polar"):
    """The field with entry(z) appended to log at every evaluate call, and
    polar_entry(r, n_theta) at every call of its polar block."""

    def evaluate(z, _f=field.evaluate):
        log.append(entry(z))
        return _f(z)

    def polar(r, n_theta, _f=field.polar):
        log.append(polar_entry(r, n_theta))
        return _f(r, n_theta)

    return dataclasses.replace(
        field, evaluate=evaluate, polar=None if field.polar is None else polar
    )


def _recording(field):
    """The field and the list of its calls: the type of each evaluate
    argument, "polar" for each polar call."""
    seen = []
    return _logged(field, seen, type), seen


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
    assert seen == ["polar"]


def test_explicit_tensor_spec_is_honoured():
    field, seen = _recording(wigner.wigner_analytic(states.Fock(4)))
    quad = QuadratureSpec(order=moments.exactness_order(field, 3))
    got = moments.moment(field, 3, quad)
    assert set(seen) == {np.ndarray}
    assert got == pytest.approx(exact(states.Fock(4), 3), rel=1e-12)


def _flat_only(field, calls):
    """The field, failing unless evaluate gets a 2-D float ndarray of width 2k."""

    def evaluate(z, _f=field.evaluate):
        assert type(z) is np.ndarray and z.dtype == np.float64, (field.label, type(z))
        assert z.ndim == 2 and z.shape[1] == 2 * field.modes, (field.label, z.shape)
        calls.append(z.shape)
        return _f(z)

    return dataclasses.replace(field, evaluate=evaluate)


TENSOR = QuadratureSpec(order=12)


@pytest.mark.parametrize(
    "spec, cutoff, quad",
    [
        (states.Fock(3), None, None),  # one-mode polar
        (states.MixedFock01(0.3), 4, None),  # one-mode synthesis, polar
        (states.Noon(2), None, None),  # two-mode polar
        (states.Spssv(0.4, 1), None, None),  # core
        (states.GaussianCustom.from_arrays(np.zeros(2), np.eye(2)), None, None),  # dilated core
        (states.Fock(3), None, TENSOR),
        (states.Tmsv(0.3), None, TENSOR),
        (states.Noon(1), None, TENSOR),
    ],
    ids=str,
)
def test_evaluate_takes_only_flat_float_points(monkeypatch, spec, cutoff, quad):
    calls = []
    # field_for builds through moments' names, the images and their cores through wigner's
    for module, name in (
        (moments, "wigner_analytic"),
        (moments, "wigner_fock_synthesis"),
        (moments, "wigner_gaussian"),
        (wigner, "wigner_analytic"),
        (wigner, "dilate"),
    ):
        build = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _b=build, **kw: _flat_only(_b(*a, **kw), calls)
        )
    field, _ = moments.field_for(spec, cutoff)
    if quad is None:
        moments.analyze(spec, cutoff=cutoff)
    else:
        moments._moments_and_errors(field, quad, 3)  # and the doubled-order pass
    for f in (field, wigner.dilate(field, 0.7)):
        moments.moment(f, 3, quad)
    if quad is TENSOR:
        assert calls


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


def test_noon_default_route_matches_the_rational_oracle():
    # NOON runs as two-mode synthesis of its density matrix on the polar rule
    for N in range(1, 11):
        report = moments.analyze(states.Noon(N))
        assert report.quadrature.scheme == POLAR
        for m in (2, 3):
            assert _rel(report.moments[m], oracle.noon_closed_form_moment(N, m)) <= 2e-14, (N, m)


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


@pytest.mark.parametrize("n_theta", [1, 2, 3, 4, 5, 7, 16, 122])
def test_polar_evaluators_match_flat_points(n_theta):
    # n_theta below the cutoff aliases the high angular sectors onto the low
    # ones; 122 is the exact-order angle count of w_3 at cutoff 40
    rng = np.random.default_rng(n_theta)
    fields = [
        wigner.wigner_fock_synthesis(states.FockState(_random_rho(rng, 6))),
        wigner.wigner_fock_synthesis(states.FockState(_random_rho(rng, 40))),
        wigner.wigner_analytic(states.Fock(5)),
        wigner.wigner_analytic(states.MixedFock01(0.3)),
    ]
    c = 0.7
    fields.append(wigner.dilate(fields[0], c))
    r = np.array([0.0, 0.3, 1.1, 2.5])
    for field in fields:
        flat = field.evaluate(_points(r, n_theta)).reshape(r.size, n_theta)
        assert np.allclose(field.polar(r, n_theta), flat, rtol=0.0, atol=1e-15), field.label
    # the dilated block is c^2 times the base's at the radii c r, bit for bit
    assert np.array_equal(fields[-1].polar(r, n_theta), c**2 * fields[0].polar(c * r, n_theta))


@pytest.mark.parametrize("spec", [states.Fock(3), states.MixedFock01(0.3)], ids=str)
def test_diagonal_synthesis_block_is_the_same_on_every_angle(spec):
    # a diagonal rho has only the sector d = 0, which no angle phase touches
    field = wigner.wigner_fock_synthesis(states.state_from_spec(spec, 9))
    block = field.polar(np.array([0.0, 0.3, 1.1, 2.5]), 16)
    assert np.array_equal(block, np.broadcast_to(block[:, :1], block.shape))


def test_dilated_fock_scales_moments():
    base = wigner.wigner_analytic(states.Fock(3))
    for c in (0.5, np.float64(2.0)):
        field, seen = _recording(wigner.dilate(base, c))
        for m in (1, 2, 3):
            got = moments.moment(field, m)
            want = c ** (2 * (m - 1)) * exact(states.Fock(3), m)
            assert _rel(got, want) <= 1e-13
        assert set(seen) == {"polar"}


# ---------------------------------------------------------------------------
# reports, warnings and the size cap


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
    field = wigner.wigner_fock_synthesis(states.state_from_spec(states.Fock(2), cutoff=40))
    with pytest.raises(SizeLimitError):
        moments.moment(field, 3)


# ---------------------------------------------------------------------------
# command line


def test_cli_two_mode_reach_and_size_cap_exit_codes(capsys):
    assert cli.main(["analyze", "--state", "spssv", "--r", "0.3", "--cutoff", "9"]) == 0
    report = moments.read_report(capsys.readouterr().out)
    assert (report.quadrature.scheme, report.cutoff) == (POLAR, 9)
    assert cli.main(["analyze", "--state", "noon", "--N", "171"]) == 4
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# one field evaluation per rule order


def _one_mode_fields():
    """More than 100 one-mode polar fields: Fock 0-60, 0/1 mixtures (closed
    form and at cutoffs), random Fock-basis matrices at cutoffs 1-40,
    dilates and the dilated vacua of the Gaussian core."""
    rng = np.random.default_rng(15)
    out = [wigner.wigner_analytic(states.Fock(n)) for n in range(61)]
    for lam in (0.0, 0.25, 0.4, 0.8, 1.0):
        out.append(wigner.wigner_analytic(states.MixedFock01(lam)))
        out += [moments.field_for(states.MixedFock01(lam), c)[0] for c in (1, 7, 20)]
    out += [
        wigner.wigner_fock_synthesis(states.FockState(_random_rho(rng, c)))
        for c in range(1, 41, 2)
    ]
    out += [moments.field_for(states.Fock(n), c)[0] for n, c in ((0, 10), (3, 12), (9, 33))]
    out += [wigner.dilate(wigner.wigner_analytic(states.Fock(n)), c) for n in (1, 4) for c in (0.3, 2.5)]
    for modes in (1, 2):
        spec = soundness.random_gaussian_spec(rng, modes)
        cores, _ = wigner.SYMPLECTIC_IMAGES[states.GaussianCustom](spec)
        out.append(cores[0])
    return out


def _per_moment_reference(field, order):
    """w_1..w_3 and the doubled-order error, one rule per moment call."""
    quad, doubled = QuadratureSpec(POLAR, order), QuadratureSpec(POLAR, 2 * order)
    w = {m: moments.moment(field, m, quad) for m in (1, 2, 3)}
    errors = {m: abs(w[m] - moments.moment(field, m, doubled)) for m in (2, 3)}
    return w, errors


def test_stacked_rules_are_bit_identical_to_one_rule_per_moment():
    fields = _one_mode_fields()
    assert len(fields) >= 100
    for field in fields:
        quad = moments.default_quadrature(field, 3)
        assert quad.scheme == POLAR, field.label
        assert moments._moments_and_errors(field, quad, 3) == _per_moment_reference(
            field, quad.order
        ), field.label


@pytest.mark.parametrize(
    "spec, cutoff",
    [
        (states.Fock(0), None),
        (states.Fock(30), None),
        (states.MixedFock01(0.4), 12),
        (states.FockCustom.from_matrix(np.diag([0.2, 0.3, 0.5])), None),
    ],
    ids=str,
)
def test_analyze_reports_the_per_moment_rules_bit_for_bit(spec, cutoff):
    rep = moments.analyze(spec, cutoff=cutoff)
    field, _ = moments.field_for(spec, cutoff)
    w, errors = _per_moment_reference(field, rep.quadrature.order)
    assert rep.moments == w
    assert rep.est_error == max(errors.values())


def test_one_mode_analyze_evaluates_two_polar_grids():
    for field in _one_mode_fields()[::10]:
        recorded, seen = _recording(field)
        moments._moments_and_errors(recorded, moments.default_quadrature(field, 3), 3)
        assert seen == ["polar", "polar"], field.label


@pytest.mark.parametrize(
    "spec, calls",
    [
        (states.Tmsv(0.7), 2),
        (states.Spssv(0.7, 1), 4),
        (states.GaussianCustom.from_arrays(np.zeros(4), 0.8 * np.eye(4)), 2),
    ],
    ids=str,
)
def test_core_route_evaluates_two_polar_grids_per_distinct_factor(monkeypatch, spec, calls):
    seen = []
    build = wigner.wigner_analytic  # the images build their cores through it
    monkeypatch.setattr(wigner, "wigner_analytic", lambda s: _logged(build(s), seen, type))
    moments.analyze(spec)
    assert seen == ["polar"] * calls


def test_explicit_tensor_spec_keeps_one_pass_per_moment():
    field, seen = _recording(wigner.wigner_analytic(states.Fock(4)))
    quad = QuadratureSpec(order=moments.exactness_order(field, 3))
    moments._moments_and_errors(field, quad, 3)
    # 12 and 24 nodes per axis fit one block: one call per moment and order
    assert seen == [np.ndarray] * 5


def test_stack_splits_into_whole_rules_under_the_node_cap(monkeypatch):
    field = wigner.wigner_analytic(states.Fock(5))
    quad = moments.default_quadrature(field, 5)
    want = moments._moments_and_errors(field, quad, 5)
    # room for one rule of the doubled order, or four of the order, per call
    monkeypatch.setattr(quadrature, "MAX_POLAR_NODES", 2 * quad.order * 4 * quad.order)
    sizes = []
    assert moments._moments_and_errors(_logged(field, sizes, len, _nodes), quad, 5) == want
    rule = quad.order * 2 * quad.order
    assert sizes == [4 * rule, rule] + [4 * rule] * 4


def test_order_700_runs_and_order_708_is_refused_per_rule():
    # the stacked rules at order 700 take 3 * 980,000 nodes in one call; the
    # doubled order is 1400 * 2800 = 3,920,000 nodes per rule, one rule a call
    sizes = []
    field = _logged(wigner.wigner_analytic(states.Fock(1)), sizes, len, _nodes)
    w, errors = moments._moments_and_errors(field, QuadratureSpec(POLAR, 700), 3)
    assert sizes == [3 * 700 * 1400, 1400 * 2800, 1400 * 2800]
    for m in (1, 2, 3):
        assert _rel(w[m], exact(states.Fock(1), m)) <= 1e-12
    # 708 * 1416 nodes fit, but the doubled rule alone does not
    with pytest.raises(SizeLimitError, match="polar rule with 4010112 nodes exceeds cap 4000000"):
        moments._moments_and_errors(field, QuadratureSpec(POLAR, 708), 3)


def _count_table_builds(monkeypatch):
    built = []
    kernels = wigner.fock_kernel_values

    def counted(*args, **kwargs):
        built.append(1)
        return kernels(*args, **kwargs)

    monkeypatch.setattr(wigner, "fock_kernel_values", counted)
    return built


def _two_mode_field(rho):
    return wigner.wigner_fock_synthesis(states.FockState(rho, modes=2))


@pytest.mark.parametrize("block_nodes", [quadrature.BLOCK_NODES, 64])
@pytest.mark.parametrize(
    "field, tables",
    [
        (wigner.wigner_analytic(states.Noon(1)), 1),
        (wigner.wigner_analytic(states.Noon(2)), 1),
        # a dilated field builds as many tables as its base
        (wigner.dilate(wigner.wigner_analytic(states.Noon(2)), 0.5), 1),
        # 16 x 16: two modes at cutoff 3
        (_two_mode_field(_random_rho(np.random.default_rng(4), 15)), 1),
        (_two_mode_field(np.diag([0, 0, 0, 0.3, 0, 0, 0.7, 0, 0])), 2),
    ],
    # asymmetric: 0.3 |1,0><1,0| + 0.7 |2,0><2,0|, whose mode 1 reads the parts of
    # |1><1| and |2><2| and mode 2 only that of |0><0|
    ids=["noon-1", "noon-2", "dilated-noon-2", "random", "asymmetric"],
)
def test_each_pass_builds_one_table_per_distinct_mode(monkeypatch, block_nodes, field, tables):
    # 5 passes: w1..w3, then w2 and w3 at twice the order; a small block size
    # gives each pass many mode-1 row blocks, which slice the same tables
    quad = moments.default_quadrature(field, 3)
    want, _ = moments._moments_and_errors(field, quad, 3)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block_nodes)
    built = _count_table_builds(monkeypatch)
    w, _ = moments._moments_and_errors(field, quad, 3)
    assert len(built) == 5 * tables
    for m in (1, 2, 3):
        assert _rel(w[m], want[m]) <= 1e-13


@pytest.mark.parametrize(
    "spec, cutoff", [(states.Noon(10), None), (states.Spssv(0.5), 16)], ids=str
)
def test_analyze_builds_one_table_per_pass(monkeypatch, spec, cutoff):
    built = _count_table_builds(monkeypatch)
    moments.analyze(spec, cutoff=cutoff)
    assert len(built) == 5
