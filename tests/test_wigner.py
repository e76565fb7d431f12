import math
from fractions import Fraction

import numpy as np
import pytest

from kernel_reference import kernel_reference
from wignermoments import soundness, states, wigner
from wignermoments.errors import (
    DegenerateCovarianceError,
    InvalidArgumentError,
    UnsupportedOperationError,
)
from wignermoments.quadrature import GridSpec

PI = math.pi


def probe(rng, modes, n=150, span=2.5):
    return rng.uniform(-span, span, size=(n, 2 * modes))


# ---------------------------------------------------------------------------
# analytic closed forms at pinned points


def test_vacuum_field_is_normalized_gaussian():
    field = wigner.wigner_analytic(states.Fock(0))
    assert field([0.0, 0.0]) == pytest.approx(1.0 / PI, rel=1e-14)
    assert field([1.0, -0.5]) == pytest.approx(math.exp(-1.25) / PI, rel=1e-13)


def test_fock_fields_at_origin_alternate_sign():
    # W_n(0, 0) = (-1)^n / pi
    for n in range(6):
        field = wigner.wigner_analytic(states.Fock(n))
        assert field([0.0, 0.0]) == pytest.approx((-1.0) ** n / PI, rel=1e-12)


def test_fock1_closed_form():
    field = wigner.wigner_analytic(states.Fock(1))
    for x, p in [(0.3, -0.7), (1.2, 0.4), (0.0, 2.0)]:
        s = x * x + p * p
        expect = (2.0 * s - 1.0) * math.exp(-s) / PI
        assert field([x, p]) == pytest.approx(expect, rel=1e-13)


def test_noon_and_squeezed_pair_origin_values():
    assert wigner.wigner_analytic(states.Noon(2, 0.0))([0, 0, 0, 0]) == pytest.approx(
        1.0 / PI**2, rel=1e-13
    )
    assert wigner.wigner_analytic(states.Noon(3, 0.5))([0, 0, 0, 0]) == pytest.approx(
        -1.0 / PI**2, rel=1e-13
    )
    assert wigner.wigner_analytic(states.Tmsv(0.5))([0, 0, 0, 0]) == pytest.approx(
        1.0 / PI**2, rel=1e-13
    )
    assert wigner.wigner_analytic(states.Spssv(0.5, 1))([0, 0, 0, 0]) == pytest.approx(
        -1.0 / PI**2, rel=1e-13
    )


# ---------------------------------------------------------------------------
# analytic route vs Fock synthesis route (dual evaluation, kept separate)


@pytest.mark.parametrize(
    "spec,cutoff,tol",
    [
        (states.Fock(0), 12, 1e-15),
        (states.Fock(1), 12, 1e-15),
        (states.Fock(3), 12, 1e-15),
        (states.MixedFock01(0.3), 12, 1e-15),
        (states.Noon(2, 0.0), None, 1e-15),
        (states.Noon(3, 1.2), None, 1e-15),
        (states.Tmsv(0.5), 24, 1e-10),
        (states.Spssv(0.5, 1), 28, 1e-10),
        (states.Spssv(0.5, 0), 28, 1e-10),
        (states.Tmsv(0.7), 32, 1e-10),
        (states.Spssv(0.7, 1), 38, 1e-10),
    ],
)
def test_analytic_matches_synthesis(spec, cutoff, tol):
    rng = np.random.default_rng(7)
    analytic = wigner.wigner_analytic(spec)
    state = states.state_from_spec(spec, cutoff=cutoff)
    synthesized = wigner.wigner_fock_synthesis(state)
    z = probe(rng, analytic.modes, n=120, span=2.0)
    assert np.max(np.abs(analytic(z) - synthesized(z))) < tol


def test_gaussian_field_matches_analytic_tmsv():
    rng = np.random.default_rng(3)
    analytic = wigner.wigner_analytic(states.Tmsv(0.7))
    gauss = wigner.wigner_gaussian(states.tmsv_gaussian(0.7))
    z = probe(rng, 2, n=120, span=2.0)
    assert np.max(np.abs(analytic(z) - gauss(z))) < 1e-14


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_wigner_gaussian_matches_the_covariance_formula(modes):
    # the image of k dilated vacua under sqrt(nu) L^-1 is the Gaussian of sigma = L L^T
    rng = np.random.default_rng(modes)
    for _ in range(5):
        state = states.state_from_spec(soundness.random_gaussian_spec(rng, modes))
        sigma, mean = state.covariance, state.mean
        z = mean + probe(rng, modes, n=400, span=1.0) @ np.linalg.cholesky(sigma).T * 3.0
        v = z - mean
        want = np.exp(-0.5 * np.einsum("ni,ij,nj->n", v, np.linalg.inv(sigma), v)) / (
            (2.0 * PI) ** modes * math.sqrt(np.linalg.det(sigma))
        )
        got = wigner.wigner_gaussian(state)(z)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "spec", [states.Tmsv(800.0), states.Spssv(800.0, 0), states.Spssv(800.0, 1)], ids=str
)
def test_squeezed_field_past_cosh_overflow_is_degenerate(spec):
    # cosh r of the map overflows from r ~ 710.5; analyze takes the cores and never builds it
    with pytest.raises(DegenerateCovarianceError, match="overflows cosh r"):
        wigner.wigner_analytic(spec)


# ---------------------------------------------------------------------------
# Laguerre recurrence and Fock kernels


def _laguerre_exact(n, alpha, x):
    # L_n^(alpha)(x) = sum_k (-1)^k C(n + alpha, n - k) x^k / k!
    return sum(
        Fraction((-1) ** k * math.comb(n + alpha, n - k), math.factorial(k)) * x**k
        for k in range(n + 1)
    )


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_laguerre_recurrence_matches_exact_values(alpha):
    points = [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1), Fraction(5, 2),
              Fraction(7), Fraction(31, 2), Fraction(60)]
    x = np.array([float(v) for v in points])
    scale = [0.0] * len(points)
    count = 0
    for n, lag in enumerate(wigner._laguerre(alpha, x, 41)):
        count += 1
        for i, v in enumerate(points):
            want = float(_laguerre_exact(n, alpha, v))
            # relative to the largest |L_k|, k <= n: a plain relative error is
            # unbounded at a root (L_1(1) = 0 exactly)
            scale[i] = max(scale[i], abs(want))
            assert abs(lag[i] - want) <= 1e-12 * scale[i], (n, alpha, v)
    assert count == 41


def test_flat_synthesis_stops_at_the_last_nonzero_entry(monkeypatch):
    # Fock(1) has one entry, rho[1, 1]: sector 0 needs L_0 and L_1 and every
    # other sector is empty, whatever the cutoff
    steps = []
    laguerre = wigner._laguerre

    def counted(*args):
        for lag in laguerre(*args):
            steps.append(lag)
            yield lag

    monkeypatch.setattr(wigner, "_laguerre", counted)
    field = wigner.wigner_fock_synthesis(states.fock_state(1, cutoff=171))
    values = field(np.array([[0.0, 0.0], [0.6, -0.8]]))
    assert len(steps) <= 2
    assert values[0] == pytest.approx(-1.0 / PI, rel=1e-14)
    assert values[1] == pytest.approx((2.0 - 1.0) * math.exp(-1.0) / PI, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 7, 25])
def test_fock_kernel_values_bit_identical_to_written_out_loop(dim):
    g = np.linspace(-3.0, 3.0, 13)
    x, p = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
    m, n = np.tril_indices(dim)
    parts = [(a, b, 0) for a, b in zip(m, n)] + [(a, b, 1) for a, b in zip(m, n) if a > b]
    parts = [parts[i] for i in np.random.default_rng(dim).permutation(len(parts))]
    got = wigner.fock_kernel_values(x, p, parts)
    want = kernel_reference(x, p, dim)
    assert got.shape == (len(parts), x.size)
    for row, (a, b, part) in zip(got, parts):
        assert np.array_equal(row, want[:, a, b].imag if part else want[:, a, b].real)


def test_fock_kernel_diagonal_reproduces_fock_wigner():
    x = np.array([0.4, -1.1])
    p = np.array([0.2, 0.9])
    table = wigner.fock_kernel_values(x, p, [(n, n, 0) for n in range(5)])
    for n in range(5):
        field = wigner.wigner_analytic(states.Fock(n))
        pts = np.stack([x, p], axis=1)
        assert np.max(np.abs(table[n] - field(pts))) < 1e-14


def test_fock_kernel_hermitian_pairing():
    # K[n, m] = conj(K[m, n]) is read from the parts with m >= n, and K[n, n]
    # is real, so the table holds no other part
    for part in [(0, 1, 0), (2, 3, 1), (-1, -1, 0), (2, 2, 1), (3, 1, 2)]:
        with pytest.raises(InvalidArgumentError):
            wigner.fock_kernel_values(np.array([0.6]), np.array([-0.3]), [part])


def _two_mode_reference(rho, z):
    """sum R[(m1, n1), (m2, n2)] K[m1, n1](z1) K[m2, n2](z2), point by point."""
    d = int(round(rho.shape[0] ** 0.5))
    realigned = rho.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    k1 = kernel_reference(z[:, 0], z[:, 2], d).reshape(-1, d * d)
    k2 = kernel_reference(z[:, 1], z[:, 3], d).reshape(-1, d * d)
    return np.einsum("pi,ij,pj->p", k1, realigned, k2)


def _random_two_mode_state(cutoff, seed):
    rng = np.random.default_rng(seed)
    d2 = (cutoff + 1) ** 2
    g = rng.normal(size=(d2, 3)) + 1j * rng.normal(size=(d2, 3))
    rho = g @ g.conj().T
    return states.FockState(rho / np.trace(rho).real, modes=2)


@pytest.mark.parametrize(
    "state",
    [_random_two_mode_state(3, 7), states.noon_state(3, 0.4)],
    ids=["random-cutoff-3", "noon-3"],
)
def test_two_mode_synthesis_matches_the_reference_on_points_and_grids(state):
    field = wigner.wigner_fock_synthesis(state)
    rng = np.random.default_rng(11)
    x, p = rng.uniform(-2.5, 2.5, size=(2, 9))
    t1, coupling, t2 = field.factors(x, p)
    block = (t1.T @ coupling) @ t2
    a, b = (g.ravel() for g in np.meshgrid(np.arange(9), np.arange(9), indexing="ij"))
    z = np.stack([x[a], x[b], p[a], p[b]], axis=1)
    want = _two_mode_reference(state.matrix, z)
    assert np.max(np.abs(want.imag)) < 1e-14
    assert np.max(np.abs(block.ravel() - want.real)) < 1e-14
    assert np.max(np.abs(field(z) - want.real)) < 1e-14


def test_noon_takes_two_mode_synthesis():
    spec = states.Noon(3, 0.4)
    field = wigner.wigner_analytic(spec)
    assert field.label == states.spec_label(spec) and field.factors is not None
    z = probe(np.random.default_rng(5), 2)
    synth = wigner.wigner_fock_synthesis(states.state_from_spec(spec))
    assert np.array_equal(field(z), synth(z))


def test_synthesis_requires_density_matrix_support():
    state = states.fock_state(1, cutoff=6)
    field = wigner.wigner_fock_synthesis(state, label="one")
    assert field.label == "one"
    assert field.modes == 1
    assert field.polynomial_degree == 12  # 2 * cutoff for one mode


# ---------------------------------------------------------------------------
# dilation


def test_dilate_scales_pointwise():
    # W'(z) = c^{2k} W(c z); k = 1, c = 2 gives a factor 4
    field = wigner.wigner_analytic(states.Fock(1))
    doubled = wigner.dilate(field, 2.0)
    z = np.array([0.3, -0.4])
    assert doubled(z) == pytest.approx(4.0 * field(2.0 * z), rel=1e-14)
    with pytest.raises(InvalidArgumentError):
        wigner.dilate(field, 0.0)
    with pytest.raises(InvalidArgumentError):
        wigner.dilate(field, -1.0)


def test_dilate_preserves_normalization():
    from wignermoments import moments

    field = wigner.dilate(wigner.wigner_analytic(states.Fock(2)), 1.7)
    assert moments.moment(field, 1) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# marginals


def test_vacuum_marginal_is_ground_wavefunction_density():
    field = wigner.wigner_analytic(states.Fock(0))
    xs = np.array([0.0, 0.5, 1.5])
    expect = np.exp(-(xs**2)) / math.sqrt(PI)
    got = wigner.marginal_x(field, 0, xs)
    assert np.max(np.abs(got - expect)) < 1e-13


def test_fock1_marginals_match_excited_density():
    field = wigner.wigner_analytic(states.Fock(1))
    xs = np.array([0.0, 0.7, -1.3])
    expect = 2.0 * xs**2 * np.exp(-(xs**2)) / math.sqrt(PI)
    assert np.max(np.abs(wigner.marginal_x(field, 0, xs) - expect)) < 1e-13
    assert np.max(np.abs(wigner.marginal_p(field, 0, xs) - expect)) < 1e-13


def test_marginal_normalization_fock3():
    field = wigner.wigner_analytic(states.Fock(3))
    xs = np.linspace(-6.0, 6.0, 1201)
    dens = wigner.marginal_x(field, 0, xs)
    assert np.all(dens > -1e-12)
    total = np.trapezoid(dens, xs)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_two_mode_marginal_reduces_to_single_mode():
    # tracing one mode of noon(1) leaves an even mix of vacuum and one photon
    field = wigner.wigner_analytic(states.Noon(1, 0.0))
    xs = np.array([0.0, 0.8])
    expect = 0.5 * (
        np.exp(-(xs**2)) / math.sqrt(PI)
        + 2.0 * xs**2 * np.exp(-(xs**2)) / math.sqrt(PI)
    )
    got = wigner.marginal_x(field, 0, xs)
    # the remaining mode is integrated out implicitly through normalization:
    # marginal_x here integrates out p_1 only for k=1; for k=2 it integrates
    # the other three coordinates
    assert np.max(np.abs(got - expect)) < 1e-12
    with pytest.raises(InvalidArgumentError):
        wigner.marginal_x(field, 2, xs)


def test_marginals_pick_each_modes_quadrature():
    # uncorrelated Gaussian: the marginal of coordinate i is N(0, var_i)
    var = [0.5, 0.9, 1.4, 2.2]  # x1, x2, p1, p2
    field = wigner.wigner_gaussian(states.GaussianState(np.zeros(4), np.diag(var)))
    xs = np.array([-1.3, 0.0, 0.6])
    for mode in (0, 1):
        for marginal, v in ((wigner.marginal_x, var[mode]), (wigner.marginal_p, var[2 + mode])):
            expect = np.exp(-(xs**2) / (2.0 * v)) / math.sqrt(2.0 * PI * v)
            assert np.max(np.abs(marginal(field, mode, xs) - expect)) < 1e-13
            assert marginal(field, mode, 0.6) == pytest.approx(expect[2], rel=1e-13)
    with pytest.raises(InvalidArgumentError):
        wigner.marginal_p(field, 2, xs)


# ---------------------------------------------------------------------------
# grids


def test_wigner_grid_layout():
    field = wigner.wigner_analytic(states.Fock(0))
    xs, ps, vals = wigner.wigner_grid(field, GridSpec(half_width=2.0, points_per_axis=17))
    assert xs.shape == (17,) and ps.shape == (17,)
    assert vals.shape == (17, 17)
    i = 3
    j = 11
    assert vals[i, j] == pytest.approx(field([xs[i], ps[j]]), rel=1e-14)


def test_wigner_grid_single_mode_only():
    field = wigner.wigner_analytic(states.Noon(1, 0.0))
    with pytest.raises(UnsupportedOperationError):
        wigner.wigner_grid(field, GridSpec(half_width=2.0, points_per_axis=17))


def test_field_rejects_bad_point_shape():
    field = wigner.wigner_analytic(states.Fock(0))
    with pytest.raises(InvalidArgumentError):
        field(np.zeros((4, 3)))
