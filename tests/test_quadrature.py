import math

import numpy as np
import pytest

from wignermoments import moments, states, wigner
from wignermoments.errors import (
    DegenerateCovarianceError,
    InvalidArgumentError,
    SizeLimitError,
)
from wignermoments.quadrature import (
    GaussianEnvelope,
    GridSpec,
    QuadratureSpec,
    gauss_hermite_integral,
    hermgauss_cached,
    uniform_grid_integral,
)

# The rule integrates the *full* integrand f(z) dz; the envelope only declares
# where f's Gaussian decay lives so the nodes can be placed under it.


def test_gauss_hermite_matches_gaussian_normalization():
    # integral of e^{-3 x^2} = sqrt(pi/3)
    env = GaussianEnvelope(np.array([[3.0]]), np.zeros(1))
    val = gauss_hermite_integral(lambda z: np.exp(-3.0 * z[:, 0] ** 2), env, order=5)
    assert val == pytest.approx(math.sqrt(math.pi / 3.0), rel=1e-14)


def test_gauss_hermite_polynomial_exactness():
    # integral of x^4 e^{-x^2} = 3 sqrt(pi)/4, degree 4 needs order >= 3
    env = GaussianEnvelope(np.array([[1.0]]), np.zeros(1))
    val = gauss_hermite_integral(
        lambda z: z[:, 0] ** 4 * np.exp(-(z[:, 0] ** 2)), env, order=3
    )
    assert val == pytest.approx(3.0 * math.sqrt(math.pi) / 4.0, rel=1e-14)


def test_gauss_hermite_shifted_center():
    # integral of x e^{-(x-2)^2} = 2 sqrt(pi)
    env = GaussianEnvelope(np.array([[1.0]]), np.array([2.0]))
    val = gauss_hermite_integral(
        lambda z: z[:, 0] * np.exp(-((z[:, 0] - 2.0) ** 2)), env, order=4
    )
    assert val == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)


def test_gauss_hermite_correlated_form():
    # integral of e^{-z^T Q z} over R^2 = pi / sqrt(det Q)
    q = np.array([[2.0, 0.7], [0.7, 1.5]])
    env = GaussianEnvelope(q, np.zeros(2))

    def f(z):
        return np.exp(-np.einsum("ni,ij,nj->n", z, q, z))

    val = gauss_hermite_integral(f, env, order=6)
    assert val == pytest.approx(math.pi / math.sqrt(np.linalg.det(q)), rel=1e-12)


def test_envelope_scale_keeps_exact_results():
    env = GaussianEnvelope(np.array([[1.0]]), np.zeros(1))

    def f(z):
        return z[:, 0] ** 2 * np.exp(-(z[:, 0] ** 2))

    tight = gauss_hermite_integral(f, env, order=30)
    # widening the envelope 1.5 times scales its form by 1 / 1.5^2
    wide = gauss_hermite_integral(f, env.scaled(1.0 / 2.25), order=30)
    assert tight == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
    # widening the weight leaves a residual Gaussian in the transformed
    # integrand; order 30 still nails it
    assert wide == pytest.approx(tight, rel=1e-10)


def test_non_positive_form_rejected():
    env = GaussianEnvelope(np.array([[-1.0]]), np.zeros(1))
    with pytest.raises(DegenerateCovarianceError):
        gauss_hermite_integral(lambda z: np.ones(z.shape[0]), env, order=4)


def test_envelope_validation():
    with pytest.raises(InvalidArgumentError):
        GaussianEnvelope(np.eye(3), np.zeros(2))


def test_hermgauss_cached_weights_are_premultiplied():
    t, wt = hermgauss_cached(7)
    t_ref, w_ref = np.polynomial.hermite.hermgauss(7)
    assert np.array_equal(t, t_ref)
    assert np.allclose(wt, w_ref * np.exp(t_ref**2), rtol=1e-15)


def test_uniform_grid_matches_gauss_hermite():
    env = GaussianEnvelope(np.array([[1.0]]), np.zeros(1))

    def f(z):
        return np.exp(-(z[:, 0] ** 2)) * (1.0 + z[:, 0] ** 2)

    gh = gauss_hermite_integral(f, env, order=20)
    grid = uniform_grid_integral(f, dims=1, half_width=9.0, points_per_axis=3000)
    assert gh == pytest.approx(1.5 * math.sqrt(math.pi), rel=1e-14)
    assert grid == pytest.approx(gh, rel=1e-9)


def test_uniform_grid_two_dims():
    def f(z):
        return np.exp(-np.sum(z**2, axis=1))

    val = uniform_grid_integral(f, dims=2, half_width=7.0, points_per_axis=301)
    assert val == pytest.approx(math.pi, rel=1e-8)


def test_gauss_hermite_deterministic_across_calls():
    env = GaussianEnvelope(np.array([[1.2, 0.1], [0.1, 0.9]]), np.array([0.3, -0.2]))

    def f(z):
        r2 = np.sum((z - env.center) ** 2, axis=1)
        return np.cos(z[:, 0]) * np.exp(-r2)

    first = gauss_hermite_integral(f, env, order=48)
    second = gauss_hermite_integral(f, env, order=48)
    assert first == second  # bitwise, thanks to fixed chunking and fsum


def test_quadrature_spec_validation():
    QuadratureSpec()
    with pytest.raises(InvalidArgumentError):
        QuadratureSpec(scheme="monte_carlo")
    with pytest.raises(InvalidArgumentError):
        QuadratureSpec(order=0)
    with pytest.raises(InvalidArgumentError):
        GridSpec(half_width=2.0, points_per_axis=8)


def test_large_tensor_rejected():
    env = GaussianEnvelope(np.eye(4), np.zeros(4))
    with pytest.raises(SizeLimitError):
        gauss_hermite_integral(lambda z: np.ones(z.shape[0]), env, order=100)
    # an explicit tensor rule on the per-mode factor fields meets the same cap
    noon = wigner.wigner_analytic(states.Noon(2))
    synth = wigner.wigner_fock_synthesis(states.state_from_spec(states.Noon(1), 2))
    for field in (noon, synth):
        assert field.factors is not None
        with pytest.raises(SizeLimitError):
            moments.moment(field, 2, QuadratureSpec(order=100))
