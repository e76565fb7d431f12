"""Random states with nonnegative Wigner functions.

The detection criterion must never certify a positive-Wigner state, no
matter how the state was cooked up. This module generates such states
reproducibly: random Gaussians (any Gaussian state has W >= 0) and random
mixtures of coherent-state projectors (positive combinations of Gaussian
peaks). Both the CLI selftest and the test suite draw from here so the
two runs exercise identical families.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int
from .states import FockCustom, FockState, GaussianCustom, coherent_state_matrix

__all__ = [
    "random_gaussian_spec",
    "random_coherent_mixture_spec",
    "positive_state_specs",
]

MIXTURE_CUTOFF = 18
MAX_ALPHA = 1.4


def _random_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _orthogonal_symplectic(rng: np.random.Generator, k: int) -> np.ndarray:
    u = _random_unitary(rng, k)
    x, y = u.real, u.imag
    return np.block([[x, -y], [y, x]])


def random_gaussian_spec(rng: np.random.Generator, modes: int) -> GaussianCustom:
    """Random valid Gaussian state: sigma = S (nu + nu) S^T, S symplectic.

    S = K1 Z K2 with K passive (orthogonal symplectic) and Z a squeezer,
    which reaches every symplectic matrix; nu_i >= 1/2 keeps the
    uncertainty relation satisfied by construction.
    """
    k = modes
    k1 = _orthogonal_symplectic(rng, k)
    k2 = _orthogonal_symplectic(rng, k)
    z = rng.uniform(-0.8, 0.8, size=k)
    zmat = np.diag(np.concatenate([np.exp(z), np.exp(-z)]))
    s = k1 @ zmat @ k2
    nu = 0.5 + rng.uniform(0.0, 1.5, size=k)
    d = np.diag(np.concatenate([nu, nu]))
    cov = s @ d @ s.T
    cov = 0.5 * (cov + cov.T)
    mean = rng.uniform(-2.0, 2.0, size=2 * k)
    return GaussianCustom.from_arrays(mean, cov)


def random_coherent_mixture_spec(
    rng: np.random.Generator, cutoff: int = MIXTURE_CUTOFF
) -> FockCustom:
    """Random mixture of up to five coherent projectors, single mode."""
    n_terms = int(rng.integers(1, 6))
    weights = rng.dirichlet(np.ones(n_terms))
    parts = []
    for _ in range(n_terms):
        alpha = complex(rng.uniform(-MAX_ALPHA, MAX_ALPHA), rng.uniform(-MAX_ALPHA, MAX_ALPHA))
        parts.append(coherent_state_matrix(alpha, cutoff))
    mixed = FockState.from_mixture(weights, parts)
    return FockCustom.from_matrix(mixed.matrix, modes=1)


def positive_state_specs(seed: int, gaussians_1: int, gaussians_2: int, mixtures: int):
    """Labelled positive-Wigner specs, deterministic in the seed."""
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(gaussians_1):
        out.append((f"gaussian-k1-{i}", random_gaussian_spec(rng, 1)))
    for i in range(gaussians_2):
        out.append((f"gaussian-k2-{i}", random_gaussian_spec(rng, 2)))
    for i in range(mixtures):
        out.append((f"coherent-mixture-{i}", random_coherent_mixture_spec(rng)))
    return out
