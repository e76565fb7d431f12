"""Exact Gauss rules against Gaussian envelopes, and the oracle's box rule.

The two schemes of SCHEMES are the Gauss-Hermite tensor rule and the polar
Gauss-Laguerre rule below; each is exact on polynomial-times-envelope
fields from a known order.

The integrals in this package all have the shape integral f(z) dz where f
decays like exp(-(z - c)^T Q (z - c)) for a known SPD form Q. Substituting
z = c + L^{-T} t with Q = L L^T turns the weight into exp(-|t|^2), which is
the physicists' Gauss-Hermite weight. The e^{+t_i^2} factors are folded into
the per-axis weights (w_i e^{t_i^2} is O(node spacing), so no overflow), and
whenever f is polynomial-times-envelope the rule is exact once the per-axis
order exceeds half the polynomial degree.

A field with an isotropic, centred envelope lam * I in one or two modes has
a second, smaller exact rule: in each mode W^m is e^{-s} times a polynomial
in s = m lam |z|^2 and a trigonometric polynomial in the angle, so
Gauss-Laguerre nodes in s and an equispaced trapezoid in the angle integrate
it exactly (polar_power_integrals, which takes a per-mode callable of the
field and the powers m: the polar block in one mode, the factor form in two).

uniform_grid_integral, a midpoint rule on a box, serves the independent
oracle.riemann_moment; it walks its grid in the same blocks as the
Gauss-Hermite rule. Every rule here needs numpy alone.

Summation is deterministic: fixed chunking over the leading axis (mode-1
rows on the two-mode polar rule), fixed-order sums inside a chunk,
math.fsum across chunk partials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateCovarianceError,
    InvalidArgumentError,
    SizeLimitError,
    UnsupportedOperationError,
    check_int,
    check_positive,
)

__all__ = [
    "GaussianEnvelope",
    "GridSpec",
    "QuadratureSpec",
    "SCHEMES",
    "gauss_hermite_integral",
    "hermgauss_cached",
    "laggauss_cached",
    "polar_power_integrals",
    "uniform_grid_integral",
]

# gauss_hermite_tensor: per-axis Gauss-Hermite nodes against the envelope,
#   any mode count; order counts nodes per axis.
# gauss_laguerre_polar: one- and two-mode fields with an isotropic, centred
#   envelope; order counts radial Gauss-Laguerre nodes per mode, with twice
#   as many angles.
SCHEMES = ("gauss_hermite_tensor", "gauss_laguerre_polar")

# Cap on tensor-product node counts (64 GH points per axis in 4 dims is
# 16.8M nodes, ~0.5 GB of transient blocks at the default chunking); the
# two-mode polar rule, (order * 2 * order)^2 nodes, meets the same cap.
MAX_TENSOR_NODES = 40_000_000
BLOCK_NODES = 262_144

# Cap on one-mode polar nodes (order radii times 2 * order angles): that rule
# evaluates its whole grid in one call, so this bounds its largest block
# (4M nodes: 32 MB per real array, 64 MB for a complex spectrum).
MAX_POLAR_NODES = 4_000_000

# Largest-to-smallest eigenvalue ratio of an envelope form that the tensor
# rule takes; past it w_m drifts silently. The squeezed pairs cross it at
# r ~ 8.06, their w_1..w_3 still within 3e-9.
MAX_FORM_RATIO = 1e14

# Newton steps that polish the Jacobi-matrix eigenvalues into Laguerre roots,
# and the magnitude at which the recurrence behind them is rescaled.
LAGUERRE_NEWTON_STEPS = 3
LAGUERRE_RESCALE = 1e150


@dataclass(frozen=True)
class GaussianEnvelope:
    """Decay profile |f(z)| <~ exp(-(z - center)^T form (z - center))."""

    form: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        form = np.asarray(self.form, dtype=float)
        center = np.asarray(self.center, dtype=float).ravel()
        if form.shape != (center.size, center.size):
            raise InvalidArgumentError(
                f"envelope form {form.shape} does not match center {center.shape}"
            )
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "center", center)

    def scaled(self, factor: float) -> "GaussianEnvelope":
        return GaussianEnvelope(self.form * factor, self.center)

    def polar_scale(self) -> float | None:
        """lam for a form lam * I centred at 0 (the polar rule's envelope),
        None for any other envelope."""
        if self.center.any():
            return None
        rows = self.form.tolist()
        lam = rows[0][0]
        isotropic = all(
            v == (lam if i == j else 0.0) for i, row in enumerate(rows) for j, v in enumerate(row)
        )
        return lam if lam > 0.0 and isotropic else None


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space grid: [-L, L] per axis, midpoint cells."""

    half_width: float
    points_per_axis: int

    def __post_init__(self):
        check_positive("half_width", self.half_width)
        check_positive("grid span 2 * half_width", 2.0 * self.half_width)
        check_int("points_per_axis", self.points_per_axis, 16)


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: a scheme of SCHEMES and its order, exact from the
    order of moments.default_quadrature."""

    scheme: str = "gauss_hermite_tensor"
    order: int = 40

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError(
                f"unknown quadrature scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        check_int("quadrature order", self.order, 1)


@lru_cache(maxsize=64)
def hermgauss_cached(order: int):
    """Physicists' Gauss-Hermite nodes plus weights premultiplied by e^{t^2}."""
    t, w = np.polynomial.hermite.hermgauss(order)
    return t, w * np.exp(t * t)


def _laguerre_recurrence(x: np.ndarray, order: int):
    """L_order(x), L_{order-1}(x) and sum_{k<order} L_k(x)^2, with a common
    per-node scale: each true value is the returned one times e^{logscale}
    (e^{2 logscale} for the sum). Rescaling keeps the recurrence finite far
    past the overflow of L_n near the largest nodes.
    """
    prev, cur = np.zeros_like(x), np.ones_like(x)
    sumsq, logscale = np.zeros_like(x), np.zeros_like(x)
    for n in range(1, order + 1):
        sumsq += cur * cur
        prev, cur = cur, ((2.0 * n - 1.0 - x) * cur - (n - 1.0) * prev) / n
        big = np.abs(cur) > LAGUERRE_RESCALE
        if big.any():
            f = np.where(big, np.abs(cur), 1.0)
            cur /= f
            prev /= f
            sumsq /= f * f
            logscale += np.log(f)
    return cur, prev, sumsq, logscale


@lru_cache(maxsize=256)
def laggauss_cached(order: int):
    """Gauss-Laguerre nodes s plus weights premultiplied by e^{s}.

    The nodes are the eigenvalues of the Jacobi matrix (diagonal 2k + 1,
    off-diagonal k), polished by Newton steps on L_order through the
    three-term recurrence. The weight times e^{s} is e^{s} over the
    Christoffel sum sum_{k<order} L_k(s)^2, taken in log form so that
    neither factor over- or underflows. numpy's laggauss loses digits as the
    order grows and returns NaN weights from about 226 nodes; this rule
    stays near 1e-14 on e^{-s} s^k / k! up to several hundred nodes.
    """
    k = np.arange(1, order, dtype=float)
    jacobi = np.diag(2.0 * np.arange(order) + 1.0) + np.diag(k, 1) + np.diag(k, -1)
    s = np.linalg.eigvalsh(jacobi)
    for _ in range(LAGUERRE_NEWTON_STEPS):
        # x L_n'(x) = n (L_n - L_{n-1}); the common scale cancels in the step
        last, before, _, _ = _laguerre_recurrence(s, order)
        s = s - s * last / (order * (last - before))
    _, _, sumsq, logscale = _laguerre_recurrence(s, order)
    weights = np.exp(s - np.log(sumsq) - 2.0 * logscale)
    s.flags.writeable = False
    weights.flags.writeable = False
    return s, weights


def _mesh(axis: np.ndarray, dims: int) -> np.ndarray:
    """Every dims-tuple of axis values, as an (axis.size**dims, dims) array
    with the last axis fastest."""
    grids = np.meshgrid(*([axis] * dims), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1) if grids else np.zeros((1, 0))


@lru_cache(maxsize=16)
def _node_tensor(order: int, dims: int):
    """Meshed nodes (order**dims, dims) and product weights over dims axes.

    Built once per (order, dims): re-meshing on every call allocated fresh
    multi-megabyte temporaries, and their page faults cost more than the
    integrand on the 4-D rules. The arrays are shared, hence read-only.
    """
    t, wt = hermgauss_cached(order)
    nodes = _mesh(t, dims)
    weights = np.ones(nodes.shape[0])
    for column in _mesh(wt, dims).T:
        weights = weights * column
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _check_size(rule: str, per_axis: int, dims: int) -> None:
    total = per_axis**dims
    if total > MAX_TENSOR_NODES:
        raise SizeLimitError(f"{rule} with {total} nodes exceeds cap {MAX_TENSOR_NODES}")


def _tail_dims(per_axis: int, dims: int) -> int:
    """Trailing axes meshed into one block of at most BLOCK_NODES nodes."""
    tail_dims, tail = 0, 1
    while tail_dims < dims and tail * per_axis <= BLOCK_NODES:
        tail *= per_axis
        tail_dims += 1
    return tail_dims


def _tensor_blocks(axis: np.ndarray, tail: np.ndarray, dims: int):
    """Walk the tensor grid of axis over dims axes in fixed blocks.

    tail is the meshed grid of the trailing axes; the lead axes are looped
    one index at a time. Yields (lead index tuple, block of points).
    """
    lead_dims = dims - tail.shape[1]
    if not lead_dims:
        yield (), tail
        return
    for lead in np.ndindex(*([axis.size] * lead_dims)):
        block = np.empty((tail.shape[0], dims))
        block[:, :lead_dims] = axis[list(lead)]
        block[:, lead_dims:] = tail
        yield lead, block


def _cholesky(form: np.ndarray) -> np.ndarray:
    """Cholesky factor of an envelope form; one that is not finite, not
    positive definite or squeezed past MAX_FORM_RATIO is degenerate."""
    eig = np.linalg.eigvalsh(form) if np.isfinite(form).all() else [math.nan]
    if not (eig[0] > 0.0 and eig[-1] <= MAX_FORM_RATIO * eig[0]):
        raise DegenerateCovarianceError(
            f"envelope form is numerically singular or indefinite "
            f"(eigenvalues {eig[0]:.3g} to {eig[-1]:.3g})"
        )
    return np.linalg.cholesky(form)


def _substitute(chol: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Offsets z - c = L^{-T} t for rows t of Gauss-Hermite nodes.

    LAPACK's LU of the upper-triangular L^T needs no row exchange, so the
    solve is a back-substitution through L^T.
    """
    return np.linalg.solve(chol.T, t.T).T


def gauss_hermite_integral(f, envelope: GaussianEnvelope, order: int) -> float:
    """integral f(z) dz for f decaying like the given Gaussian envelope.

    f maps an (n, dims) array of points to n values. Exact when
    f(z) e^{(z-c)^T Q (z-c)} is a polynomial of per-axis degree < 2 * order.
    """
    dims = envelope.center.size
    chol = _cholesky(envelope.form)
    _check_size("tensor rule", order, dims)
    jac = 1.0 / float(np.prod(np.diag(chol)))
    t, wt = hermgauss_cached(order)
    tail_t, tail_w = _node_tensor(order, _tail_dims(order, dims))
    partials = []
    for lead, t_block in _tensor_blocks(t, tail_t, dims):
        w_block = tail_w
        for idx in lead:
            w_block = w_block * wt[idx]
        z = envelope.center + _substitute(chol, t_block)
        partials.append(float(np.sum(w_block * np.asarray(f(z), dtype=float))))
    return jac * math.fsum(partials)


def _product_integral(tables, w: np.ndarray, m: int) -> float:
    """The 4-D rule of W^m on every pairing of a node set, weights w, with
    itself, where W = T1^T C T2 from tables = (T1, C, T2) on that set;
    chunked over mode-1 rows."""
    t1, coupling, t2 = tables
    rows = max(1, BLOCK_NODES // w.size)
    partials = []
    for start in range(0, w.size, rows):
        sl = slice(start, start + rows)
        block = _power((t1[:, sl].T @ coupling) @ t2, m)
        # numpy reductions, not BLAS: a threaded gemv here leaves the BLAS
        # pool spinning into the single-threaded work that follows
        partials.append(float(np.sum(w[sl] * np.sum(block * w, axis=1))))
    return math.fsum(partials)


def _power(values, m: int):
    """values ** m by repeated multiplication: numpy sends ** 3 to libm pow,
    which is 10-25x slower on values of mixed sign."""
    out = values
    for _ in range(m - 1):
        out = out * values
    return out


def polar_power_integrals(f, envelope: GaussianEnvelope, order: int, powers) -> list:
    """integral W(z)^m dz over phase space for each m of powers, for
    W ~ e^{-lam |z|^2} poly(z) in one or two modes.

    The envelope must be lam * I with centre 0, so W^m decays like
    e^{-m lam |z|^2}. With s = m lam |z|^2 per mode the rule for W^m takes
    `order` Gauss-Laguerre nodes in s and a 2 * order trapezoid in the
    angle; the rules of all powers share their angles and differ only in
    their radii. In one mode f(r, n_theta) returns the (len(r), n_theta)
    block of W at the radii r and the angles 2 pi j / n_theta: the radii of
    the powers are stacked into one array, cut into calls of whole rules and
    at most MAX_POLAR_NODES nodes, so f is called once for up to
    MAX_POLAR_NODES // (order * 2 order) powers. Two modes take one pass per
    power: its nodes are flattened into one per-mode node set (x, p), and
    f(x, p) returns the factor form (T1, C, T2) of W = T1^T C T2 on the
    pairings of that set with itself, once per pass. Each rule
    is exact when, in each mode, W^m e^{s} is a trigonometric polynomial of
    degree < 2 * order in the angle whose angular mean is a polynomial of
    degree < 2 * order in s; for a field of per-mode polynomial degree D
    both hold from order m * D // 4 + 1. Every size check runs before any
    node is built. The node bound of a call also keeps one-mode synthesis's
    sector arrays (wigner.MAX_SECTOR_BYTES) at 16 bytes a node wherever the
    2 * order angles cover the field's sectors, as from its exact order on.
    """
    lam = envelope.polar_scale()
    if lam is None or envelope.center.size not in (2, 4):
        raise UnsupportedOperationError(
            "the polar rule needs a one- or two-mode envelope lam * I centred at 0"
        )
    two_modes = envelope.center.size == 4
    n_theta = 2 * order
    if two_modes:
        _check_size("polar product rule", order * n_theta, 2)
    elif order * n_theta > MAX_POLAR_NODES:
        raise SizeLimitError(
            f"polar rule with {order * n_theta} nodes exceeds cap {MAX_POLAR_NODES}"
        )
    s, ws = laggauss_cached(order)
    rules = []
    for m in powers:
        lam_m = m * lam
        # dx dp = ds dtheta / (2 lam_m) per mode, and the trapezoid weight is 2 pi / n_theta
        rules.append((m, np.sqrt(s / lam_m), math.pi / (lam_m * n_theta)))
    out = []
    if two_modes:
        weights = np.repeat(ws, n_theta)
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        cos, sin = np.cos(theta), np.sin(theta)
        for m, r, scale in rules:
            x = np.outer(r, cos).ravel()
            p = np.outer(r, sin).ravel()
            out.append(scale * scale * _product_integral(f(x, p), weights, m))
        return out
    per_call = MAX_POLAR_NODES // (order * n_theta)
    for start in range(0, len(rules), per_call):
        batch = rules[start : start + per_call]
        values = np.asarray(f(np.concatenate([r for _, r, _ in batch]), n_theta), dtype=float)
        for k, (m, _, scale) in enumerate(batch):
            block = _power(values[k * order : (k + 1) * order], m)
            out.append(scale * float(np.sum(ws * np.sum(block, axis=1))))
        # freed before the next call: each can hold MAX_POLAR_NODES values
        del values, block
    return out


def uniform_grid_integral(
    f,
    dims: int,
    half_width: float,
    points_per_axis: int,
) -> float:
    """Midpoint rule on [-L, L]^dims with points_per_axis cells per axis."""
    check_positive("half_width", half_width)
    check_positive("grid span 2 * half_width", 2.0 * half_width)
    check_int("points_per_axis", points_per_axis, 2)
    _check_size("uniform grid", points_per_axis, dims)
    h = 2.0 * half_width / points_per_axis
    axis = -half_width + h * (np.arange(points_per_axis) + 0.5)
    tail = _mesh(axis, _tail_dims(points_per_axis, dims))
    partials = [
        float(np.sum(np.asarray(f(block), dtype=float)))
        for _, block in _tensor_blocks(axis, tail, dims)
    ]
    return h**dims * math.fsum(partials)
