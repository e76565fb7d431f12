"""Multi-copy measurement operators in truncated Fock space.

The second and third moments of a Wigner function are expectation values
of joint observables on two or three copies of the state. This module
builds those observables explicitly: the mode SWAP operator (permutation,
exponential, and quadrature forms), displaced parity, the integrated
parity products O_m with Tr[rho^(x)m O_m] = w_m, and the cyclic register
permutation behind the three-copy protocol.

Truncation caveat applies throughout: annihilation operators truncated at
a finite Fock level violate the commutation relation in the top levels,
so operator identities hold exactly only on the subspace that the
operations cannot map out of the cutoff. Tests exclude the boundary
levels; that exclusion is physics, not slack.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidArgumentError,
    SizeLimitError,
    TruncationWarning,
    UnsupportedOperationError,
)
from .quadrature import laggauss_cached
from .states import FockState, annihilation_matrix
from .wigner import fock_kernel_values

__all__ = [
    "TruncatedOperator",
    "swap_operator",
    "swap_operator_exponential",
    "swap_quadrature_form",
    "displaced_parity",
    "multicopy_observable",
    "multicopy_expectation",
    "forward_backward_protocol",
]

DEFAULT_MAX_SIDE = 4096
# Rows/columns touching the top Fock levels see O(1) truncation artifacts;
# identity checks restrict to indices whose per-mode occupation stays this
# many levels below the cutoff.
SAFE_BOUNDARY_LEVELS = 2


@dataclass(frozen=True)
class TruncatedOperator:
    """An operator on `modes` registers, each truncated at `cutoff`, stored by sectors.

    Sector s couples the next sizes[s] basis states of `index` (numbered
    row-major over the registers) among themselves; its block is the next
    sizes[s]**2 `values`, row-major. Entries outside every sector are 0.
    """

    modes: int
    cutoff: int
    index: np.ndarray
    sizes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        index, sizes, side = self.index, self.sizes, self.side
        if (sizes.sum(), (sizes**2).sum()) != (index.size, self.values.size) or np.any(
            (index < 0) | (index >= side)
        ):
            raise InvalidArgumentError(
                f"sector sizes {sizes.tolist()} need {sizes.sum()} indices below {side} and "
                f"{(sizes**2).sum()} values, got {index.size} and {self.values.size}"
            )

    @classmethod
    def dense(cls, modes: int, cutoff: int, matrix) -> "TruncatedOperator":
        """The operator whose entries are the (side, side) `matrix`: one sector."""
        side = (cutoff + 1) ** modes
        return cls(modes, cutoff, np.arange(side), np.array([side]), np.ravel(matrix))

    @property
    def side(self) -> int:
        return self.dim**self.modes

    @property
    def dim(self) -> int:
        """Per-register dimension cutoff+1."""
        return self.cutoff + 1

    @cached_property
    def _pairs(self) -> np.ndarray:
        """Row level * dim + column level, per register and entry of `values`."""
        occupations = np.indices((self.dim,) * self.modes).reshape(self.modes, -1)
        pairs = []
        for states in np.split(self.index, np.cumsum(self.sizes)[:-1]):
            occ = occupations[:, states]
            pairs.append((occ[:, :, None] * self.dim + occ[:, None, :]).reshape(self.modes, -1))
        return np.concatenate(pairs, axis=1)

    @property
    def matrix(self) -> np.ndarray:
        """The dense (side, side) matrix, side^2 entries scattered anew on each access."""
        shape = (self.dim,) * self.modes
        rows, cols = (np.ravel_multi_index(lv, shape) for lv in divmod(self._pairs, self.dim))
        out = np.zeros((self.side, self.side), dtype=np.result_type(float, self.values))
        out[rows, cols] = self.values
        return out

    def safe_slice(self, levels: int = SAFE_BOUNDARY_LEVELS) -> np.ndarray:
        """Restriction to basis states with every register below cutoff+1-levels."""
        occupations = np.indices((self.dim,) * self.modes).reshape(self.modes, -1)
        idx = np.nonzero(np.all(occupations <= self.cutoff - levels, axis=0))[0]
        return self.matrix[np.ix_(idx, idx)]

    def dump(self, path) -> None:
        """Write side, cutoff and the nonzero entries as row,col,re,im CSV."""
        mat = self.matrix
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# side={self.side}\n# cutoff={self.cutoff}\nrow,col,re,im\n")
            rows, cols = np.nonzero(mat)
            for r, c in zip(rows.tolist(), cols.tolist()):
                v = complex(mat[r, c])
                fh.write(f"{r},{c},{v.real!r},{v.imag!r}\n")


def _pair_annihilation(cutoff: int):
    a = annihilation_matrix(cutoff + 1)
    eye = np.eye(cutoff + 1)
    return np.kron(a, eye), np.kron(eye, a)


def _unitary_from_hermitian(h: np.ndarray, phase: float) -> np.ndarray:
    """exp(i*phase*h) for Hermitian h, via eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * phase * vals)) @ vecs.conj().T


def swap_operator(cutoff: int) -> TruncatedOperator:
    """Two-mode SWAP as the exact permutation |m,n> -> |n,m>."""
    if cutoff < 1:
        raise InvalidArgumentError("swap_operator needs cutoff >= 1")
    d = cutoff + 1
    mat = np.zeros((d * d, d * d))
    states = np.arange(d * d)  # |m,n> is state m*d + n
    mat[(states % d) * d + states // d, states] = 1.0
    return TruncatedOperator.dense(2, cutoff, mat)


def swap_operator_exponential(cutoff: int) -> TruncatedOperator:
    """SWAP as exp[i*pi*b'b] with b = (a1 - a2)/sqrt(2).

    Agrees with the permutation form exactly on total-photon sectors that
    fit inside the cutoff; the boundary sectors are distorted because the
    truncated b'b is not the true number operator there.
    """
    if cutoff < 1:
        raise InvalidArgumentError("swap_operator_exponential needs cutoff >= 1")
    a1, a2 = _pair_annihilation(cutoff)
    b = (a1 - a2) / math.sqrt(2.0)
    mat = _unitary_from_hermitian(b.conj().T @ b, math.pi)
    return TruncatedOperator.dense(2, cutoff, mat)


def swap_quadrature_form(cutoff: int) -> TruncatedOperator:
    """SWAP as exp[(i*pi/4)((x1-x2)^2 + (p1-p2)^2 - 2)].

    The exponent equals pi*b'b up to truncation, but the quadrature
    squares reach one level further than b'b does, so the safe subspace
    loses an extra level relative to swap_operator_exponential.
    """
    if cutoff < 1:
        raise InvalidArgumentError("swap_quadrature_form needs cutoff >= 1")
    a1, a2 = _pair_annihilation(cutoff)
    x_rel = (a1 + a1.conj().T - a2 - a2.conj().T) / math.sqrt(2.0)
    p_rel = -1j * (a1 - a1.conj().T - a2 + a2.conj().T) / math.sqrt(2.0)
    h = x_rel @ x_rel + p_rel @ p_rel - 2.0 * np.eye(a1.shape[0])
    mat = _unitary_from_hermitian(h, math.pi / 4.0)
    return TruncatedOperator.dense(2, cutoff, mat)


def displaced_parity(alpha: complex, cutoff: int) -> TruncatedOperator:
    """D(alpha) Pi D(alpha)' on a single truncated mode.

    Tr[rho * Pi(alpha)] / pi is the Wigner function at the phase-space
    point (sqrt(2) Re alpha, sqrt(2) Im alpha). Displacements comparable
    to the cutoff scale push weight past the truncation and degrade this;
    a warning marks that regime.
    """
    if cutoff < 1:
        raise InvalidArgumentError("displaced_parity needs cutoff >= 1")
    alpha = complex(alpha)
    if abs(alpha) > 0.5 * math.sqrt(cutoff):
        warnings.warn(
            f"|alpha|={abs(alpha):.3f} is large for cutoff {cutoff}; "
            "displaced parity is only reliable for |alpha| <~ sqrt(cutoff)/2",
            TruncationWarning,
            stacklevel=2,
        )
    d = cutoff + 1
    a = annihilation_matrix(d)
    h = -1j * (alpha * a.conj().T - np.conj(alpha) * a)
    disp = _unitary_from_hermitian(h, 1.0)
    parity = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    mat = (disp * parity) @ disp.conj().T
    return TruncatedOperator.dense(1, cutoff, mat)


def multicopy_observable(
    m: int,
    cutoff: int,
    alpha_quadrature_order: int | None = None,
    max_side: int = DEFAULT_MAX_SIDE,
) -> TruncatedOperator:
    """The m-copy observable O_m with Tr[rho^(x)m O_m] = w_m.

    O_m = (2/pi^m) * integral of Pi(alpha)^(x)m over the alpha plane.
    Rotating alpha -> alpha e^{i theta} multiplies the entry [r, c] of
    Pi(alpha)^(x)m by e^{i(sum r - sum c) theta}, so the angular integral
    is 2 pi on the entries with sum r = sum c (the photon-number selection
    rule), which alone are built, one sector per total, and 0 elsewhere.
    With alpha = t/sqrt(2m) and s = |t|^2 the rest is the radial integral
    of e^{-s} times a polynomial in s of degree <= m*cutoff, taken on the
    real axis where the kernels are real. alpha_quadrature_order counts
    the radial Gauss-Laguerre nodes (quadrature.laggauss_cached, the rule
    of the polar moment path); m*cutoff//2 + 1 of them (the default) make
    the rule exact, and fewer draw a TruncationWarning. The vacuum comes
    out at w_m = 1/(m*pi^{m-1}), and for m=2 the whole matrix is SWAP/(2pi).
    """
    if m not in (2, 3):
        raise UnsupportedOperationError("multicopy_observable supports m in {2, 3}")
    if cutoff < 1:
        raise InvalidArgumentError("multicopy_observable needs cutoff >= 1")
    d = cutoff + 1
    side = d**m
    if side > max_side:
        raise SizeLimitError(
            f"m={m} copies at cutoff {cutoff} give side {side} > limit {max_side}"
        )
    exact_order = m * cutoff // 2 + 1
    order = alpha_quadrature_order
    if order is None:
        order = exact_order
    elif isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
        raise InvalidArgumentError(
            f"alpha order counts radial nodes and must be an int >= 1, got {order!r}"
        )
    elif order < exact_order:
        warnings.warn(
            f"alpha order {order} is below the exactness threshold {exact_order} "
            f"for m={m}, cutoff {cutoff}",
            TruncationWarning,
            stacklevel=2,
        )
    nodes, scaled_weights = laggauss_cached(order)
    weights = scaled_weights * np.exp(-nodes)
    # alpha = sqrt(s/(2m)) on the real axis; the kernel wants x = sqrt(2) Re alpha.
    # Pi's entries are the conjugated kernels, which are real there.
    kernels = fock_kernel_values(np.sqrt(nodes / m), np.zeros(order), d, include_envelope=False)
    pair_values = np.moveaxis(kernels.real, 0, -1).reshape(d * d, order)  # [r*d + c, k]
    # d^2 alpha = pi ds / (2m) after the angular integral; prefactor 2/pi^m.
    scale = 1.0 / (m * math.pi ** (m - 1))
    totals = np.indices((d,) * m).reshape(m, -1).sum(axis=0)
    sizes, index = np.bincount(totals), np.argsort(totals, kind="stable")
    op = TruncatedOperator(m, cutoff, index, sizes, np.empty((sizes**2).sum()))
    # fill its blocks in place: entry [r, c] is sum_k w_k prod_copies K_k[r_copy, c_copy]
    ends = np.cumsum(sizes**2)[:-1]
    for n, pairs, out in zip(sizes, np.split(op._pairs, ends, axis=1), np.split(op.values, ends)):
        products = np.take(pair_values, pairs[0], axis=0)
        for more in pairs[1:]:
            products *= np.take(pair_values, more, axis=0)
        block = ((products @ weights) * scale).reshape(n, n)
        out[:] = 0.5 * (block + block.T).ravel()
    return op


def multicopy_expectation(operator: TruncatedOperator, rhos) -> complex:
    """Tr[(rho_1 x ... x rho_n) O] over the stored entries, without forming the tensor product."""
    d, rhos = operator.dim, list(rhos)
    if any(isinstance(rho, FockState) and rho.modes != 1 for rho in rhos):
        raise InvalidArgumentError("each register holds a one-mode state")
    mats = [np.asarray(getattr(rho, "matrix", rho), dtype=complex) for rho in rhos]
    if [mat.shape for mat in mats] != [(d, d)] * operator.modes:
        raise InvalidArgumentError(
            f"operator couples {operator.modes} registers of dimension {d}, "
            f"got states of shapes {[mat.shape for mat in mats]}"
        )
    # Tr[(A x B) O] pairs O[row, col] with A[col_1, row_1] B[col_2, row_2].
    terms = operator.values
    for mat, pairs in zip(mats, operator._pairs):
        terms = terms * mat.T.ravel()[pairs]
    return complex(terms.sum())


def _register_permutations(dim_per_mode: int, copies: int):
    """Adjacent-swap and cyclic permutation arrays on (A,B) register pairs.

    Index layout is copy-major: copy i contributes axes (a_i, b_i). Each
    permutation is an int array P with P[r] = image of basis state r.
    """
    axes = (dim_per_mode,) * (2 * copies)
    grid = np.arange(dim_per_mode ** (2 * copies)).reshape(axes)

    def swap_register(reg: int, i: int, j: int) -> np.ndarray:
        return np.swapaxes(grid, 2 * i + reg, 2 * j + reg).ravel()

    def cyclic() -> np.ndarray:
        # copy i receives the contents of copy i+1 (wrapping), which is what
        # the forward chain of adjacent swaps composes into
        order = []
        for i in range(copies):
            src = (i - 1) % copies
            order.extend([2 * src, 2 * src + 1])
        return np.transpose(grid, axes=order).ravel()

    return swap_register, cyclic


def forward_backward_protocol(
    state: FockState, m: int = 3, max_side: int = DEFAULT_MAX_SIDE
) -> float:
    """Tr[rho^(x)m P_cyc] for a two-mode state, i.e. Tr[rho^m].

    Builds the cyclic permutation of m copies the way the measurement
    runs it: a forward chain of adjacent SWAPs on the first register of
    each copy and the matching chain on the second register, then checks
    that the composed permutation is exactly the m-cycle before taking
    the trace. Pure states give 1; the value is a purity diagnostic to
    report next to w_m, not a Wigner moment.
    """
    if not isinstance(state, FockState) or state.modes != 2:
        raise InvalidArgumentError("forward_backward_protocol needs a two-mode FockState")
    if m < 2:
        raise InvalidArgumentError("forward_backward_protocol needs m >= 2")
    dm = state.dim
    side = (dm * dm) ** m
    if side > max_side:
        raise SizeLimitError(
            f"{m} copies of a two-mode state at cutoff {dm - 1} give side "
            f"{side} > limit {max_side}"
        )
    swap_register, cyclic = _register_permutations(dm, m)

    composed = np.arange(side)
    for reg in (0, 1):
        for i in range(m - 1):
            composed = swap_register(reg, i, i + 1)[composed]
    target = cyclic()
    if not np.array_equal(composed, target):
        raise RuntimeError("adjacent-swap chain failed to compose into the cycle")

    # Tr[rho^(x)m P] = sum_r (rho^(x)m)[r, P(r)]; with P the cycle this
    # contracts copy i's column index into copy i+1's row index.
    rho = state.matrix
    letters = "abcdefghijkl"[:m]
    subs = [letters[i] + letters[(i - 1) % m] for i in range(m)]
    value = complex(np.einsum(",".join(subs) + "->", *([rho] * m), optimize=True))
    if abs(value.imag) > 1e-10:
        raise RuntimeError(f"cyclic trace came out non-real: {value}")
    return float(value.real)
