"""Multi-copy measurement operators in truncated Fock space.

The second and third moments of a Wigner function are expectation values
of joint observables on two or three copies of the state. This module
builds those observables explicitly: the mode SWAP operator (permutation,
exponential, and quadrature forms), displaced parity, the integrated
parity products O_m with Tr[rho^(x)m O_m] = w_m, and the cyclic register
permutation behind the three-copy protocol.

Every operator is a TruncatedOperator: the compressed-sparse-row form of
its realignment, whose rows are register 1's level pairs (r_1, c_1) and
whose columns are the other registers' level pairs. A trace against
rho_1 x rho_2 x ... is then x R y with x = rho_1 and y = rho_2 x ...,
each flattened over its level pairs: one gather, one segmented sum and a
dot product, without forming the tensor product. In O_m the photon-number
rule keeps, in each row of offset r_1 - c_1 = delta, only the columns
whose offsets sum to -delta, so O_m is 2*cutoff + 1 dense blocks, one
per offset, each built by one GEMM over the radial nodes from the real
kernel table of wigner.fock_kernel_values, the one the two-mode Wigner
synthesis reads.

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

import numpy as np

from .errors import (
    InvalidArgumentError,
    SizeLimitError,
    TruncationWarning,
    UnsupportedOperationError,
    check_int,
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

MAX_SIDE = 4096  # of an m-copy operator: O_3 up to cutoff 15, (cutoff + 1)^3 = 16^3
DUMP_CHUNK = 1 << 16  # entries formatted at a time by TruncatedOperator.dump


@dataclass(frozen=True)
class TruncatedOperator:
    """An operator on `modes` registers, each truncated at `cutoff`, stored as
    its realignment in compressed-sparse-row form.

    The realignment R[p, q] = O[(r_1, r_rest), (c_1, c_rest)] has one row per
    level pair p = c_1*dim + r_1 of register 1, which numbers the entry
    rho_1[c_1, r_1] that O's entry meets in Tr[(rho_1 x ...) O], and one
    column per level pairs of the other registers, q = (...(p_2*dim^2 + p_3)
    *dim^2 ...) with p_i = c_i*dim + r_i (a single column q = 0 on one
    register). Stored row i is R's row rows[i]; its entries run from
    values[row_starts[i]] to the next row's start (the last to the end), at
    the columns in `cols`. Entries not stored are 0.
    """

    modes: int
    cutoff: int
    rows: np.ndarray
    row_starts: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows, starts, cols, nnz = self.rows, self.row_starts, self.cols, self.values.size
        valid = rows.shape == starts.shape == (rows.size,) and cols.shape == (nnz,)
        if valid and rows.size:
            # every stored row holds at least one entry, the first from values[0]
            valid = starts[0] == 0 and starts[-1] < nnz and np.all(np.diff(starts) > 0)
            valid = valid and rows.min() >= 0 and rows.max() < self.dim**2
        elif valid:
            valid = nnz == 0
        if valid and nnz:
            valid = cols.min() >= 0 and cols.max() < self.dim ** (2 * self.modes - 2)
        if not valid:
            raise InvalidArgumentError(
                f"{rows.size} rows with {starts.size} starts, {cols.size} columns and {nnz} "
                f"values do not lay out a realignment of {self.modes} registers at cutoff "
                f"{self.cutoff}"
            )

    @classmethod
    def dense(cls, modes: int, cutoff: int, matrix) -> "TruncatedOperator":
        """The operator whose entries are the (side, side) `matrix`: every row and column."""
        dim, matrix = cutoff + 1, np.asarray(matrix)
        if matrix.size != dim ** (2 * modes):
            raise InvalidArgumentError(
                f"{modes} registers at cutoff {cutoff} need {dim ** (2 * modes)} entries, "
                f"got {matrix.size}"
            )
        # (r_1..r_m, c_1..c_m) -> (c_1, r_1, c_2, r_2, ...)
        axes = [a for i in range(modes) for a in (modes + i, i)]
        realigned = np.transpose(matrix.reshape((dim,) * (2 * modes)), axes)
        n_rows, n_cols = dim * dim, dim ** (2 * modes - 2)
        return cls(
            modes,
            cutoff,
            np.arange(n_rows),
            n_cols * np.arange(n_rows),
            np.tile(np.arange(n_cols), n_rows),
            np.ravel(realigned),
        )

    @property
    def side(self) -> int:
        return self.dim**self.modes

    @property
    def dim(self) -> int:
        """Per-register dimension cutoff+1."""
        return self.cutoff + 1

    def _positions(self):
        """Row and column of each stored entry in the (side, side) matrix."""
        row_1, col_1, _, _ = _pair_tables(self.dim, 1)
        row_rest, col_rest, _, _ = _pair_tables(self.dim, self.modes - 1)
        p = np.repeat(self.rows, np.diff(self.row_starts, append=self.values.size))
        lead = self.dim ** (self.modes - 1)
        return row_1[p] * lead + row_rest[self.cols], col_1[p] * lead + col_rest[self.cols]

    @property
    def matrix(self) -> np.ndarray:
        """The dense (side, side) matrix, side^2 entries scattered anew on each access."""
        out = np.zeros((self.side, self.side), dtype=np.result_type(float, self.values))
        out[self._positions()] = self.values
        return out

    def dump(self, path) -> None:
        """Write side, cutoff and the nonzero entries, row-major, as row,col,re,im CSV."""
        row, col = self._positions()
        order = np.argsort(row * self.side + col)
        order = order[self.values[order] != 0]
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# side={self.side}\n# cutoff={self.cutoff}\nrow,col,re,im\n")
            # in chunks, so that the Python strings stay a bounded size
            for start in range(0, order.size, DUMP_CHUNK):
                chunk = order[start : start + DUMP_CHUNK]
                values = self.values[chunk]
                columns = [row[chunk].tolist(), col[chunk].tolist()]
                columns += [map(repr, part.tolist()) for part in (values.real, values.imag)]
                fh.writelines(map("{},{},{},{}\n".format, *columns))


def _pair_tables(dim: int, registers: int) -> np.ndarray:
    """Per level-pair index q of `registers` registers, numbered as the
    columns of TruncatedOperator: its row and column basis states (base dim,
    first register most significant), its photon-number offset
    sum_i (r_i - c_i), and the index of its swap (every r_i and c_i
    exchanged). Shape (4, dim^(2 registers))."""
    c, r = np.divmod(np.arange(dim * dim), dim)
    one = np.stack([r, c, r - c, r * dim + c])
    place = np.array([dim, dim, 1, dim * dim])[:, None, None]
    tables = np.zeros((4, 1), dtype=np.intp)
    for _ in range(registers):
        tables = (tables[:, :, None] * place + one[:, None, :]).reshape(4, -1)
    return tables


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
    check_int("swap_operator cutoff", cutoff, 1)
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
    check_int("swap_operator_exponential cutoff", cutoff, 1)
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
    check_int("swap_quadrature_form cutoff", cutoff, 1)
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
    check_int("displaced_parity cutoff", cutoff, 1)
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


def multicopy_observable(m: int, cutoff: int) -> TruncatedOperator:
    """The m-copy observable O_m with Tr[rho^(x)m O_m] = w_m.

    O_m = (2/pi^m) * integral of Pi(alpha)^(x)m over the alpha plane.
    Rotating alpha -> alpha e^{i theta} multiplies the entry [r, c] of
    Pi(alpha)^(x)m by e^{i(sum r - sum c) theta}, so the angular integral
    is 2 pi on the entries with sum r = sum c (the photon-number selection
    rule), which alone are built, one block per offset r_1 - c_1 of
    register 1, and 0 elsewhere; the blocks of negative offset are those of
    positive offset under swapped rows and columns, so O_m is exactly
    symmetric.
    With alpha = t/sqrt(2m) and s = |t|^2 the rest is the radial integral
    of e^{-s} times a polynomial in s of degree <= m*cutoff, taken on the
    real axis, where the kernels are real: the Re parts of
    wigner.fock_kernel_values, whose envelopes e^{-s/m}/pi multiply to
    e^{-s}/pi^m, on m*cutoff//2 + 1 radial Gauss-Laguerre nodes
    (quadrature.laggauss_cached, the rule of the polar moment path), the
    fewest that make the rule exact. The vacuum comes out at
    w_m = 1/(m*pi^{m-1}), and for m=2 the whole matrix is SWAP/(2pi).
    """
    check_int("multicopy_observable m", m)
    if m not in (2, 3):
        raise UnsupportedOperationError("multicopy_observable supports m in {2, 3}")
    check_int("multicopy_observable cutoff", cutoff, 1)
    d = cutoff + 1
    side = d**m
    if side > MAX_SIDE:
        raise SizeLimitError(
            f"m={m} copies at cutoff {cutoff} give side {side} > limit {MAX_SIDE}"
        )
    order = m * cutoff // 2 + 1
    nodes, scaled_weights = laggauss_cached(order)
    # alpha = sqrt(s/(2m)) on the real axis; the kernel wants x = sqrt(2) Re alpha.
    # Pi's entries are the conjugated kernels, real there, so pair (r, c) and
    # its swap (c, r) read the same table row Re K[max, min].
    row, col, offset, swap = _pair_tables(d, 1)
    lower = np.flatnonzero(offset >= 0)
    parts = np.stack([row[lower], col[lower], np.zeros_like(lower)], axis=1)
    table = fock_kernel_values(np.sqrt(nodes / m), np.zeros(order), parts)
    pair_values = table[np.searchsorted(lower, np.where(offset >= 0, np.arange(d * d), swap))]
    # d^2 alpha = pi ds / (2m) after the angular integral; prefactor 2/pi^m,
    # of which the kernels' envelopes carry 1/pi^m.
    lead = pair_values * (scaled_weights * (math.pi / m))
    _, _, rest_offset, rest_swap = _pair_tables(d, m - 1)
    # R[p, q] = sum_k w_k K_k[p] prod_{i>=2} K_k[q_i] is in the rule when the
    # offsets of p and q cancel: one GEMM per offset delta >= 0 of p
    groups = [
        (np.flatnonzero(offset == delta), np.flatnonzero(rest_offset == -delta))
        for delta in range(d)
    ]
    sizes = [p.size * q.size for p, q in groups]
    values = np.empty(2 * sum(sizes) - sizes[0])
    cols = np.empty(values.size, dtype=np.intp)
    rows, counts, start = [], [], 0
    for delta, (p, q) in enumerate(groups):
        rest = pair_values[q % (d * d)]
        for i in range(1, m - 1):
            rest *= pair_values[q // (d * d) ** i % (d * d)]
        block = values[start : start + p.size * q.size].reshape(p.size, q.size)
        np.dot(lead[p], rest.T, out=block)
        if delta:
            # O is symmetric: R[swap p, swap q] = R[p, q] is the block of offset -delta
            values[start + block.size : start + 2 * block.size] = block.ravel()
            labels = [(p, q), (swap[p], rest_swap[q])]
        else:
            # rows of offset 0 are their own swaps, so the symmetry acts within each
            block[:] = 0.5 * (block + block[:, np.searchsorted(q, rest_swap[q])])
            labels = [(p, q)]
        for p, q in labels:
            cols[start : start + block.size].reshape(block.shape)[:] = q
            rows.append(p)
            counts.append(np.full(p.size, q.size))
            start += block.size
    counts = np.concatenate(counts)
    return TruncatedOperator(
        m, cutoff, np.concatenate(rows), np.cumsum(counts) - counts, cols, values
    )


def multicopy_expectation(operator: TruncatedOperator, rhos) -> complex:
    """Tr[(rho_1 x ... x rho_n) O] over the stored entries, without forming the tensor product.

    Real states (all imaginary parts zero) contract in real arithmetic.
    """
    d, rhos = operator.dim, list(rhos)
    if any(isinstance(rho, FockState) and rho.modes != 1 for rho in rhos):
        raise InvalidArgumentError("each register holds a one-mode state")
    mats = [np.asarray(getattr(rho, "matrix", rho)) for rho in rhos]
    if [mat.shape for mat in mats] != [(d, d)] * operator.modes:
        raise InvalidArgumentError(
            f"operator couples {operator.modes} registers of dimension {d}, "
            f"got states of shapes {[mat.shape for mat in mats]}"
        )
    vectors = [mat.ravel() for mat in mats]
    if not any(v.dtype.kind == "c" and np.count_nonzero(v.imag) for v in vectors):
        vectors = [v.real for v in vectors]
    return complex(_contract(operator, vectors))


def _contract(operator: TruncatedOperator, vectors):
    """sum_{p,q} R[p, q] x[p] y[q], with x the first register's flattened rho
    and y the Kronecker product of the others' (a single 1 on one register)."""
    y = vectors[1] if len(vectors) > 1 else np.ones(1)
    for v in vectors[2:]:
        y = np.multiply.outer(y, v).ravel()
    sums = np.add.reduceat(operator.values * y[operator.cols], operator.row_starts)
    return np.dot(vectors[0][operator.rows], sums)


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


def forward_backward_protocol(state: FockState, m: int = 3) -> float:
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
    check_int("forward_backward_protocol m", m, 2)
    dm = state.dim
    side = (dm * dm) ** m
    if side > MAX_SIDE:
        raise SizeLimitError(
            f"{m} copies of a two-mode state at cutoff {dm - 1} give side "
            f"{side} > limit {MAX_SIDE}"
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
