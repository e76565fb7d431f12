"""State catalog: truncated Fock-basis density matrices and Gaussian states.

Conventions used throughout the package: hbar = 1, x = (a + a^dag)/sqrt(2),
p = (a - a^dag)/(i sqrt(2)), so the vacuum covariance matrix is I/2. Phase
space points are ordered (x_1, ..., x_k, p_1, ..., p_k). Two-mode Fock
matrices are indexed by the flattened pair n_1 * (cutoff + 1) + n_2.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import Field, dataclass, field, fields

import numpy as np

from .errors import (
    CutoffTooSmallError,
    DegenerateCovarianceError,
    InvalidArgumentError,
    SizeLimitError,
    UnsupportedOperationError,
)

__all__ = [
    "FAMILIES",
    "Family",
    "Fock",
    "Noon",
    "Tmsv",
    "Spssv",
    "MixedFock01",
    "GaussianCustom",
    "FockCustom",
    "StateSpec",
    "FockState",
    "GaussianState",
    "annihilation_matrix",
    "coherent_state_matrix",
    "fock_state",
    "mixed_fock01",
    "noon_state",
    "param_type",
    "spec_label",
    "spec_modes",
    "spssv_min_cutoff",
    "spssv_state",
    "state_from_spec",
    "symplectic_form",
    "tmsv_gaussian",
    "tmsv_min_cutoff",
    "tmsv_state",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNCERTAINTY_TOL = 1e-10
TRUNCATION_TAIL = 1e-8

# Raw matrices above this side length skip the O(side^3) eigenvalue check;
# catalog constructors never get near it.
EIG_CHECK_MAX_SIDE = 2048

# Largest side of a density matrix assembled from a ket (4096: 268 MB of
# complex entries). tmsv_state(1.0) has side 1,156 and spssv_state(1.0)
# 1,681; tmsv_state(3.0) would need 3,452,164.
MAX_DENSE_SIDE = 4096


# ---------------------------------------------------------------------------
# state specifications (tagged union)


@dataclass(frozen=True)
class Fock:
    """Number state |n>."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise InvalidArgumentError(f"fock photon number must be >= 0, got {self.n}")


@dataclass(frozen=True)
class Noon:
    """Two-mode superposition (|N,0> + e^{i phi} |0,N>)/sqrt(2)."""

    N: int
    phi: float = math.pi

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise InvalidArgumentError(f"noon photon number must be >= 1, got {self.N}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise InvalidArgumentError(
                f"noon phase must lie in [0, 2*pi), got {self.phi}"
            )


@dataclass(frozen=True)
class Tmsv:
    """Two-mode squeezed vacuum with squeezing parameter r > 0."""

    r: float

    def __post_init__(self):
        if not (self.r > 0.0) or not math.isfinite(self.r):
            raise InvalidArgumentError(f"tmsv squeezing must be > 0, got {self.r}")


@dataclass(frozen=True)
class Spssv:
    """Single-photon-subtracted squeezed vacuum; parity selects the +/- branch."""

    r: float
    parity: int = 1

    def __post_init__(self):
        if not (self.r > 0.0) or not math.isfinite(self.r):
            raise InvalidArgumentError(f"spssv squeezing must be > 0, got {self.r}")
        if self.parity not in (0, 1):
            raise InvalidArgumentError(f"spssv parity must be 0 or 1, got {self.parity}")


@dataclass(frozen=True)
class MixedFock01:
    """lam |0><0| + (1 - lam) |1><1|."""

    lam: float

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise InvalidArgumentError(f"mixing weight must be in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class GaussianCustom:
    """User-supplied Gaussian state (mean vector and covariance matrix)."""

    mean: tuple
    covariance: tuple

    @staticmethod
    def from_arrays(mean, covariance) -> "GaussianCustom":
        mean = np.asarray(mean, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        return GaussianCustom(
            tuple(mean.tolist()), tuple(map(tuple, covariance.tolist()))
        )


@dataclass(frozen=True)
class FockCustom:
    """User-supplied truncated density matrix (flattened two-mode indexing)."""

    matrix: tuple = field(repr=False)
    modes: int = 1

    @staticmethod
    def from_matrix(matrix, modes: int = 1) -> "FockCustom":
        matrix = np.asarray(matrix, dtype=complex)
        return FockCustom(tuple(map(tuple, matrix.tolist())), modes)


StateSpec = Fock | Noon | Tmsv | Spssv | MixedFock01 | GaussianCustom | FockCustom


# ---------------------------------------------------------------------------
# containers


class FockState:
    """Density matrix on (cutoff + 1)^modes Fock levels.

    Validates hermiticity and unit trace on construction; positive
    semidefiniteness is checked by eigenvalues for raw input and assumed for
    matrices assembled internally from kets/convex mixtures (`structural`).
    """

    def __init__(self, matrix, modes: int = 1, *, structural_psd: bool = False):
        matrix = np.asarray(matrix, dtype=complex)
        if modes not in (1, 2):
            raise UnsupportedOperationError(
                f"Fock-basis states support 1 or 2 modes, got {modes}"
            )
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidArgumentError(f"density matrix must be square, got {matrix.shape}")
        side = matrix.shape[0]
        dim = round(side ** (1.0 / modes))
        if dim**modes != side:
            raise InvalidArgumentError(
                f"matrix side {side} is not a perfect {modes}-mode Fock dimension"
            )
        herm = np.max(np.abs(matrix - matrix.conj().T))
        if herm > HERMITICITY_TOL:
            raise InvalidArgumentError(f"matrix is not Hermitian (deviation {herm:.2e})")
        tr = np.trace(matrix)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidArgumentError(f"trace must be 1, got {tr}")
        if not structural_psd:
            if side > EIG_CHECK_MAX_SIDE:
                raise SizeLimitError(
                    f"eigenvalue check refused for side {side} > {EIG_CHECK_MAX_SIDE}; "
                    "assemble the state from kets/mixtures instead"
                )
            lo = np.linalg.eigvalsh(matrix)[0]
            if lo < -PSD_TOL:
                raise InvalidArgumentError(
                    f"matrix has negative eigenvalue {lo:.2e}"
                )
        self.matrix = matrix
        self.modes = modes
        self.cutoff = dim - 1

    @classmethod
    def from_ket(cls, ket, modes: int = 1) -> "FockState":
        ket = np.asarray(ket, dtype=complex).ravel()
        if ket.size > MAX_DENSE_SIDE:
            raise SizeLimitError(
                f"density matrix of side {ket.size} exceeds cap {MAX_DENSE_SIDE}"
            )
        nrm = np.linalg.norm(ket)
        if nrm == 0.0:
            raise InvalidArgumentError("ket has zero norm")
        ket = ket / nrm
        return cls(np.outer(ket, ket.conj()), modes, structural_psd=True)

    @classmethod
    def from_mixture(cls, weights, states: "list[FockState]") -> "FockState":
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0.0):
            raise InvalidArgumentError("mixture weights must be nonnegative")
        if not states or any(s.modes != states[0].modes for s in states):
            raise InvalidArgumentError("mixture needs states with matching modes")
        total = weights.sum()
        if total <= 0.0:
            raise InvalidArgumentError("mixture weights sum to zero")
        acc = sum((w / total) * s.matrix for w, s in zip(weights, states, strict=True))
        return cls(acc, states[0].modes, structural_psd=True)

    @property
    def dim(self) -> int:
        """Per-mode Fock dimension (cutoff + 1)."""
        return self.cutoff + 1

    def purity(self) -> float:
        return float(np.real(np.vdot(self.matrix, self.matrix)))


class GaussianState:
    """Gaussian state given by mean vector and covariance matrix.

    Coordinates are (x_1..x_k, p_1..p_k); the vacuum is mean 0, cov I/2.
    Rejects covariances that violate sigma + i Omega / 2 >= 0.
    """

    def __init__(self, mean, covariance):
        mean = np.asarray(mean, dtype=float).ravel()
        cov = np.asarray(covariance, dtype=float)
        if mean.size % 2 != 0 or mean.size == 0:
            raise InvalidArgumentError(f"mean must have even length, got {mean.size}")
        k = mean.size // 2
        if cov.shape != (2 * k, 2 * k):
            raise InvalidArgumentError(
                f"covariance shape {cov.shape} does not match {2 * k} coordinates"
            )
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise InvalidArgumentError("covariance must be symmetric")
        omega = symplectic_form(k)
        # Uncertainty relation: sigma + (i/2) Omega must be PSD (Hermitian).
        eig = np.linalg.eigvalsh(cov + 0.5j * omega)
        if eig[0] < -UNCERTAINTY_TOL:
            raise DegenerateCovarianceError(
                f"covariance violates the uncertainty bound (min eig {eig[0]:.2e})"
            )
        det = np.linalg.det(cov)
        if det <= 0.0:
            raise DegenerateCovarianceError(f"covariance is singular (det {det:.2e})")
        self.mean = mean
        self.covariance = cov
        self.modes = k

    def purity(self) -> float:
        return float(1.0 / (2.0**self.modes * math.sqrt(np.linalg.det(self.covariance))))


def symplectic_form(k: int) -> np.ndarray:
    """Omega = [[0, I], [-I, 0]] in the (x..., p...) ordering."""
    omega = np.zeros((2 * k, 2 * k))
    omega[:k, k:] = np.eye(k)
    omega[k:, :k] = -np.eye(k)
    return omega


# ---------------------------------------------------------------------------
# catalog constructors


def fock_state(n: int, cutoff: int | None = None) -> FockState:
    """|n><n| truncated at `cutoff` (default: exactly n)."""
    Fock(n)  # validates n
    if cutoff is None:
        cutoff = n
    if cutoff < n:
        raise CutoffTooSmallError(f"cutoff {cutoff} cannot hold |{n}>")
    ket = np.zeros(cutoff + 1, dtype=complex)
    ket[n] = 1.0
    return FockState.from_ket(ket, modes=1)


def noon_state(N: int, phi: float = math.pi, cutoff: int | None = None) -> FockState:
    """(|N,0> + e^{i phi}|0,N>)/sqrt(2) as a two-mode density matrix."""
    Noon(N, phi)
    if cutoff is None:
        cutoff = N
    if cutoff < N:
        raise CutoffTooSmallError(f"cutoff {cutoff} cannot hold {N} photons")
    d = cutoff + 1
    ket = np.zeros(d * d, dtype=complex)
    ket[N * d + 0] = 1.0 / math.sqrt(2.0)
    ket[0 * d + N] = np.exp(1j * phi) / math.sqrt(2.0)
    return FockState.from_ket(ket, modes=2)


def tmsv_min_cutoff(r: float) -> int:
    """Smallest per-mode cutoff keeping discarded weight <= TRUNCATION_TAIL.

    Photon-pair weights are (1 - lam^2) lam^{2n}, lam = tanh r, so the
    discarded probability above cutoff c is exactly lam^{2(c+1)}.
    """
    lam = math.tanh(r)
    if lam >= 1.0:  # tanh(r) rounds to 1
        raise CutoffTooSmallError(f"no finite cutoff reaches tail {TRUNCATION_TAIL:g} for r={r}")
    c = math.ceil(math.log(TRUNCATION_TAIL) / (2.0 * math.log(lam)) - 1.0)
    return max(1, c)


def tmsv_state(r: float, cutoff: int | None = None) -> FockState:
    """Two-mode squeezed vacuum, Fock representation sum lam^n |n,n>."""
    Tmsv(r)
    needed = tmsv_min_cutoff(r)
    if cutoff is None:
        cutoff = needed
    elif cutoff < needed:
        raise CutoffTooSmallError(
            f"cutoff {cutoff} discards more than {TRUNCATION_TAIL:g} "
            f"of the weights for r={r} (need >= {needed})"
        )
    lam = math.tanh(r)
    d = cutoff + 1
    ket = np.zeros(d * d, dtype=complex)
    for n in range(d):
        ket[n * d + n] = lam**n
    # from_ket renormalizes; the truncated state then has exact unit trace
    return FockState.from_ket(ket, modes=2)


def tmsv_gaussian(r: float) -> GaussianState:
    """Covariance form of the two-mode squeezed vacuum.

    x-block [[c, s], [s, c]] / 2 and p-block [[c, -s], [-s, c]] / 2 with
    c = cosh 2r, s = sinh 2r, i.e. <x1 x2> = +s/2 and <p1 p2> = -s/2.
    det sigma = 1/16 for every r.
    """
    Tmsv(r)
    c = math.cosh(2.0 * r)
    s = math.sinh(2.0 * r)
    cov = np.zeros((4, 4))
    cov[0, 0] = cov[1, 1] = cov[2, 2] = cov[3, 3] = c / 2.0
    cov[0, 1] = cov[1, 0] = s / 2.0
    cov[2, 3] = cov[3, 2] = -s / 2.0
    return GaussianState(np.zeros(4), cov)


def spssv_min_cutoff(r: float) -> int:
    """Smallest cutoff for the photon-subtracted state (weights ~ n lam^{2n})."""
    lam2 = math.tanh(r) ** 2
    if lam2 >= 1.0:  # tanh(r) rounds to 1
        raise CutoffTooSmallError(f"no finite cutoff reaches tail {TRUNCATION_TAIL:g} for r={r}")
    total = lam2 / (1.0 - lam2) ** 2
    c = 1
    while c < 100_000:
        # sum_{n > c} n q^n = q^{c+1} ((c+1)(1-q) + q) / (1-q)^2, q = lam2
        t = lam2 ** (c + 1) * ((c + 1) * (1.0 - lam2) + lam2) / (1.0 - lam2) ** 2
        if t <= TRUNCATION_TAIL * total:
            return c
        c += 1
    raise CutoffTooSmallError(f"no practical cutoff reaches tail {TRUNCATION_TAIL:g} for r={r}")


def spssv_state(r: float, parity: int = 1, cutoff: int | None = None) -> FockState:
    """Single-photon-subtracted two-mode squeezed vacuum.

    |xi> ~ sum_n lam^n sqrt(n) (|n-1, n> + (-1)^parity |n, n-1>), normalized
    explicitly after truncation. parity=1 is the antisymmetric branch.
    """
    Spssv(r, parity)
    needed = spssv_min_cutoff(r)
    if cutoff is None:
        cutoff = needed
    elif cutoff < needed:
        raise CutoffTooSmallError(
            f"cutoff {cutoff} discards more than {TRUNCATION_TAIL:g} "
            f"of the weights for r={r} (need >= {needed})"
        )
    lam = math.tanh(r)
    sign = -1.0 if parity == 1 else 1.0
    d = cutoff + 1
    ket = np.zeros(d * d, dtype=complex)
    for n in range(1, d):
        amp = lam**n * math.sqrt(n)
        ket[(n - 1) * d + n] += amp
        ket[n * d + (n - 1)] += sign * amp
    return FockState.from_ket(ket, modes=2)


def mixed_fock01(lam: float, cutoff: int | None = None) -> FockState:
    """lam |0><0| + (1 - lam) |1><1| truncated at `cutoff` (default 1)."""
    MixedFock01(lam)
    if cutoff is None:
        cutoff = 1
    if cutoff < 1:
        raise CutoffTooSmallError("mixed 0/1 state needs cutoff >= 1")
    return FockState.from_mixture(
        [lam, 1.0 - lam], [fock_state(0, cutoff), fock_state(1, cutoff)]
    )


# ---------------------------------------------------------------------------
# the catalog family table


@dataclass(frozen=True)
class Family:
    """A catalog state family: spec class, mode count, Fock-basis constructor."""

    spec: type
    modes: int
    build: Callable[..., FockState]  # (*spec fields, cutoff); cutoff None: default


# Every family dispatcher reads this table; its order is the CLI's --state order.
FAMILIES = {
    "fock": Family(Fock, 1, fock_state),
    "noon": Family(Noon, 2, noon_state),
    "tmsv": Family(Tmsv, 2, tmsv_state),
    "spssv": Family(Spssv, 2, spssv_state),
    "mixed01": Family(MixedFock01, 1, mixed_fock01),
}
_FAMILY_OF = {family.spec: name for name, family in FAMILIES.items()}


def _family_of(spec) -> str:
    """Name of a catalog spec's family; InvalidArgumentError for anything else."""
    try:
        return _FAMILY_OF[type(spec)]
    except KeyError:
        raise InvalidArgumentError(f"unknown state spec {spec!r}") from None


def param_type(f: Field) -> type:
    """int or float: the declared type of a catalog spec field."""
    # annotations are strings under `from __future__ import annotations`
    return int if f.type in (int, "int") else float


def spec_label(spec: StateSpec) -> str:
    """Short stable label used in reports and CSV rows.

    A catalog label is `family(field=value,...)` over the spec's fields, int
    fields printed with str and float fields with repr(float(value)).
    """
    if isinstance(spec, GaussianCustom):
        return f"gaussian(k={len(spec.mean) // 2})"
    if isinstance(spec, FockCustom):
        return f"fock_custom(k={spec.modes},side={len(spec.matrix)})"
    name = _family_of(spec)
    params = []
    for f in fields(spec):
        value = getattr(spec, f.name)
        text = str(value) if param_type(f) is int else repr(float(value))
        params.append(f"{f.name}={text}")
    return f"{name}({','.join(params)})"


def spec_modes(spec: StateSpec) -> int:
    if isinstance(spec, GaussianCustom):
        return len(spec.mean) // 2
    if isinstance(spec, FockCustom):
        return spec.modes
    return FAMILIES[_family_of(spec)].modes


def state_from_spec(spec: StateSpec, cutoff: int | None = None):
    """Materialize a spec as FockState or GaussianState.

    A FockCustom matrix is its own truncation: a cutoff other than its own
    is refused.
    """
    if cutoff is not None and not isinstance(cutoff, (int, np.integer)):
        raise InvalidArgumentError(f"cutoff must be an int or None, got {cutoff!r}")
    if isinstance(spec, GaussianCustom):
        return GaussianState(np.asarray(spec.mean), np.asarray(spec.covariance))
    if isinstance(spec, FockCustom):
        state = FockState(np.asarray(spec.matrix, dtype=complex), spec.modes)
        if cutoff is not None and cutoff != state.cutoff:
            raise InvalidArgumentError(
                f"custom matrix has cutoff {state.cutoff}, not {cutoff}"
            )
        return state
    build = FAMILIES[_family_of(spec)].build
    return build(*(getattr(spec, f.name) for f in fields(spec)), cutoff)


# ---------------------------------------------------------------------------
# small operator/state helpers


def annihilation_matrix(dim: int) -> np.ndarray:
    """Truncated annihilation operator, a[n-1, n] = sqrt(n)."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def coherent_state_matrix(alpha: complex, cutoff: int) -> FockState:
    """Projector onto the truncated (renormalized) coherent state |alpha>."""
    ket = np.zeros(cutoff + 1, dtype=complex)
    ket[0] = 1.0
    for n in range(1, cutoff + 1):
        ket[n] = ket[n - 1] * alpha / math.sqrt(n)
    return FockState.from_ket(ket, modes=1)
