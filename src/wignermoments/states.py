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
    check_int,
    check_positive,
    check_real,
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
    "param_type",
    "spec_label",
    "spec_modes",
    "spssv_min_cutoff",
    "state_from_spec",
    "symplectic_form",
    "tmsv_gaussian",
    "tmsv_min_cutoff",
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
# complex entries). Tmsv(1.0) has side 1,156 at its default cutoff and
# Spssv(1.0) 1,681; Tmsv(3.0) would need 3,452,164.
MAX_DENSE_SIDE = 4096


# ---------------------------------------------------------------------------
# state specifications (tagged union)


@dataclass(frozen=True)
class Fock:
    """Number state |n>."""

    n: int

    def __post_init__(self):
        check_int("fock photon number", self.n, 0)


@dataclass(frozen=True)
class Noon:
    """Two-mode superposition (|N,0> + e^{i phi} |0,N>)/sqrt(2)."""

    N: int
    phi: float = math.pi

    def __post_init__(self):
        check_int("noon photon number", self.N, 1)
        check_real("noon phase", self.phi, 0.0, 2.0 * math.pi, "in [0, 2*pi)", high_open=True)


@dataclass(frozen=True)
class Tmsv:
    """Two-mode squeezed vacuum with squeezing parameter r > 0."""

    r: float

    def __post_init__(self):
        check_positive("tmsv squeezing", self.r)


@dataclass(frozen=True)
class Spssv:
    """Single-photon-subtracted squeezed vacuum; parity selects the +/- branch."""

    r: float
    parity: int = 1

    def __post_init__(self):
        check_positive("spssv squeezing", self.r)
        check_int("spssv parity", self.parity, 0, 1)


@dataclass(frozen=True)
class MixedFock01:
    """lam |0><0| + (1 - lam) |1><1|."""

    lam: float

    def __post_init__(self):
        check_real("mixing weight", self.lam, 0.0, 1.0, "in [0, 1]")


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
        check_int("modes", modes)
        if modes not in (1, 2):
            raise UnsupportedOperationError(f"Fock-basis states support 1 or 2 modes, got {modes}")
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
        if nrm < 1e-150 and ket.any():
            # the squares of entries this small are subnormal or 0: rescale by
            # the largest first, part by part, as a complex quotient by a
            # subnormal overflows
            big = np.abs(ket).max()
            ket = ket.real / big + 1j * (ket.imag / big)
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
# the catalog family table


def _fock_build(spec: Fock, d: int) -> FockState:
    ket = np.zeros(d, dtype=complex)
    ket[spec.n] = 1.0
    return FockState.from_ket(ket, modes=1)


def _noon_build(spec: Noon, d: int) -> FockState:
    ket = np.zeros(d * d, dtype=complex)
    ket[spec.N * d + 0] = 1.0 / math.sqrt(2.0)
    ket[0 * d + spec.N] = np.exp(1j * spec.phi) / math.sqrt(2.0)
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


def _tmsv_build(spec: Tmsv, d: int) -> FockState:
    lam = math.tanh(spec.r)
    ket = np.zeros(d * d, dtype=complex)
    for n in range(d):
        ket[n * d + n] = lam**n
    # from_ket renormalizes; the truncated state then has exact unit trace
    return FockState.from_ket(ket, modes=2)


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


def _spssv_build(spec: Spssv, d: int) -> FockState:
    lam = math.tanh(spec.r)
    sign = -1.0 if spec.parity == 1 else 1.0
    ket = np.zeros(d * d, dtype=complex)
    for n in range(1, d):
        amp = lam**n * math.sqrt(n)
        ket[(n - 1) * d + n] += amp
        ket[n * d + (n - 1)] += sign * amp
    return FockState.from_ket(ket, modes=2)


def _mixed01_build(spec: MixedFock01, d: int) -> FockState:
    return FockState.from_mixture(
        [spec.lam, 1.0 - spec.lam], [_fock_build(Fock(0), d), _fock_build(Fock(1), d)]
    )


@dataclass(frozen=True)
class Family:
    """A catalog state family: spec class, mode count, the smallest cutoff
    that holds a spec's state, and its Fock-basis builder at dimension
    cutoff + 1."""

    spec: type
    modes: int
    min_cutoff: Callable[..., int]  # (spec)
    build: Callable[..., FockState]  # (spec, cutoff + 1)


# Every family dispatcher reads this table; its order is the CLI's --state order.
FAMILIES = {
    "fock": Family(Fock, 1, lambda s: s.n, _fock_build),
    "noon": Family(Noon, 2, lambda s: s.N, _noon_build),
    "tmsv": Family(Tmsv, 2, lambda s: tmsv_min_cutoff(s.r), _tmsv_build),
    "spssv": Family(Spssv, 2, lambda s: spssv_min_cutoff(s.r), _spssv_build),
    "mixed01": Family(MixedFock01, 1, lambda s: 1, _mixed01_build),
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

    A catalog spec is built at `cutoff`, by default its family's min_cutoff,
    the smallest that holds the state (for the squeezed pairs: within
    TRUNCATION_TAIL of the weight); a smaller cutoff is refused. A
    FockCustom matrix is its own truncation: a cutoff other than its own is
    refused, and a Gaussian takes none.
    """
    if cutoff is not None:
        check_int("cutoff", cutoff)
    if isinstance(spec, GaussianCustom):
        if cutoff is not None:
            raise InvalidArgumentError("Gaussian states take no cutoff")
        return GaussianState(np.asarray(spec.mean), np.asarray(spec.covariance))
    if isinstance(spec, FockCustom):
        state = FockState(np.asarray(spec.matrix, dtype=complex), spec.modes)
        if cutoff is not None and cutoff != state.cutoff:
            raise InvalidArgumentError(
                f"custom matrix has cutoff {state.cutoff}, not {cutoff}"
            )
        return state
    family = FAMILIES[_family_of(spec)]
    needed = family.min_cutoff(spec)
    if cutoff is None:
        cutoff = needed
    elif cutoff < needed:
        raise CutoffTooSmallError(f"{spec_label(spec)} needs cutoff >= {needed}, got {cutoff}")
    return family.build(spec, cutoff + 1)


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
    check_int("cutoff", cutoff, 0)
    ket = np.zeros(cutoff + 1, dtype=complex)
    ket[0] = 1.0
    for n in range(1, cutoff + 1):
        ket[n] = ket[n - 1] * alpha / math.sqrt(n)
    return FockState.from_ket(ket, modes=1)
