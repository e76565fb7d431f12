"""Wigner function evaluators and marginals.

Every evaluator is wrapped in a WignerField carrying its Gaussian decay
envelope and the per-mode polynomial degree of W * exp(+envelope), which
is what makes the Gauss-Hermite and polar moment rules exact. The catalog
closed forms were derived from the kets in the x = (a + a^dag)/sqrt(2)
convention with transform normalization 1/(2 pi)^k, so the vacuum is
W = (1/pi) e^{-x^2-p^2}.

Fock-basis states are synthesized from the cross-Wigner kernels K[m, n]
(Cahill and Glauber, Phys. Rev. 177, 1882 (1969)). fock_kernel_values
builds one real table of their Re and Im parts; two-mode synthesis (NOON
included) is W = T1^T C T2, a table per mode contracted through one real
coupling matrix C, and hands the polar rule that factor form on each node
set (WignerField.factors). multicopy builds O_m from the same table on the
real axis. One-mode synthesis sums the same series into angular sectors
S_d(r) and hands the polar rule its block on radii times equispaced angles
(WignerField.polar), as the Fock and 0/1-mixture closed forms do: two real
products of the sectors with cos and sin tables of d theta. evaluate takes
flat points only.

The squeezed pairs and the Gaussians are defined once, as images of
one-mode cores under a map of determinant 1 (SYMPLECTIC_IMAGES); analyze
takes the moments of the cores alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCovarianceError,
    InvalidArgumentError,
    NonFiniteResultError,
    SizeLimitError,
    UnsupportedOperationError,
    check_positive,
)
from .quadrature import (
    GaussianEnvelope,
    GridSpec,
    _cholesky,
    _node_tensor,
    _substitute,
)
from .states import (
    Fock,
    FockCustom,
    FockState,
    GaussianCustom,
    GaussianState,
    MixedFock01,
    Noon,
    Spssv,
    StateSpec,
    Tmsv,
    spec_label,
    state_from_spec,
)

__all__ = [
    "WignerField",
    "dilate",
    "fock_kernel_values",
    "marginal_x",
    "marginal_p",
    "wigner_analytic",
    "wigner_fock_synthesis",
    "wigner_gaussian",
    "wigner_grid",
]

# Floats of kernel tables per point block of two-mode synthesis on flat
# points (1 MB): small enough that a block's tables and temporaries stay in
# cache, and that the allocator reuses their memory from block to block
# instead of taking fresh pages on every call: Noon(3) on 262,144 points
# takes about half the time of a single block.
SYNTH_BLOCK_FLOATS = 131_072

# Cap on the arrays of one-mode synthesis on the polar rule: the complex
# (radii, sectors) radials and the real (radii, angles) block, counted as
# 16 bytes an entry of (radii, max(sectors, angles)), which bounds both.
MAX_SECTOR_BYTES = 256_000_000

# Cap on the points of a wigner_grid export (2000 x 2000): each point costs a
# CSV line and several floats of evaluator temporaries.
MAX_GRID_POINTS = 4_000_000


@dataclass(frozen=True)
class WignerField:
    """A Wigner function with its decay envelope.

    evaluate maps an (n, 2 * modes) array of phase-space points (ordered
    x_1..x_k, p_1..p_k) to n real values. polynomial_degree is the degree
    of the polynomial W * exp(+(z - c)^T Q (z - c)) in one mode's
    coordinates (x_i, p_i), the largest over the modes. The polar rule
    takes a per-mode callable instead of evaluate. polar is set on a
    one-mode field built from angular sectors (Fock, the 0/1 mixture, Fock
    synthesis): polar(r, n_theta) returns the (len(r), n_theta) block of
    values at the radii r and the angles 2 pi j / n_theta. factors is set on
    a two-mode Fock-basis field (two-mode synthesis, NOON included), whose
    envelope never couples the modes: factors(x, p) returns (T1, C, T2),
    per-mode kernel tables on the one-mode node set (x, p) and their real
    coupling matrix, so that T1^T C T2 is the block of values on every
    pairing of that set with itself. T2 is T1 when both modes read the same
    kernel parts.
    """

    modes: int
    evaluate: callable
    envelope: GaussianEnvelope
    polynomial_degree: int
    label: str = ""
    polar: callable = None
    factors: callable = None

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        if single:
            points = points[None, :]
        if points.ndim != 2 or points.shape[1] != 2 * self.modes:
            raise InvalidArgumentError(
                f"points must have shape (n, {2 * self.modes}), got {points.shape}"
            )
        values = self.evaluate(points)
        return float(values[0]) if single else values


def _coupling(d: int) -> float:
    """B(0, d) = sqrt(2^d / d!), the leading coupling of kernel sector d.

    math.gamma overflows from d = 171; past it the log form from math.lgamma
    takes over. Below it the quotient stays, because the two forms differ in
    the last bits and the kernels and O_m are pinned bit for bit.
    """
    try:
        return math.sqrt(2.0**d / math.gamma(d + 1))
    except OverflowError:
        return math.exp(0.5 * (d * math.log(2.0) - math.lgamma(d + 1.0)))


def _laguerre(alpha: int, x: np.ndarray, count: int):
    """Yield L_0^(alpha)(x), ..., L_{count-1}^(alpha)(x) (DLMF 18.9.1):

        n L_n = ((2n - 1 + alpha) - x) L_{n-1} - (n - 1 + alpha) L_{n-2}

    in place on three buffers, so a yielded array is overwritten two steps on.
    alpha may be an array that broadcasts against x (one row per order).
    """
    shape = np.broadcast(alpha, x).shape
    prev, cur, tmp = np.zeros(shape), np.ones(shape), np.empty(shape)
    for n in range(count):
        if n:
            np.subtract(2.0 * n - 1.0 + alpha, x, out=tmp)
            tmp *= cur
            prev *= n - 1.0 + alpha
            tmp -= prev
            tmp /= n
            prev, cur, tmp = cur, tmp, prev
        yield cur


# ---------------------------------------------------------------------------
# catalog closed forms


def _radial_field(radial, degree: int, label: str) -> WignerField:
    """A one-mode field W(z) = radial(|z|^2) with the unit envelope.

    On the polar rule the profile is evaluated once per radius and repeated
    over the angles.
    """
    return WignerField(
        modes=1,
        evaluate=lambda z: radial(z[:, 0] ** 2 + z[:, 1] ** 2),
        envelope=GaussianEnvelope(np.eye(2), np.zeros(2)),
        polynomial_degree=degree,
        label=label,
        polar=lambda r, n_theta: np.repeat(radial(r * r)[:, None], n_theta, axis=1),
    )


def _fock_field(spec: Fock) -> WignerField:
    def radial(u):
        w = ((-1.0) ** spec.n / math.pi) * np.exp(-u)
        if spec.n:  # L_0 = 1: the vacuum runs no recurrence
            *_, lag = _laguerre(0, 2.0 * u, spec.n + 1)
            w *= lag
        return w

    return _radial_field(radial, 2 * spec.n, spec_label(spec))


def _mixed01_field(spec: MixedFock01) -> WignerField:
    a = 2.0 * spec.lam - 1.0
    b = 2.0 * (1.0 - spec.lam)

    def radial(u):
        return np.exp(-u) * (a + b * u) / math.pi

    return _radial_field(radial, 2, spec_label(spec))


def _fock_basis_field(spec: Noon | FockCustom) -> WignerField:
    return wigner_fock_synthesis(state_from_spec(spec), label=spec_label(spec))


# NOON and custom specs go to synthesis; with SYMPLECTIC_IMAGES total over StateSpec
_CLOSED_FORMS = {
    Fock: _fock_field,
    Noon: _fock_basis_field,
    MixedFock01: _mixed01_field,
    FockCustom: _fock_basis_field,
}


def wigner_analytic(spec: StateSpec) -> WignerField:
    """Closed-form Wigner function for a state spec."""
    image = SYMPLECTIC_IMAGES.get(type(spec))
    if image is not None:
        return _image_field(image(spec), spec_label(spec))
    try:
        build = _CLOSED_FORMS[type(spec)]
    except KeyError:
        raise InvalidArgumentError(f"unknown state spec {spec!r}") from None
    return build(spec)


def wigner_gaussian(state: GaussianState) -> WignerField:
    """W = exp(-(z-mu)^T sigma^{-1} (z-mu)/2) / ((2 pi)^k sqrt(det sigma)),
    as the image of k dilated vacua."""
    return _image_field(_gaussian_image(state), f"gaussian(k={state.modes})")


# ---------------------------------------------------------------------------
# symplectic images: the squeezed pairs and the Gaussians


def _pair_inverse(spec: Tmsv | Spssv):
    """(A^-1, d = 0) of a squeezed pair, from the formulas (inverting S(r)
    fails from r ~ 50): S(-r) for Tmsv, B(-+pi/4) S(-r) for Spssv (- at
    parity 0), where S(r) is [[ch, sh], [sh, ch]] on (x1, x2) and [[ch, -sh],
    [-sh, ch]] on (p1, p2), ch = cosh r, sh = sinh r, and the beam splitter
    B(t) the rotation [[cos t, -sin t], [sin t, cos t]] on both."""
    try:
        ch, sh = math.cosh(spec.r), math.sinh(spec.r)
    except OverflowError:
        raise DegenerateCovarianceError(f"squeezing r = {spec.r!r} overflows cosh r") from None
    a_inv = np.array([[ch, -sh, 0, 0], [-sh, ch, 0, 0], [0, 0, ch, sh], [0, 0, sh, ch]])
    if isinstance(spec, Spssv):
        t = math.pi / 4 if spec.parity else -math.pi / 4
        c, s = math.cos(t), math.sin(t)
        a_inv = np.kron(np.eye(2), [[c, -s], [s, c]]) @ a_inv
    return a_inv, np.zeros(4)


def _gaussian_image(state: GaussianState):
    """k vacua dilated (by c = (2 nu)^(-1/2)) to sigma = nu I, nu = det(sigma)^(1/2k),
    under A^-1 = sqrt(nu) L^-1 about the mean, where sigma = L L^T."""
    nu = float(np.linalg.det(state.covariance)) ** (1.0 / (2 * state.modes))
    core = dilate(wigner_analytic(Fock(0)), (2.0 * nu) ** -0.5)

    def inverse():
        chol = np.linalg.cholesky(state.covariance)
        return math.sqrt(nu) * np.linalg.inv(chol), state.mean.copy()

    return (core,) * state.modes, inverse


# Spec type -> spec -> (cores, inverse): each squeezed pair and Gaussian
# defined once, as the image W(z) = prod_i core_i(y_i), y = A^-1 (z - d),
# det A = 1, of one-mode cores. inverse() gives (A^-1, d), and only the
# field calls it. A core repeated as the same object is one field.
SYMPLECTIC_IMAGES = {
    Tmsv: lambda spec: ((wigner_analytic(Fock(0)),) * 2, lambda: _pair_inverse(spec)),
    Spssv: lambda spec: (
        (wigner_analytic(Fock(1)), wigner_analytic(Fock(0))), lambda: _pair_inverse(spec)
    ),
    GaussianCustom: lambda spec: _gaussian_image(state_from_spec(spec)),
}


def _image_field(image, label: str) -> WignerField:
    """W(z) = prod_i core_i(y_i), y = A^-1 (z - d), each core on its own (n, 2)
    block (y[i], y[k + i]). The cores are centred at 0 with forms Q_i, so the
    envelope is A^-T Q A^-1 about d; y is linear in z, so the degree is theirs."""
    cores, inverse = image
    a_inv, center = inverse()
    k = len(cores)
    reads = [a_inv[[i, k + i]].T.copy() for i in range(k)]
    form = np.zeros((2 * k, 2 * k))
    for i, core in enumerate(cores):
        form[np.ix_([i, k + i], [i, k + i])] = core.envelope.form

    def evaluate(z):
        z = z - center if center.any() else z
        return math.prod(core.evaluate(z @ read) for core, read in zip(cores, reads))

    return WignerField(
        modes=k,
        evaluate=evaluate,
        envelope=GaussianEnvelope(a_inv.T @ form @ a_inv, center),
        polynomial_degree=max(core.polynomial_degree for core in cores),
        label=label,
    )


# ---------------------------------------------------------------------------
# Fock-basis synthesis


def fock_kernel_values(x, p, parts) -> np.ndarray:
    """Table of cross-Wigner kernel parts at the points (x, p).

    K[m, n] is the Wigner transform of |n><m| (so that sum rho[m, n] K[m, n]
    is the Wigner function of rho). For m >= n, with u = x^2 + p^2:

        K[m, n] = ((-1)^n / pi) sqrt(2^{m-n} n! / m!) (x - ip)^{m-n}
                  e^{-u} L_n^{(m-n)}(2u)

    and K[n, m] = conj(K[m, n]). parts lists triples (m, n, part): part 0
    asks for Re K[m, n] (m >= n), part 1 for Im K[m, n] (m > n; it is 0 at
    m = n). Returns the real (len(parts), len(x)) table, a row per part,
    each formed as ((+-B Re/Im (x - ip)^{m-n}) L) (e^{-u} / pi). One
    Laguerre recurrence serves every offset m - n that needs an n > 0, a
    row per offset.
    """
    parts = np.asarray(parts, dtype=np.intp).reshape(-1, 3).tolist()
    levels = {}  # n -> [(table row, offset d, part)]
    couplings = {}  # d -> [B(0, d), ..., B(n, d)], each product taken in order
    for i, (m, n, part) in enumerate(parts):
        if not (0 <= n <= m - part and part in (0, 1)):
            raise InvalidArgumentError(f"no kernel part (m, n, part) = {(m, n, part)}")
        chain = couplings.setdefault(m - n, [_coupling(m - n)])
        while len(chain) <= n:
            chain.append(chain[-1] * math.sqrt(len(chain) / (len(chain) + m - n)))
        levels.setdefault(n, []).append((i, m - n, part))
    x = np.asarray(x, dtype=float).reshape(-1)
    p = np.asarray(p, dtype=float).reshape(-1)
    u = x * x + p * p
    xi = x - 1j * p
    powers = {d: xi**d for d in couplings if d}
    recurring = [d for d, chain in couplings.items() if len(chain) > 1]
    lag_row = {d: r for r, d in enumerate(recurring)}
    lags = _laguerre(np.array(recurring)[:, None], 2.0 * u, max(levels, default=0) + 1)
    out = np.empty((len(parts), x.size))
    for n, lag in enumerate(lags):
        for i, d, part in levels.get(n, ()):
            scale = -couplings[d][n] if n % 2 else couplings[d][n]
            row = out[i]
            if d:
                np.multiply(powers[d].imag if part else powers[d].real, scale, out=row)
                if n:
                    row *= lag[lag_row[d]]
            elif n:  # xi^0 = 1
                np.multiply(lag[lag_row[d]], scale, out=row)
            else:
                row.fill(scale)
    out *= np.exp(-u) / math.pi
    return out


def _synth_values_one_mode(rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Streaming sum rho[m, n] K[m, n] without materializing kernels."""
    x = z[:, 0]
    p = z[:, 1]
    u = x * x + p * p
    two_u = 2.0 * u
    xi = x - 1j * p
    dim = rho.shape[0]
    acc = np.zeros(x.size)
    xipow = np.ones(x.size, dtype=complex)
    for off in range(dim):
        if off:
            xipow = xipow * xi
        # the recurrence stops at the sector's last nonzero entry
        nonzero = np.flatnonzero(np.diagonal(rho, -off))
        if not nonzero.size:
            continue
        coupling = _coupling(off)
        for n, lag in enumerate(_laguerre(off, two_u, nonzero[-1] + 1)):
            if n > 0:
                coupling *= math.sqrt(n / (n + off))
            coeff = rho[n + off, n]
            if coeff == 0.0:
                continue
            sign = -1.0 if n % 2 else 1.0
            if off == 0:
                acc += (sign * coupling * coeff.real) * lag
            else:
                # rho[m,n] K[m,n] + rho[n,m] K[n,m] = 2 Re(rho[m,n] xi^off) * real part
                acc += (2.0 * sign * coupling) * (coeff * xipow).real * lag
    return acc * np.exp(-u) / math.pi


def _sector_table(rho: np.ndarray):
    """The angular sectors of a one-mode rho that the polar evaluator sums.

    Returns the sector indices d whose diagonal rho[n + d, n] has a nonzero
    entry, as an (A, 1) float column; their series coefficients
    (-1)^n B(n, d) / B(0, d) rho[n + d, n], with B(n, d) = sqrt(2^d n! / m!)
    and m = n + d, split into real and imaginary (A, steps) parts that are
    zero past the matrix edge and end at the last nonzero column; and
    log B(0, d) as a column.
    """
    dim = rho.shape[0]
    index = np.arange(dim)
    offsets = index[:, None] - index[None, :]
    active = np.unique(offsets[(rho != 0) & (offsets >= 0)])
    d = active[:, None]
    n = np.arange(dim - (active[0] if active.size else dim))[None, :]
    rows = n + d
    entries = np.where(rows < dim, rho[np.minimum(rows, dim - 1), n], 0.0)
    step = np.maximum(n, 1)
    ratio = np.cumprod(np.where(n > 0, np.sqrt(step / (step + d)), 1.0), axis=1)
    coeff = np.where(n % 2, -ratio, ratio) * entries
    # the recurrence stops at the last nonzero coefficient (n + 1 steps for |n><n|)
    used = np.flatnonzero(np.any(coeff != 0.0, axis=0))
    coeff = coeff[:, : used[-1] + 1 if used.size else 0]
    log_b0 = [0.5 * (k * math.log(2.0) - math.lgamma(k + 1.0)) for k in active.tolist()]
    return d.astype(float), coeff.real.copy(), coeff.imag.copy(), np.array(log_b0)[:, None]


def _synth_sectors_one_mode(table, r: np.ndarray) -> np.ndarray:
    """Sector radials S[:, a] of the table's sectors d_a, where
    W = S_0 + 2 Re sum_{d>0} S_d(r) e^{-i d theta}.

    With u = r^2, the table of _sector_table, and m = n + d:

        S_d(r) = r^d e^{-u} / pi sum_n (-1)^n B(n, d) rho[m, n] L_n^(d)(2u)

    One recurrence runs over the table's sectors at once, a row per sector.
    The prefactor r^d e^{-u} B(0, d) is taken as one exponential, so none of
    its factors over- or underflows on its own at large radii or cutoffs.
    """
    orders, coeff_re, coeff_im, log_b0 = table
    u = r * r
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = orders * np.log(r)  # log r^d, -inf at r = 0
    if orders.size and orders[0, 0] == 0.0:
        expo[0] = 0.0
    expo += log_b0 - u
    acc_re = np.zeros(expo.shape)
    acc_im = np.zeros(expo.shape) if np.any(coeff_im) else None
    term = np.empty(expo.shape)
    for n, lag in enumerate(_laguerre(orders, 2.0 * u, coeff_re.shape[1])):
        acc_re += np.multiply(lag, coeff_re[:, n, None], out=term)
        if acc_im is not None:
            acc_im += np.multiply(lag, coeff_im[:, n, None], out=term)
    acc = acc_re if acc_im is None else acc_re + 1j * acc_im
    return (acc * (np.exp(expo) / math.pi)).T


def _synth_polar_one_mode(table, dim: int, r: np.ndarray, n_theta: int) -> np.ndarray:
    """W = sum_d c_d (Re S_d cos d theta + Im S_d sin d theta), c_0 = 1, c_d = 2, at
    theta_j = 2 pi j / n_theta: two real products of the sectors with phase tables."""
    nbytes = 16 * r.size * max(dim, n_theta)
    if nbytes > MAX_SECTOR_BYTES:
        raise SizeLimitError(
            f"polar synthesis needs {nbytes} bytes of sectors, cap {MAX_SECTOR_BYTES}"
        )
    sectors = _synth_sectors_one_mode(table, r)
    orders = table[0]
    # d theta_j reduced to 2 pi ((d j) mod n_theta) / n_theta in integers
    theta = (2.0 * math.pi / n_theta) * ((orders.astype(int) * np.arange(n_theta)) % n_theta)
    weight = np.where(orders > 0, 2.0, 1.0)
    block = sectors.real @ (weight * np.cos(theta))
    if np.iscomplexobj(sectors):  # Im S_d = 0 for every d of a real rho
        block += sectors.imag @ (weight * np.sin(theta))
    return block


def _mode_parts(m: np.ndarray, n: np.ndarray, dim: int):
    """The kernel parts that one mode's level pairs (m, n) read.

    Returns the (m, n, part) triples of fock_kernel_values, numbered over the
    distinct pairs in ascending m * dim + n with Re before Im, and per pair
    its Re K[max, min] part, its Im part (-1 on the diagonal) and
    s = sign(m - n): K[m, n] = Re + i s Im, since K[n, m] = conj(K[m, n]).
    """
    q = m * dim + n
    re, im = np.zeros(dim * dim, dtype=np.intp), np.full(dim * dim, -1)
    index = {}
    for pair in sorted(set(q.tolist())):
        a, b = divmod(pair, dim)
        re[pair] = index.setdefault((max(a, b), min(a, b), 0), len(index))
        if a != b:
            im[pair] = index.setdefault((max(a, b), min(a, b), 1), len(index))
    return np.array(list(index)), re[q], im[q], np.sign(m - n)


def _two_mode_coupling(rho: np.ndarray, dim: int):
    """rho as a real coupling C of per-mode kernel tables, W = T1^T C T2.

    W = sum rho[(m1, m2), (n1, n2)] K1[m1, n1] K2[m2, n2] over the nonzero
    entries v of rho. With K_i[m_i, n_i] = A_i + i s_i B_i (_mode_parts) and
    W real, each adds Re v (A1 A2 - s1 s2 B1 B2) - Im v (s1 B1 A2 + s2 A1 B2)
    to C. Returns (parts of mode 1, C, parts of mode 2).
    """
    rows, cols = np.nonzero(rho)
    v = rho[rows, cols]
    (m1, m2), (n1, n2) = np.divmod(rows, dim), np.divmod(cols, dim)
    parts1, a1, b1, s1 = _mode_parts(m1, n1, dim)
    parts2, a2, b2, s2 = _mode_parts(m2, n2, dim)
    # the four terms' cells and weights; a diagonal's s = 0 drops its Im index -1
    cells = np.concatenate([a1, b1, b1, a1]) * len(parts2) + np.concatenate([a2, b2, a2, b2])
    weights = np.concatenate([v.real, -s1 * s2 * v.real, -s1 * v.imag, -s2 * v.imag])
    keep = weights != 0.0
    size = len(parts1) * len(parts2)
    coupling = np.bincount(cells[keep], weights[keep], minlength=size)
    return parts1, coupling.reshape(len(parts1), len(parts2)), parts2


def _synth_flat_two_mode(parts1, coupling, parts2, z: np.ndarray) -> np.ndarray:
    """T1^T C T2 point by point on flat points, in blocks of points."""
    n = z.shape[0]
    block = max(1, SYNTH_BLOCK_FLOATS // (2 * len(parts1) + len(parts2)))
    out = np.empty(n)
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        t1 = fock_kernel_values(z[sl, 0], z[sl, 2], parts1)
        t2 = fock_kernel_values(z[sl, 1], z[sl, 3], parts2)
        out[sl] = np.sum(t1 * (coupling @ t2), axis=0)
    return out


def wigner_fock_synthesis(state: FockState, label: str | None = None) -> WignerField:
    """Wigner function synthesized from a truncated density matrix."""
    polar = factors = None
    if state.modes == 1:
        rho = state.matrix
        table = _sector_table(rho)

        def evaluate(z):
            return _synth_values_one_mode(rho, z)

        def polar(r, n_theta):
            return _synth_polar_one_mode(table, state.dim, r, n_theta)

    else:
        parts1, coupling, parts2 = _two_mode_coupling(state.matrix, state.dim)
        same_parts = np.array_equal(parts1, parts2)

        def evaluate(z):
            return _synth_flat_two_mode(parts1, coupling, parts2, z)

        def factors(x, p):
            t1 = fock_kernel_values(x, p, parts1)
            return t1, coupling, t1 if same_parts else fock_kernel_values(x, p, parts2)

    k = state.modes
    return WignerField(
        modes=k,
        evaluate=evaluate,
        envelope=GaussianEnvelope(np.eye(2 * k), np.zeros(2 * k)),
        polynomial_degree=2 * state.cutoff,
        label=label or f"fock_synthesis(k={k},cutoff={state.cutoff})",
        polar=polar,
        factors=factors,
    )


# ---------------------------------------------------------------------------
# derived quantities


def dilate(field: WignerField, c: float) -> WignerField:
    """Dilation W'(z) = c^{2k} W(c z); moments scale as c^{2k(m-1)} w_m.

    A polar block dilates to c^2 times the base's block at the radii c r,
    and a factor form T1^T C T2 to the base's tables at the scaled nodes,
    with c^{2k} folded into C.
    """
    check_positive("dilation factor", c)
    k = field.modes
    scale = float(c) ** (2 * k)

    def evaluate(z):
        return scale * field.evaluate(c * z)

    polar = factors = None
    if field.polar is not None:

        def polar(r, n_theta):
            return scale * field.polar(c * r, n_theta)

    if field.factors is not None:

        def factors(x, p):
            t1, coupling, t2 = field.factors(c * x, c * p)
            return t1, scale * coupling, t2

    return WignerField(
        modes=k,
        evaluate=evaluate,
        envelope=GaussianEnvelope(
            field.envelope.form * c * c, field.envelope.center / c
        ),
        polynomial_degree=field.polynomial_degree,
        label=f"dilate({field.label},c={float(c)!r})",
        polar=polar,
        factors=factors,
    )


def _marginal(field: WignerField, mode: int, coord: int, values):
    """Marginal of one mode's x (coord 0) or p (coord 1)."""
    if not (0 <= mode < field.modes):
        raise InvalidArgumentError(f"mode {mode} out of range for k={field.modes}")
    scalar = np.ndim(values) == 0
    axis = coord * field.modes + mode
    dims = 2 * field.modes
    rest = [i for i in range(dims) if i != axis]
    form = field.envelope.form
    center = field.envelope.center
    q_rr = form[np.ix_(rest, rest)]
    q_rf = form[rest, axis]
    order = max(8, field.polynomial_degree // 2 + 4)
    values = np.atleast_1d(np.asarray(values, dtype=float))
    # The reduced form q_rr is the same for every section; only the envelope
    # center slides with the fixed coordinate (completing the square in that
    # coordinate). One factorization serves all sections, so the sections
    # can be evaluated in a few large batches instead of point by point.
    chol = _cholesky(q_rr)
    jac = 1.0 / float(np.prod(np.diag(chol)))
    tmesh, wmesh = _node_tensor(order, len(rest))
    offsets = _substitute(chol, tmesh)
    slope = -np.linalg.solve(q_rr, q_rf)
    out = np.empty(values.size)
    batch = max(1, 500_000 // tmesh.shape[0])
    for start in range(0, values.size, batch):
        vals = values[start : start + batch]
        centers = center[rest][None, :] + slope[None, :] * (
            vals - center[axis]
        )[:, None]
        z = np.empty((vals.size, tmesh.shape[0], dims))
        z[:, :, rest] = centers[:, None, :] + offsets[None, :, :]
        z[:, :, axis] = vals[:, None]
        sections = field.evaluate(z.reshape(-1, dims)).reshape(vals.size, -1)
        out[start : start + vals.size] = jac * (sections @ wmesh)
    return float(out[0]) if scalar else out


def marginal_x(field: WignerField, mode: int, x):
    """Position marginal of one mode: all other coordinates integrated out."""
    return _marginal(field, mode, 0, x)


def marginal_p(field: WignerField, mode: int, p):
    """Momentum marginal of one mode."""
    return _marginal(field, mode, 1, p)


# ---------------------------------------------------------------------------
# grid export


def wigner_grid(field: WignerField, grid: GridSpec):
    """Evaluate a single-mode field on a square grid for plotting/export.

    Returns (xs, ps, values) with values[i, j] = W(xs[i], ps[j]); a value
    that overflows to NaN or infinity raises NonFiniteResultError.
    """
    if field.modes != 1:
        raise UnsupportedOperationError("grid export supports single-mode fields")
    n = grid.points_per_axis
    if n * n > MAX_GRID_POINTS:
        raise SizeLimitError(f"grid of {n}x{n} points exceeds cap {MAX_GRID_POINTS}")
    xs = np.linspace(-grid.half_width, grid.half_width, n)
    ps = xs.copy()
    gx, gp = np.meshgrid(xs, ps, indexing="ij")
    values = field(np.stack([gx.ravel(), gp.ravel()], axis=1)).reshape(n, n)
    if not np.isfinite(values).all():
        raise NonFiniteResultError(f"{field.label}: W overflows at half-width {grid.half_width}")
    return xs, ps, values
