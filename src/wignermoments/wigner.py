"""Wigner function evaluators, marginals, and Weyl symbols.

Every evaluator is wrapped in a WignerField carrying its Gaussian decay
envelope and the per-mode polynomial degree of W * exp(+envelope), which
is what makes the Gauss-Hermite and polar moment rules exact. The catalog
closed forms were derived from the kets in the x = (a + a^dag)/sqrt(2)
convention with transform normalization 1/(2 pi)^k, so the vacuum is
W = (1/pi) e^{-x^2-p^2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SizeLimitError, UnsupportedOperationError
from .quadrature import (
    GaussianEnvelope,
    GridSpec,
    ModeGrid,
    PolarGrid,
    _cholesky,
    _node_tensor,
    _substitute,
    gauss_hermite_integral,
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
    "expectation_phase_space",
    "fock_kernel_values",
    "marginal_x",
    "marginal_p",
    "weyl_symbol",
    "wigner_analytic",
    "wigner_fock_synthesis",
    "wigner_gaussian",
    "wigner_grid",
]

REAL_TOL = 1e-10

# Chunk size for point batches in the Fock-synthesis evaluators; two-mode
# synthesis materializes (chunk, dim, dim) kernel blocks.
SYNTH_BLOCK_FLOATS = 8_000_000

# Cap on the per-radius sector arrays of one-mode synthesis on a PolarGrid:
# complex (radii, max(sectors, angles)) blocks, 16 bytes an entry.
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
    coordinates (x_i, p_i), the largest over the modes. separable marks a
    field whose evaluate also accepts its product grid and returns the
    block of values there: a ModeGrid, (n1, n2), for a two-mode field built
    from per-mode factors (NOON, Fock synthesis), whose envelope never
    couples the modes; a PolarGrid, (radii, angles), for a one-mode field
    built from angular sectors (Fock, the 0/1 mixture, Fock synthesis).
    """

    modes: int
    evaluate: callable
    envelope: GaussianEnvelope
    polynomial_degree: int
    label: str = ""
    separable: bool = False

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


def _require_real(values, what: str) -> np.ndarray:
    imag = np.max(np.abs(values.imag)) if np.iscomplexobj(values) else 0.0
    if imag > REAL_TOL:
        raise InvalidArgumentError(f"{what} produced imaginary residue {imag:.2e}")
    return np.ascontiguousarray(values.real) if np.iscomplexobj(values) else values


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
    shape = np.broadcast_shapes(np.shape(alpha), x.shape)
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


def _mode_two_memo(build):
    """build(x, p) for a ModeGrid's mode-2 node set, kept for the next call.

    The polar product rule passes the same read-only mode-2 arrays with
    every row block of a pass, so their factors are built once per pass.
    Writable arrays are never kept: their contents may change between calls.
    A miss drops the kept entry before building, so one pass's factors are
    released before the next pass builds its own.
    """
    kept = [None]

    def factors(x, p):
        entry, kept[0] = kept[0], None
        if entry is not None and entry[0] is x and entry[1] is p:
            kept[0] = entry
            return entry[2]
        del entry
        value = build(x, p)
        if not (x.flags.writeable or p.flags.writeable):
            kept[0] = (x, p, value)
        return value

    return factors


# ---------------------------------------------------------------------------
# catalog closed forms


def _radial_field(radial, degree: int, label: str) -> WignerField:
    """A one-mode field W(z) = radial(|z|^2) with the unit envelope.

    On a PolarGrid the profile is evaluated once per radius and repeated
    over the angles.
    """

    def evaluate(z):
        if isinstance(z, PolarGrid):
            return np.repeat(radial(z.r * z.r)[:, None], z.theta.size, axis=1)
        return radial(z[:, 0] ** 2 + z[:, 1] ** 2)

    return WignerField(
        modes=1,
        evaluate=evaluate,
        envelope=GaussianEnvelope(np.eye(2), np.zeros(2)),
        polynomial_degree=degree,
        label=label,
        separable=True,
    )


def _fock_field(spec: Fock) -> WignerField:
    def radial(u):
        *_, lag = _laguerre(0, 2.0 * u, spec.n + 1)
        return ((-1.0) ** spec.n / math.pi) * np.exp(-u) * lag

    return _radial_field(radial, 2 * spec.n, spec_label(spec))


def _noon_field(spec: Noon) -> WignerField:
    # rho = (|N0> + e^{i phi}|0N>)(h.c.)/2 expanded into kernel products:
    # diagonal parts are Fock x vacuum Wigner products, the cross term is
    # (2^N / pi^2 N!) e^{-u1-u2} Re[e^{-i phi} (x1-ip1)^N (x2+ip2)^N].
    # W is the sum over k of f1[k](x1, p1) f2[k](x2, p2), with the complex
    # cross term split into its real and imaginary products.
    N = spec.N
    diag_scale = (-1.0) ** N / (2.0 * math.pi**2)
    cross_phase = _coupling(N) ** 2 / math.pi**2 * np.exp(-1j * spec.phi)

    def factors(x, p, sign, phase):
        u = x * x + p * p
        gauss = np.exp(-u)
        *_, lag = _laguerre(0, 2.0 * u, N + 1)
        cross = phase * (x + sign * 1j * p) ** N * gauss
        return gauss, diag_scale * lag * gauss, cross

    def mode_two_factors(x, p):
        g2, l2, c2 = factors(x, p, 1.0, 1.0)
        return np.stack([g2, l2, c2.real, c2.imag])

    mode_two = _mode_two_memo(mode_two_factors)

    def evaluate(z):
        if isinstance(z, ModeGrid):
            g1, l1, c1 = factors(z.x1, z.p1, -1.0, cross_phase)
            f1 = np.stack([l1, g1, c1.real, -c1.imag], axis=1)
            f2 = mode_two(z.x2, z.p2)
            # rank 4: numpy's own loop, which leaves the BLAS pool idle
            return np.einsum("ak,kb->ab", f1, f2)
        g1, l1, c1 = factors(z[:, 0], z[:, 2], -1.0, cross_phase)
        g2, l2, c2 = factors(z[:, 1], z[:, 3], 1.0, 1.0)
        return l1 * g2 + g1 * l2 + (c1 * c2).real

    return WignerField(
        modes=2,
        evaluate=evaluate,
        envelope=GaussianEnvelope(np.eye(4), np.zeros(4)),
        polynomial_degree=2 * N,
        label=spec_label(spec),
        separable=True,
    )


def _squeezed_pair_envelope(r: float) -> GaussianEnvelope:
    # quadratic form of exp[2s(x1 x2 - p1 p2) - c(u1 + u2)] in
    # (x1, x2, p1, p2); eigenvalues c -+ s = e^{-+2r} > 0.
    c = math.cosh(2.0 * r)
    s = math.sinh(2.0 * r)
    form = np.zeros((4, 4))
    form[0, 0] = form[1, 1] = form[2, 2] = form[3, 3] = c
    form[0, 1] = form[1, 0] = -s
    form[2, 3] = form[3, 2] = s
    return GaussianEnvelope(form, np.zeros(4))


def _tmsv_field(spec: Tmsv) -> WignerField:
    c = math.cosh(2.0 * spec.r)
    s = math.sinh(2.0 * spec.r)

    def evaluate(z):
        x1, x2, p1, p2 = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
        expo = 2.0 * s * (x1 * x2 - p1 * p2) - c * (
            x1 * x1 + p1 * p1 + x2 * x2 + p2 * p2
        )
        return np.exp(expo) / math.pi**2

    return WignerField(
        modes=2,
        evaluate=evaluate,
        envelope=_squeezed_pair_envelope(spec.r),
        polynomial_degree=0,
        label=spec_label(spec),
    )


def _spssv_field(spec: Spssv) -> WignerField:
    c = math.cosh(2.0 * spec.r)
    s = math.sinh(2.0 * spec.r)
    # parity 1: difference-quadrature polynomial; parity 0: sum-quadrature.
    comb = -1.0 if spec.parity == 1 else 1.0
    poly_sign = s if spec.parity == 1 else -s

    def evaluate(z):
        x1, x2, p1, p2 = z[:, 0], z[:, 1], z[:, 2], z[:, 3]
        u = x1 + comb * x2
        v = p1 + comb * p2
        expo = 2.0 * s * (x1 * x2 - p1 * p2) - c * (
            x1 * x1 + p1 * p1 + x2 * x2 + p2 * p2
        )
        poly = c * (u * u + v * v) + poly_sign * (u * u - v * v) - 1.0
        return np.exp(expo) * poly / math.pi**2

    return WignerField(
        modes=2,
        evaluate=evaluate,
        envelope=_squeezed_pair_envelope(spec.r),
        polynomial_degree=2,
        label=spec_label(spec),
    )


def _mixed01_field(spec: MixedFock01) -> WignerField:
    a = 2.0 * spec.lam - 1.0
    b = 2.0 * (1.0 - spec.lam)

    def radial(u):
        return np.exp(-u) * (a + b * u) / math.pi

    return _radial_field(radial, 2, spec_label(spec))


# custom specs go to the Gaussian/synthesis evaluators: total over StateSpec
_CLOSED_FORMS = {
    Fock: _fock_field,
    Noon: _noon_field,
    Tmsv: _tmsv_field,
    Spssv: _spssv_field,
    MixedFock01: _mixed01_field,
    GaussianCustom: lambda spec: wigner_gaussian(state_from_spec(spec)),
    FockCustom: lambda spec: wigner_fock_synthesis(
        state_from_spec(spec), label=spec_label(spec)
    ),
}


def wigner_analytic(spec: StateSpec) -> WignerField:
    """Closed-form Wigner function for a state spec."""
    try:
        build = _CLOSED_FORMS[type(spec)]
    except KeyError:
        raise InvalidArgumentError(f"unknown state spec {spec!r}") from None
    return build(spec)


def wigner_gaussian(state: GaussianState) -> WignerField:
    """W = exp(-(z-mu)^T sigma^{-1} (z-mu)/2) / ((2 pi)^k sqrt(det sigma))."""
    inv_cov = np.linalg.inv(state.covariance)
    norm = 1.0 / (
        (2.0 * math.pi) ** state.modes * math.sqrt(np.linalg.det(state.covariance))
    )
    mean = state.mean

    def evaluate(z):
        v = z - mean
        return norm * np.exp(-0.5 * np.einsum("ni,ij,nj->n", v, inv_cov, v))

    return WignerField(
        modes=state.modes,
        evaluate=evaluate,
        envelope=GaussianEnvelope(inv_cov / 2.0, mean.copy()),
        polynomial_degree=0,
        label=f"gaussian(k={state.modes})",
    )


# ---------------------------------------------------------------------------
# Fock-basis synthesis


def fock_kernel_values(x, p, dim: int, include_envelope: bool = True) -> np.ndarray:
    """Cross-Wigner kernel matrices K[m, n](x, p) for m, n < dim.

    K[m, n] is the Wigner transform of |n><m| (so that sum rho[m, n] K[m, n]
    is the Wigner function of rho). For m >= n, with u = x^2 + p^2:

        K[m, n] = ((-1)^n / pi) sqrt(2^{m-n} n! / m!) (x - ip)^{m-n}
                  e^{-u} L_n^{(m-n)}(2u)

    and K[n, m] = conj(K[m, n]). With include_envelope=False the factor
    e^{-u} / pi is dropped (used where the Gaussian is folded into a
    quadrature weight). Returns shape (len(x), dim, dim), complex.
    """
    x = np.asarray(x, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()
    u = x * x + p * p
    two_u = 2.0 * u
    xi = x - 1j * p
    out = np.empty((x.size, dim, dim), dtype=complex)
    for off in range(dim):
        xipow = xi**off if off else np.ones_like(xi)
        coupling = _coupling(off)
        for n, lag in enumerate(_laguerre(off, two_u, dim - off)):
            if n > 0:
                coupling *= math.sqrt(n / (n + off))
            sign = -1.0 if n % 2 else 1.0
            vals = (sign * coupling) * xipow * lag
            out[:, n + off, n] = vals
            if off:
                out[:, n, n + off] = np.conj(vals)
    if include_envelope:
        out *= (np.exp(-u) / math.pi)[:, None, None]
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


def _sectors_on_angles(orders: np.ndarray, sectors: np.ndarray, n_theta: int) -> np.ndarray:
    """S_0 + 2 Re sum_{d>0} S_d e^{-2 pi i d j / N} for j < N, as one real DFT.

    numpy's hfft takes a half spectrum a_0..a_{N//2} and returns
    Re a_0 + 2 Re sum_{0<k<N/2} a_k e^{-2 pi i k j / N} (+ Re a_{N/2} (-1)^j
    for even N). e^{-i d theta_j} depends only on k = d mod N, so sector d
    adds to a_k, conjugated onto a_{N-k} past N/2, and twice over where hfft
    counts a term once (k = 0 or N/2 with d > 0).
    """
    d = orders.astype(int)
    k = d % n_theta
    mirrored = 2 * k > n_theta
    once = (d > 0) & ((k == 0) | (2 * k == n_theta))
    column = np.where(mirrored, n_theta - k, k)
    terms = np.where(mirrored, np.conj(sectors), sectors) * np.where(once, 2.0, 1.0)
    half = np.zeros((sectors.shape[0], n_theta // 2 + 1), dtype=complex)
    if np.all(np.diff(column) > 0):  # no two sectors share a column
        half[:, column] = terms
    else:
        np.add.at(half, (slice(None), column), terms)
    return np.fft.hfft(half, n_theta, axis=1)


def _synth_polar_one_mode(table, dim: int, grid: PolarGrid) -> np.ndarray:
    n_theta = grid.theta.size
    nbytes = 16 * grid.r.size * max(dim, n_theta)
    if nbytes > MAX_SECTOR_BYTES:
        raise SizeLimitError(
            f"polar synthesis needs {nbytes} bytes of sectors, cap {MAX_SECTOR_BYTES}"
        )
    sectors = _synth_sectors_one_mode(table, grid.r)
    return _sectors_on_angles(table[0][:, 0], sectors, n_theta)


def _synth_values_two_mode(rho4: np.ndarray, z, mode_two) -> np.ndarray:
    """Two-mode synthesis on flat points or on a ModeGrid, whose mode-2
    kernels come from mode_two(x2, p2)."""
    dim = rho4.shape[0]
    d2 = dim * dim
    # pair mode-1 row/col indices and mode-2 row/col indices:
    # W = sum rho4[m,a,n,b] K1[(m,n)] K2[(a,b)]
    rho_mat = np.ascontiguousarray(rho4.transpose(0, 2, 1, 3).reshape(d2, d2))
    if isinstance(z, ModeGrid):
        # per-mode kernels on per-mode nodes: the block is Re(K1 R K2^T)
        k1 = fock_kernel_values(z.x1, z.p1, dim).reshape(-1, d2)
        k2 = mode_two(z.x2, z.p2)
        return _require_real((k1 @ rho_mat) @ k2.T, "two-mode synthesis")
    n = z.shape[0]
    block = max(1, SYNTH_BLOCK_FLOATS // (2 * d2))
    out = np.empty(n)
    for start in range(0, n, block):
        sl = slice(start, min(start + block, n))
        k1 = fock_kernel_values(z[sl, 0], z[sl, 2], dim).reshape(-1, d2)
        k2 = fock_kernel_values(z[sl, 1], z[sl, 3], dim).reshape(-1, d2)
        vals = np.einsum("pi,ij,pj->p", k1, rho_mat, k2, optimize=True)
        out[sl] = _require_real(vals, "two-mode synthesis")
    return out


def wigner_fock_synthesis(state: FockState, label: str | None = None) -> WignerField:
    """Wigner function synthesized from a truncated density matrix."""
    if state.modes == 1:
        rho = state.matrix
        table = _sector_table(rho)

        def evaluate(z):
            if isinstance(z, PolarGrid):
                return _synth_polar_one_mode(table, state.dim, z)
            return _synth_values_one_mode(rho, z)

    else:
        d = state.dim
        rho4 = state.matrix.reshape(d, d, d, d)
        mode_two = _mode_two_memo(lambda x, p: fock_kernel_values(x, p, d).reshape(-1, d * d))

        def evaluate(z):
            return _synth_values_two_mode(rho4, z, mode_two)

    k = state.modes
    return WignerField(
        modes=k,
        evaluate=evaluate,
        envelope=GaussianEnvelope(np.eye(2 * k), np.zeros(2 * k)),
        polynomial_degree=2 * state.cutoff,
        label=label or f"fock_synthesis(k={k},cutoff={state.cutoff})",
        separable=True,
    )


# ---------------------------------------------------------------------------
# derived quantities


def dilate(field: WignerField, c: float) -> WignerField:
    """Dilation W'(z) = c^{2k} W(c z); moments scale as c^{2k(m-1)} w_m."""
    if not (c > 0.0) or not math.isfinite(c):
        raise InvalidArgumentError(f"dilation factor must be positive, got {c}")
    k = field.modes
    scale = float(c) ** (2 * k)

    def evaluate(z):
        return scale * field.evaluate(c * z)

    return WignerField(
        modes=k,
        evaluate=evaluate,
        envelope=GaussianEnvelope(
            field.envelope.form * c * c, field.envelope.center / c
        ),
        polynomial_degree=field.polynomial_degree,
        label=f"dilate({field.label},c={float(c)!r})",
        separable=field.separable,
    )


def _marginal(field: WignerField, mode: int, coord: int, values, order: int | None):
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
    if order is None:
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


def marginal_x(field: WignerField, mode: int, x, order: int | None = None):
    """Position marginal of one mode: all other coordinates integrated out."""
    return _marginal(field, mode, 0, x, order)


def marginal_p(field: WignerField, mode: int, p, order: int | None = None):
    """Momentum marginal of one mode."""
    return _marginal(field, mode, 1, p, order)


# ---------------------------------------------------------------------------
# Weyl symbols


def weyl_symbol(A, x, p, order: int | None = None):
    """Weyl symbol of a truncated operator at phase-space points.

    A~(x, p) = integral <x + y/2| A |x - y/2> e^{-i p y} dy, evaluated by a
    contour-shifted Gauss-Hermite rule that is exact for any matrix A:

        A~ = 2 e^{-x^2-p^2} sum_j w_j sum_{mn} A[m, n]
             h_m(x + t_j - ip) h_n(x - t_j + ip)

    with h_m the normalized Hermite polynomials (Fock wavefunctions without
    their Gaussian). Note the symbol is that of the truncated operator:
    projector-like A (identity, truncated quadratures) oscillate instead of
    converging pointwise, while sum rules against Wigner functions are exact.
    Returns a complex array (real for Hermitian A up to roundoff).
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"operator must be a square matrix, got {A.shape}")
    d = A.shape[0]
    if order is None:
        order = d + 6
    t, w = np.polynomial.hermite.hermgauss(order)
    x = np.asarray(x, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()
    zp = x[:, None] + t[None, :] - 1j * p[:, None]
    zm = 2.0 * x[:, None] - zp
    hp = np.empty((d, x.size, order), dtype=complex)
    hm = np.empty((d, x.size, order), dtype=complex)
    hp[0] = hm[0] = math.pi**-0.25
    if d > 1:
        hp[1] = math.sqrt(2.0) * zp * hp[0]
        hm[1] = math.sqrt(2.0) * zm * hm[0]
    for m in range(2, d):
        hp[m] = zp * math.sqrt(2.0 / m) * hp[m - 1] - math.sqrt((m - 1) / m) * hp[m - 2]
        hm[m] = zm * math.sqrt(2.0 / m) * hm[m - 1] - math.sqrt((m - 1) / m) * hm[m - 2]
    g = np.einsum("mn,mpj,npj->pj", A, hp, hm, optimize=True)
    return 2.0 * np.exp(-(x * x + p * p)) * (g @ w)


def _symbol_factor_real(A, x, p, order=None) -> np.ndarray:
    vals = weyl_symbol(A, x, p, order)
    return _require_real(vals, "weyl symbol of Hermitian operator")


def expectation_phase_space(field: WignerField, A, order: int | None = None) -> float:
    """Tr[rho A] as the phase-space average integral W(z) A~(z) dz.

    A is a single Hermitian matrix for k = 1, or a sequence of per-mode
    Hermitian factors for k = 2 (the field's envelope must then not couple
    the modes, which holds for NOON and synthesis-based fields). Both run on
    the Gauss-Hermite tensor rule, exact for polynomial-degree fields and
    truncated operators.
    """
    if field.modes == 1:
        A = np.asarray(A, dtype=complex)
        if np.max(np.abs(A - A.conj().T)) > 1e-10:
            raise InvalidArgumentError("expectation requires a Hermitian operator")
        d = A.shape[0]
        env = field.envelope.combine(GaussianEnvelope(np.eye(2), np.zeros(2)))
        if order is None:
            order = max(8, (field.polynomial_degree + 2 * (d - 1)) // 2 + 3)

        def integrand(z):
            return field.evaluate(z) * _symbol_factor_real(A, z[:, 0], z[:, 1])

        return gauss_hermite_integral(integrand, env, order)

    if field.modes == 2:
        try:
            a1, a2 = A
        except (TypeError, ValueError):
            raise InvalidArgumentError(
                "two-mode expectation takes a pair of per-mode operators"
            )
        a1 = np.asarray(a1, dtype=complex)
        a2 = np.asarray(a2, dtype=complex)
        for a in (a1, a2):
            if np.max(np.abs(a - a.conj().T)) > 1e-10:
                raise InvalidArgumentError("expectation requires Hermitian operators")
        env = field.envelope.combine(GaussianEnvelope(np.eye(4), np.zeros(4)))
        if not env.separates_modes():
            raise UnsupportedOperationError(
                "two-mode expectation needs an envelope that does not couple "
                "the modes; use a Fock-synthesis field"
            )
        if order is None:
            deg_a = 2 * (a1.shape[0] - 1) + 2 * (a2.shape[0] - 1)
            order = max(8, (field.polynomial_degree + deg_a) // 2 + 3)

        def integrand(z):
            s1 = _symbol_factor_real(a1, z[:, 0], z[:, 2])
            s2 = _symbol_factor_real(a2, z[:, 1], z[:, 3])
            return field.evaluate(z) * s1 * s2

        return gauss_hermite_integral(integrand, env, order)

    raise UnsupportedOperationError("expectation supports 1 or 2 modes")


# ---------------------------------------------------------------------------
# grid export


def wigner_grid(field: WignerField, grid: GridSpec):
    """Evaluate a single-mode field on a square grid for plotting/export.

    Returns (xs, ps, values) with values[i, j] = W(xs[i], ps[j]).
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
    return xs, ps, values
