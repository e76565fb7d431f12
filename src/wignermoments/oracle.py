"""Independent cross-checks for the moment engine.

Two deliberately separate routes:

- riemann_moment: a plain midpoint rule on a box, no Gauss-Hermite machinery,
  no envelope transforms. Slow but structurally unrelated to the main path.
- exact closed forms in rational arithmetic (fractions.Fraction) for states
  whose integrands reduce to int_0^inf e^{-s u} P(u) du with polynomial P:
  Fock states, the 0/1 mixture (radially symmetric, single mode), and the
  two-mode N-photon superposition (after an exact angular reduction).

The closed forms carry no floating-point error until the final conversion,
so they serve as frozen expected values for the quadrature path.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError, SizeLimitError, TruncationWarning, check_int
from .quadrature import GridSpec, uniform_grid_integral
from .states import Fock, FockState, MixedFock01, StateSpec
from .wigner import WignerField

__all__ = [
    "DEFAULT_GRIDS",
    "noon_closed_form_moment",
    "radial_closed_form_moment",
    "riemann_moment",
    "trace_power",
]

# Default boxes: generous for the unit-Gaussian envelopes of the catalog
# (single-mode tails ~ e^{-49}); the two-mode box is budget-bound, see the
# tail warning below for when it starts to matter.
DEFAULT_GRIDS = {1: GridSpec(7.0, 160), 2: GridSpec(6.0, 64)}
MAX_TWO_MODE_POINTS = 200
TAIL_WARN_RATIO = 1e-9


def riemann_moment(field: WignerField, m: int, grid: GridSpec | None = None) -> float:
    """Midpoint-rule moment integral of W^m on [-L, L]^{2k}."""
    check_int("moment order", m, 1)
    k = field.modes
    if grid is None:
        try:
            grid = DEFAULT_GRIDS[k]
        except KeyError:
            raise InvalidArgumentError(f"no default grid for k={k}")
    if k >= 2 and grid.points_per_axis > MAX_TWO_MODE_POINTS:
        raise SizeLimitError(
            f"{grid.points_per_axis} points per axis in {2 * k} dimensions "
            f"exceeds the limit of {MAX_TWO_MODE_POINTS}"
        )
    _warn_if_box_tight(field, m, grid)

    def integrand(z):
        return field.evaluate(z) ** m

    return uniform_grid_integral(integrand, 2 * k, grid.half_width, grid.points_per_axis)


def _warn_if_box_tight(field: WignerField, m: int, grid: GridSpec) -> None:
    # Envelope decay of W^m along the softest direction at the box corner,
    # relative to the peak. Polynomial factors are ignored: this is a
    # diagnostic, not a bound.
    lam_min = float(np.linalg.eigvalsh(field.envelope.form)[0])
    corner = grid.half_width - float(np.max(np.abs(field.envelope.center)))
    ratio = math.exp(-m * lam_min * max(corner, 0.0) ** 2)
    if ratio > TAIL_WARN_RATIO:
        warnings.warn(
            f"box half-width {grid.half_width} leaves envelope tail ~{ratio:.1e} "
            "of peak; consider a wider grid",
            TruncationWarning,
            stacklevel=3,
        )


def trace_power(state: FockState, m: int) -> float:
    """Tr[rho^m] via eigenvalues (rho is validated Hermitian)."""
    check_int("power", m, 1)
    eig = np.linalg.eigvalsh(state.matrix)
    return float(np.sum(eig**m))


# ---------------------------------------------------------------------------
# exact radial closed forms (single mode)
#
# For W = (1/pi) e^{-u} g(u) with u = x^2 + p^2 and polynomial g,
#   w_m = integral W^m dx dp = pi^{1-m} int_0^inf e^{-m u} g(u)^m du,
# and int_0^inf u^j e^{-m u} du = j! / m^{j+1}, all in exact rationals.


def _laguerre_2u_coeffs(n: int) -> list[Fraction]:
    """Coefficients of L_n(2u) in powers of u: sum_j (-2)^j C(n,j)/j! u^j."""
    return [
        Fraction((-2) ** j * math.comb(n, j), math.factorial(j)) for j in range(n + 1)
    ]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_pow(a: list[Fraction], m: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(m):
        out = _poly_mul(out, a)
    return out


def _exp_weight_integral(coeffs: list[Fraction], s: int) -> Fraction:
    """int_0^inf e^{-s u} sum_j coeffs[j] u^j du = sum_j coeffs[j] j!/s^{j+1}."""
    return sum(
        (c * math.factorial(j)) / Fraction(s ** (j + 1)) for j, c in enumerate(coeffs)
    )


# g(u) in W = (1/pi) e^{-u} g(u). Fraction(float) is exact, so the mixture's
# moment is the true moment of the state built from the float weight.
_RADIAL_PROFILES = {
    Fock: lambda s: [-c if s.n % 2 else c for c in _laguerre_2u_coeffs(s.n)],
    MixedFock01: lambda s: [2 * Fraction(s.lam) - 1, 2 * (1 - Fraction(s.lam))],
}


def radial_closed_form_moment(spec: StateSpec, m: int) -> float:
    """Exact w_m for radially symmetric single-mode catalog states.

    Supports Fock(n) for any n, m and MixedFock01(lam). Exact modulo the
    final float conversion (one rounding).
    """
    check_int("moment order", m, 1)
    profile = _RADIAL_PROFILES.get(type(spec))
    if profile is None:
        raise InvalidArgumentError(
            f"no radial closed form for {spec!r}; supported: Fock, MixedFock01"
        )
    integral = _exp_weight_integral(_poly_pow(profile(spec), m), m)
    return float(integral) / math.pi ** (m - 1)


# ---------------------------------------------------------------------------
# exact N-photon two-mode superposition moments
#
# For the (|N,0> + e^{i pi}|0,N>)/sqrt(2) state the integrand of w_m is a
# polynomial in u_i = x_i^2 + p_i^2 and in the phases of (x_i -+ i p_i)^N
# times e^{-m(u1+u2)}. Expanding the m-th power and integrating the angles
# kills every term with uncompensated phase winding; the survivors are
# products of radial integrals:
#   J_f = int_0^inf e^{-s u} f(u) du
# with f built from L_N(2u) and u^N. Weights: s = 2 for w2, s = 3 for w3.


def noon_closed_form_moment(N: int, m: int) -> float:
    """Exact w_m (m = 2 or 3) for the phase-pi N-photon superposition.

    w2 = (1/(4 pi^2 N!^2)) [N!^2 (J_{L^2} + 2 J_L^2) + 2 4^N J_P^2]
    w3 = ((-1)^N/(8 pi^4)) [(2/3) I_{L^3} + 6 I_{L^2} I_L
         + (12 4^N / N!^2) I_P I_{PL}]

    where J_* use weight e^{-2u} and I_* use e^{-3u}; L = L_N(2u), P = u^N.
    Derived by the angular reduction above; N = 1 reproduces 1/(81 pi^4)
    for w3 and every N gives w2 = 1/(4 pi^2) (purity of a pure state).
    """
    check_int("noon photon number", N, 1)
    lag = _laguerre_2u_coeffs(N)
    u_pow_n = [Fraction(0)] * N + [Fraction(1)]
    fact = Fraction(math.factorial(N))
    if m == 2:
        j_l = _exp_weight_integral(lag, 2)
        j_l2 = _exp_weight_integral(_poly_mul(lag, lag), 2)
        j_p = _exp_weight_integral(u_pow_n, 2)  # = N!/2^{N+1}
        total = fact**2 * (j_l2 + 2 * j_l**2) + 2 * Fraction(4**N) * j_p**2
        return float(total / (4 * fact**2)) / math.pi**2
    if m == 3:
        i_l = _exp_weight_integral(lag, 3)
        i_l2 = _exp_weight_integral(_poly_mul(lag, lag), 3)
        i_l3 = _exp_weight_integral(_poly_mul(_poly_mul(lag, lag), lag), 3)
        i_p = _exp_weight_integral(u_pow_n, 3)  # = N!/3^{N+1}
        i_pl = _exp_weight_integral(_poly_mul(u_pow_n, lag), 3)
        total = (
            Fraction(2, 3) * i_l3
            + 6 * i_l2 * i_l
            + Fraction(12 * 4**N) / fact**2 * i_p * i_pl
        )
        sign = -1 if N % 2 else 1
        return float(sign * total) / (8 * math.pi**4)
    raise InvalidArgumentError(f"closed form implemented for m in (2, 3), got {m}")
