"""Wigner-function moments w_m = integral W^m and the negativity criterion.

Any state with a nonnegative Wigner function satisfies w_2^2 <= w_3, so
delta = w_2^2 - w_3 > 0 certifies negativity. The converse direction does
not hold (some negative-W states still have delta <= 0), hence the verdicts
are NegativityCertified / Inconclusive, never "positive".

analyze integrates on the rule that is exact for the field. Fields
built from per-mode Fock-basis factors (Fock, the 0/1 mixture, NOON, one-
and two-mode Fock synthesis, and their dilations) take the polar
Gauss-Laguerre rule in each mode; every other field folds its Gaussian
envelope (times m) into a Gauss-Hermite tensor weight. moment() alone
takes an explicit QuadratureSpec, the tensor cross-check of the polar
rule and of the cores. The independent cross-checks live in oracle: a
midpoint rule on a box and the rational closed forms.

w_m is invariant under an affine map W(z) -> W(A^-1 (z - d)), det A = 1
(Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)). So analyze, with no
cutoff, takes the squeezed pairs and Gaussians through the one-mode cores
of their image (wigner.SYMPLECTIC_IMAGES) on the polar rule, and never
builds the map; moment() on the image field is the cross-check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidArgumentError,
    NonFiniteResultError,
    UnsupportedOperationError,
    check_int,
)
from .quadrature import (
    QuadratureSpec,
    _power,
    gauss_hermite_integral,
    polar_power_integrals,
)
from .states import (
    FAMILIES,
    FockCustom,
    GaussianCustom,
    GaussianState,
    StateSpec,
    param_type,
    spec_label,
    state_from_spec,
)
from .wigner import (
    SYMPLECTIC_IMAGES,
    WignerField,
    wigner_analytic,
    wigner_fock_synthesis,
    wigner_gaussian,
)

__all__ = [
    "CERTIFIED",
    "INCONCLUSIVE",
    "MomentReport",
    "analyze",
    "field_for",
    "criterion",
    "default_quadrature",
    "holder_chain_check",
    "moment",
    "moment_gaussian_closed_form",
    "read_report",
    "sweep",
]

CERTIFIED = "NegativityCertified"
INCONCLUSIVE = "Inconclusive"
MARGIN_FLOOR = 1e-9


def exactness_order(field: WignerField, m: int) -> int:
    """Per-axis Gauss-Hermite order that integrates W^m exactly."""
    return max(8, (m * field.polynomial_degree) // 2 + 2)


def polar_order(field: WignerField, m: int) -> int:
    """Radial Gauss-Laguerre nodes that integrate W^m exactly on the polar rule."""
    return (m * field.polynomial_degree) // 4 + 1


def _per_mode(field: WignerField):
    """The callable the polar rule takes: polar in one mode, factors in two."""
    return field.polar if field.modes == 1 else field.factors


def _takes_polar(field: WignerField) -> bool:
    """A one-mode field with a polar block, or a two-mode field in factor
    form, with the polar rule's envelope."""
    return _per_mode(field) is not None and field.envelope.polar_scale() is not None


def default_quadrature(field: WignerField, m: int) -> QuadratureSpec:
    """The exact rule for W^m: polar for fields built from per-mode Fock-basis
    factors (one or two modes), else tensor."""
    if _takes_polar(field):
        return QuadratureSpec(scheme="gauss_laguerre_polar", order=polar_order(field, m))
    return QuadratureSpec(order=exactness_order(field, m))


def _integrals(field: WignerField, powers, quad: QuadratureSpec) -> list:
    """w_m for each m of powers on quad. The tensor rule takes one pass per
    m; the polar rule evaluates a one-mode field once for all of them, and
    takes a two-mode field's factor form once per m."""
    if quad.scheme == "gauss_hermite_tensor":
        return [
            gauss_hermite_integral(
                lambda z, _m=m: _power(field.evaluate(z), _m),
                field.envelope.scaled(m),
                quad.order,
            )
            for m in powers
        ]
    f = _per_mode(field)
    if f is None:
        raise UnsupportedOperationError(
            "gauss_laguerre_polar supports one- and two-mode Fock-basis fields"
        )
    return polar_power_integrals(f, field.envelope, quad.order, powers)


def moment(field: WignerField, m: int, quad: QuadratureSpec | None = None) -> float:
    """w_m = integral of W^m over phase space."""
    check_int("moment order", m, 1)
    if quad is None:
        quad = default_quadrature(field, m)
    return _integrals(field, (m,), quad)[0]


def moment_gaussian_closed_form(state: GaussianState, m: int) -> float:
    """w_m = ((2 pi)^k sqrt(det sigma))^{1-m} / m^k for Gaussian states.

    Always gives w_2^2 < w_3 (4^{-k} < 3^{-k}); Gaussian states are never
    certified, as they must not be.
    """
    check_int("moment order", m, 1)
    k = state.modes
    det = float(np.linalg.det(state.covariance))
    norm = (2.0 * math.pi) ** k * math.sqrt(det)
    return norm ** (1 - m) / float(m) ** k


def criterion(w2: float, w3: float, margin: float = MARGIN_FLOOR) -> str:
    """Negativity verdict: certified only when w2^2 - w3 > margin (strict)."""
    if not (margin >= 0.0):
        raise InvalidArgumentError(f"margin must be >= 0, got {margin}")
    return CERTIFIED if w2 * w2 - w3 > margin else INCONCLUSIVE


# ---------------------------------------------------------------------------
# reports


@dataclass
class MomentReport:
    """Everything the detector concluded about one state."""

    state: str
    modes: int
    cutoff: int | None
    quadrature: QuadratureSpec
    moments: dict
    delta: float
    verdict: str
    est_error: float

    def to_json(self) -> str:
        payload = {
            "state": self.state,
            "k": self.modes,
            "cutoff": self.cutoff,
            "quadrature": {
                "scheme": self.quadrature.scheme,
                "order": self.quadrature.order,
            },
            "w": {str(m): self.moments[m] for m in sorted(self.moments)},
            "delta": self.delta,
            "verdict": self.verdict,
            "est_error": self.est_error,
        }
        return json.dumps(payload, indent=2)


REPORT_KEYS = {"state", "k", "cutoff", "quadrature", "w", "delta", "verdict", "est_error"}


def _typed(key: str, value, kinds):
    if isinstance(value, bool) or not isinstance(value, kinds):  # a bool is no number here
        raise InvalidArgumentError(f"report {key} has a value of the wrong type: {value!r}")
    return value


def read_report(text: str) -> MomentReport:
    """Parse a report written by MomentReport.to_json; rejects unknown keys
    and any value of another type or range than to_json writes."""
    try:
        data = _typed("document", json.loads(text), dict)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"report is not JSON: {exc}") from None
    unknown = set(data) - REPORT_KEYS
    if unknown:
        raise InvalidArgumentError(f"unknown report keys: {sorted(unknown)}")
    missing = REPORT_KEYS - set(data)
    if missing:
        raise InvalidArgumentError(f"missing report keys: {sorted(missing)}")
    qdata = _typed("quadrature", data["quadrature"], dict)
    if set(qdata) != {"scheme", "order"}:
        raise InvalidArgumentError(f"malformed quadrature block: {sorted(qdata)}")
    w = _typed("w", data["w"], dict)
    if not all(m.isascii() and m.isdigit() for m in w):
        raise InvalidArgumentError(f"report w keys must be ints, got {sorted(w)}")
    if data["verdict"] not in (CERTIFIED, INCONCLUSIVE):
        raise InvalidArgumentError(f"unknown verdict {data['verdict']!r}")
    return MomentReport(
        state=_typed("state", data["state"], str),
        modes=_typed("k", data["k"], int),
        cutoff=_typed("cutoff", data["cutoff"], (int, type(None))),
        quadrature=QuadratureSpec(qdata["scheme"], qdata["order"]),  # it checks both fields
        moments={int(m): float(_typed(f"w[{m}]", v, (float, int))) for m, v in w.items()},
        delta=float(_typed("delta", data["delta"], (float, int))),
        verdict=data["verdict"],
        est_error=float(_typed("est_error", data["est_error"], (float, int))),
    )


def field_for(spec: StateSpec, cutoff: int | None):
    """Best evaluator path for a spec plus the Fock cutoff actually used.

    Without a cutoff a spec gets its closed form (cutoff None in the report),
    with one the truncated synthesis path; Gaussians refuse a cutoff, and a
    FockCustom matrix is its own truncation.
    """
    if isinstance(spec, GaussianCustom):
        return wigner_gaussian(state_from_spec(spec, cutoff)), None
    if cutoff is None and not isinstance(spec, FockCustom):
        return wigner_analytic(spec), None
    state = state_from_spec(spec, cutoff)
    return wigner_fock_synthesis(state, label=spec_label(spec)), state.cutoff


def _moments_and_errors(field: WignerField, quad: QuadratureSpec, max_m: int):
    """w_1..w_max_m on quad, and |w_m(order) - w_m(2 order)| for m >= 2."""
    powers = range(1, max_m + 1)
    moments = dict(zip(powers, _integrals(field, powers, quad)))
    doubled = _integrals(field, powers[1:], QuadratureSpec(quad.scheme, 2 * quad.order))
    errors = {m: abs(moments[m] - w) for m, w in zip(powers[1:], doubled)}
    return moments, errors


def _product_error(parts) -> float:
    """Bound on the error of a product of w_i each within e_i of its value:
    sum_j e_j prod_{i != j} (|w_i| + e_i)."""
    return math.fsum(
        e_j * math.prod(abs(w) + e for i, (w, e) in enumerate(parts) if i != j)
        for j, (_, e_j) in enumerate(parts)
    )


def _report(label, modes, cutoff, quad, moments, errors) -> MomentReport:
    """The report of the moments, with est_error the largest of the per-m
    errors; a NaN or infinite moment, delta or error raises before any
    verdict (Python's max would drop a NaN that is not first)."""
    delta = moments[2] ** 2 - moments[3]
    if not all(map(math.isfinite, [*moments.values(), delta, *errors])):
        raise NonFiniteResultError(
            f"{label}: moments {moments}, delta {delta} or errors {list(errors)} are not finite"
        )
    est_error = max(errors)
    verdict = criterion(moments[2], moments[3], max(MARGIN_FLOOR, 3.0 * est_error))
    return MomentReport(
        state=label,
        modes=modes,
        cutoff=cutoff,
        quadrature=quad,
        moments=moments,
        delta=delta,
        verdict=verdict,
        est_error=est_error,
    )


def _analyze_core(spec: StateSpec, factors: tuple, max_m: int) -> MomentReport:
    """The report of a spec from its one-mode cores, each on its own default
    rule and error pass: the moments multiply, est_error is the product bound
    over the cores' estimates, and the report names the largest core rule."""
    runs = {}
    for f in factors:
        if id(f) not in runs:
            quad = default_quadrature(f, max_m)
            runs[id(f)] = (quad, *_moments_and_errors(f, quad, max_m))
    parts = [runs[id(f)] for f in factors]
    moments = {m: math.prod(w[m] for _, w, _ in parts) for m in range(1, max_m + 1)}
    errors = [
        _product_error([(w[m], e[m]) for _, w, e in parts]) for m in range(2, max_m + 1)
    ]
    quad = max((q for q, _, _ in parts), key=lambda q: q.order)
    return _report(spec_label(spec), len(factors), None, quad, moments, errors)


def analyze(spec: StateSpec, max_m: int = 3, cutoff: int | None = None) -> MomentReport:
    """Compute w_1..w_max_m, the criterion verdict, and an error estimate.

    The rule is default_quadrature(field, max_m), exact for every moment.
    est_error is the largest |w_m(order) - w_m(2 order)| over m >= 2; the
    certification margin is max(1e-9, 3 est_error), so a verdict is only
    Certified when delta clears the quadrature error budget. On the polar
    rule a one-mode field is evaluated on two grids: the stacked rules of
    w_1..w_max_m, then those of w_2..w_max_m at twice the order; the
    moments are bit for bit those of moment() at each m.

    Without a cutoff, Tmsv, Spssv and GaussianCustom take the product of
    their cores' moments, with est_error the product bound (_analyze_core).
    """
    check_int("max_m", max_m, 3)  # the criterion needs w2 and w3
    image = SYMPLECTIC_IMAGES.get(type(spec))
    if image is not None and cutoff is None:
        cores, _ = image(spec)  # the map stays unbuilt: no cosh, Cholesky or inverse
        return _analyze_core(spec, cores, max_m)
    field, used_cutoff = field_for(spec, cutoff)
    quad = default_quadrature(field, max_m)
    moments, errors = _moments_and_errors(field, quad, max_m)
    return _report(field.label, field.modes, used_cutoff, quad, moments, errors.values())


# ---------------------------------------------------------------------------
# sweeps


def _sweep_spec(family: str, value):
    """The family's spec with `value` as its first field, the rest default."""
    if family not in FAMILIES:
        raise InvalidArgumentError(
            f"unknown sweep family {family!r}; expected one of {tuple(FAMILIES)}"
        )
    spec_cls = FAMILIES[family].spec
    # an integral float fills an int field (2.0 -> 2); the spec refuses other non-ints
    if param_type(fields(spec_cls)[0]) is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    return spec_cls(value)


def sweep(family: str, values):
    """Analyze a one-parameter family; returns [(param, MomentReport)]."""
    return [(value, analyze(_sweep_spec(family, value))) for value in values]


# ---------------------------------------------------------------------------
# Hoelder-chain diagnostics


def holder_chain_check(field: WignerField) -> dict:
    """Norm inequalities behind the criterion, computed on |W|.

    Returns the norms ||W||_1, ||W||_{3/2}, ||W||_2, ||W||_3 plus booleans
    for ||W||_2^2 <= ||W||_3 ||W||_{3/2} (Hoelder with exponents 3 and 3/2)
    and ||W||_{3/2} <= ||W||_2^{2/3} ||W||_1^{1/3} (interpolation). Both hold
    for every state because the integrands use |W|; only ||W||_1 = 1
    distinguishes nonnegative Wigner functions.

    The norms run on Gauss-Hermite tensor rules against the envelope of
    |W|^p: order 12 for Gaussians, where they are exact, else 96 nodes per
    axis in one mode and 24 in two. |W|^p has kinks where W crosses zero,
    so there the rule converges instead of being exact: Fock(1) gets
    norm_1 = 1.43152 against 4 e^{-1/2} - 1 = 1.42612, 3.8e-3 relative.
    That is enough for the inequalities, whose slack is a few percent.
    """
    smooth = field.polynomial_degree == 0
    order = 12 if smooth else (96 if field.modes == 1 else 24)
    norms = {}
    for p in (1.0, 1.5, 2.0, 3.0):
        integrand = lambda z, _p=p: np.abs(field.evaluate(z)) ** _p
        val = gauss_hermite_integral(integrand, field.envelope.scaled(p), order)
        norms[p] = val ** (1.0 / p)
    slack = 1e-9
    return {
        "norm_1": norms[1.0],
        "norm_3_2": norms[1.5],
        "norm_2": norms[2.0],
        "norm_3": norms[3.0],
        "holder_ok": norms[2.0] ** 2 <= norms[3.0] * norms[1.5] * (1.0 + 1e-8) + slack,
        "interpolation_ok": norms[1.5]
        <= norms[2.0] ** (2.0 / 3.0) * norms[1.0] ** (1.0 / 3.0) * (1.0 + 1e-8) + slack,
    }
