import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from wignermoments import moments, oracle, soundness, states, wigner
from wignermoments.errors import InvalidArgumentError, NonFiniteResultError
from wignermoments.quadrature import GridSpec, QuadratureSpec, hermgauss_cached

PI = math.pi


def field_of(spec):
    return wigner.wigner_analytic(spec)


# ---------------------------------------------------------------------------
# moment values against closed forms


def test_w1_is_one_for_catalog():
    for spec in [
        states.Fock(0),
        states.Fock(3),
        states.Noon(2, 0.0),
        states.Tmsv(0.6),
        states.Spssv(0.4, 1),
        states.MixedFock01(0.3),
    ]:
        assert moments.moment(field_of(spec), 1) == pytest.approx(1.0, abs=1e-10)


def test_pure_state_w2():
    assert moments.moment(field_of(states.Fock(4)), 2) == pytest.approx(
        1.0 / (2.0 * PI), rel=1e-12
    )
    assert moments.moment(field_of(states.Noon(3, 0.7)), 2) == pytest.approx(
        1.0 / (4.0 * PI**2), rel=1e-12
    )
    assert moments.moment(field_of(states.Spssv(0.5, 1)), 2) == pytest.approx(
        1.0 / (4.0 * PI**2), rel=1e-10
    )


def test_vacuum_and_tmsv_w3():
    assert moments.moment(field_of(states.Fock(0)), 3) == pytest.approx(
        1.0 / (3.0 * PI**2), rel=1e-12
    )
    assert moments.moment(field_of(states.Tmsv(0.5)), 3) == pytest.approx(
        1.0 / (9.0 * PI**4), rel=1e-10
    )
    assert moments.moment(field_of(states.Spssv(0.5, 1)), 3) == pytest.approx(
        1.0 / (81.0 * PI**4), rel=1e-8
    )


def test_fock_w3_against_exact_closed_forms():
    for n in range(6):
        got = moments.moment(field_of(states.Fock(n)), 3)
        expect = oracle.radial_closed_form_moment(states.Fock(n), 3)
        assert got == pytest.approx(expect, rel=1e-11), f"n={n}"


def test_noon_w3_against_exact_closed_forms():
    for n in range(1, 11):
        for m in (2, 3):
            got = moments.moment(field_of(states.Noon(n)), m)
            expect = oracle.noon_closed_form_moment(n, m)
            assert abs(got - expect) <= 1e-14, f"N={n} m={m}"
            assert got == pytest.approx(expect, rel=1e-9), f"N={n} m={m}"


def _flat_reference(field, m, order):
    """w_m on the same tensor nodes, meshed into points and passed to field(z).

    The envelopes here are diagonal, so each axis is scaled on its own.
    """
    form = m * field.envelope.form
    t, wt = hermgauss_cached(order)
    q = np.diag(form)
    axes = [field.envelope.center[i] + t / math.sqrt(q[i]) for i in range(4)]
    z = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    weights = np.ones(1)
    for _ in range(4):
        weights = np.multiply.outer(weights, wt)
    return float(np.sum(weights.ravel() * field(z) ** m)) / math.sqrt(float(np.prod(q)))


def _random_two_mode_state(rng, cutoff):
    d = (cutoff + 1) ** 2
    g = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    rho = g @ g.conj().T
    return states.FockCustom.from_matrix(rho / np.trace(rho).real, modes=2)


def test_product_rule_matches_flat_reference():
    rng = np.random.default_rng(7)
    fields = [field_of(states.Noon(N, phi)) for N in range(1, 7) for phi in (0.0, 0.7, PI)]
    # dilated factor forms, by a float and by a numpy scalar
    fields += [wigner.dilate(field_of(states.Noon(2)), c) for c in (0.5, np.float64(2.0))]
    fields += [field_of(_random_two_mode_state(rng, c)) for c in (1, 2, 3)]
    for field in fields:
        seen = []

        def evaluate(z):
            raise AssertionError("a polar pass must not evaluate the field")

        def factors(x, p, _f=field.factors):
            seen.append(x.size)
            return _f(x, p)

        traced = dataclasses.replace(field, evaluate=evaluate, factors=factors)
        for m in (1, 2, 3):
            order = moments.exactness_order(field, m)
            got = moments.moment(traced, m)
            assert got == pytest.approx(_flat_reference(field, m, order), rel=1e-13, abs=0), (
                f"{field.label} m={m}"
            )
        # one factor form per pass, on the pass's whole per-mode node set
        rules = [moments.polar_order(field, m) for m in (1, 2, 3)]
        assert seen == [r * 2 * r for r in rules], field.label


def test_coupled_envelope_keeps_flat_points():
    seen = []
    field = field_of(states.Tmsv(0.3))

    def evaluate(z):
        seen.append(type(z))
        return field.evaluate(z)

    moments.moment(dataclasses.replace(field, evaluate=evaluate), 2)
    assert set(seen) == {np.ndarray}


def test_gaussian_closed_form_formula():
    st = states.tmsv_gaussian(0.8)
    for m in (2, 3, 4):
        det = float(np.linalg.det(st.covariance))
        expect = ((2.0 * PI) ** 2 * math.sqrt(det)) ** (1 - m) / float(m) ** 2
        assert moments.moment_gaussian_closed_form(st, m) == pytest.approx(
            expect, rel=1e-14
        )


def test_gaussian_closed_form_matches_quadrature():
    st = states.tmsv_gaussian(0.6)
    f = wigner.wigner_gaussian(st)
    for m in (2, 3):
        assert moments.moment(f, m) == pytest.approx(
            moments.moment_gaussian_closed_form(st, m), rel=1e-12
        )


def test_alternate_schemes_agree():
    f = field_of(states.Fock(1))
    gh = moments.moment(f, 3)
    grid = oracle.riemann_moment(f, 3, GridSpec(8.0, 400))
    assert grid == pytest.approx(gh, rel=1e-7)


def test_adaptive_radial_off_center_correlated_gaussian():
    # this off-centre case once ran the deleted adaptive radial rule; it now
    # pins the explicit tensor rule on the same state
    spec = states.GaussianCustom.from_arrays([0.7, -0.4], [[0.9, 0.35], [0.35, 0.6]])
    state = states.state_from_spec(spec)
    field = wigner.wigner_gaussian(state)
    # the explicit rule substitutes through the envelope's coupled Cholesky
    # factor, away from the origin
    quad = QuadratureSpec(order=8)
    for m in (1, 2, 3):
        want = moments.moment_gaussian_closed_form(state, m)
        assert moments.moment(field, m, quad) == pytest.approx(want, rel=1e-12, abs=0)


def test_moment_rejects_bad_order():
    f = field_of(states.Fock(0))
    with pytest.raises(InvalidArgumentError):
        moments.moment(f, 0)


def test_exactness_order_covers_degree():
    f = field_of(states.Fock(2))  # degree 4
    assert moments.exactness_order(f, 3) >= (3 * 4) // 2 + 1
    assert moments.exactness_order(f, 2) >= 8


# ---------------------------------------------------------------------------
# criterion


def test_criterion_strict_inequality():
    assert moments.criterion(1.0, 0.5) == "NegativityCertified"
    assert moments.criterion(1.0, 1.0) == "Inconclusive"
    # a tie with the margin is not enough
    assert moments.criterion(1.0, 1.0 - 1e-9, margin=0.0) == "NegativityCertified"
    assert moments.criterion(2.0, 4.0 - 0.25, margin=0.25) == "Inconclusive"
    with pytest.raises(InvalidArgumentError):
        moments.criterion(1.0, 0.5, margin=-1.0)


def test_analyze_verdicts_for_catalog():
    assert moments.analyze(states.Fock(0)).verdict == "Inconclusive"
    assert moments.analyze(states.Fock(1)).verdict == "NegativityCertified"
    assert moments.analyze(states.Tmsv(0.5)).verdict == "Inconclusive"
    assert moments.analyze(states.Spssv(0.5, 1)).verdict == "NegativityCertified"
    assert moments.analyze(states.MixedFock01(0.2)).verdict == "NegativityCertified"
    assert moments.analyze(states.MixedFock01(0.4)).verdict == "Inconclusive"


def test_analyze_report_contents():
    rep = moments.analyze(states.Fock(1))
    assert rep.state == "fock(n=1)"
    assert rep.modes == 1
    assert rep.cutoff is None  # analytic path
    assert set(rep.moments) == {1, 2, 3}
    assert rep.moments[1] == pytest.approx(1.0, abs=1e-12)
    assert rep.delta == pytest.approx(rep.moments[2] ** 2 - rep.moments[3], abs=0.0)
    assert rep.est_error < 1e-12


def test_analyze_with_cutoff_uses_synthesis():
    rep = moments.analyze(states.Fock(1), cutoff=9)
    assert rep.cutoff == 9
    assert rep.moments[3] == pytest.approx(1.0 / (27.0 * PI**2), rel=1e-10)
    assert moments.analyze(states.Fock(1), cutoff=np.int64(9)).moments == rep.moments
    # a float cutoff used to reach np.zeros as a bare TypeError
    for spec in (states.Fock(1), states.Tmsv(0.3), states.FockCustom.from_matrix(np.eye(3) / 3)):
        with pytest.raises(InvalidArgumentError, match="cutoff must be an int"):
            moments.analyze(spec, cutoff=9.0)


def test_analyze_never_runs_the_tensor_rule(monkeypatch):
    # every route takes the polar rule, on the field or on its core; the
    # tensor rule is reached through moment()'s explicit rule alone
    calls = []
    tensor = moments.gauss_hermite_integral
    monkeypatch.setattr(
        moments, "gauss_hermite_integral", lambda *a: calls.append(a) or tensor(*a)
    )
    catalog = {
        "fock": states.Fock(2),
        "noon": states.Noon(2),
        "tmsv": states.Tmsv(0.05),
        "spssv": states.Spssv(0.05, 0),
        "mixed01": states.MixedFock01(0.3),
    }
    assert set(catalog) == set(states.FAMILIES)
    rng = np.random.default_rng(7)
    for name, spec in catalog.items():
        moments.analyze(spec)
        moments.analyze(spec, cutoff=states.FAMILIES[name].min_cutoff(spec))
    for k in (1, 2, 3):
        moments.analyze(soundness.random_gaussian_spec(rng, k))
    assert calls == []
    moments.moment(wigner.wigner_analytic(states.Fock(1)), 2, QuadratureSpec(order=8))
    assert len(calls) == 1


def test_analyze_takes_no_rule():
    assert list(inspect.signature(moments.analyze).parameters) == ["spec", "max_m", "cutoff"]
    assert list(inspect.signature(moments.sweep).parameters) == ["family", "values"]


def test_analyze_requires_three_moments():
    for max_m in (2, 3.5, 3.0, "3"):
        with pytest.raises(InvalidArgumentError, match="max_m must be an int >= 3"):
            moments.analyze(states.Fock(0), max_m=max_m)
    assert sorted(moments.analyze(states.Fock(2), max_m=np.int64(4)).moments) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# report serialization


def test_analyze_refuses_non_finite_moments():
    # the unscaled Laguerre recurrence overflows at the outer polar nodes of
    # Fock(250): w1 and the doubled pass come out NaN, which max() used to
    # drop, leaving the 1e-9 floor as the margin and a Certified verdict
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResultError):
        moments.analyze(states.Fock(250))


def nan_field(field):
    return dataclasses.replace(
        field,
        evaluate=lambda z: field.evaluate(z) * np.nan,
        polar=lambda r, n_theta: field.polar(r, n_theta) * np.nan,
    )


@pytest.mark.parametrize("route", ["polar", "tensor", "core"])
def test_analyze_raises_on_a_nan_field(monkeypatch, route):
    fock1 = wigner.wigner_analytic(states.Fock(1))
    monkeypatch.setattr(moments, "field_for", lambda spec, cutoff: (nan_field(fock1), None))
    monkeypatch.setitem(
        wigner.SYMPLECTIC_IMAGES, states.Tmsv, lambda spec: ((nan_field(fock1),) * 2, None)
    )
    with pytest.raises(NonFiniteResultError):
        if route == "tensor":
            quad = QuadratureSpec(order=8)
            w, errors = moments._moments_and_errors(nan_field(fock1), quad, 3)
            moments._report("fock(n=1)", 1, None, quad, w, errors.values())
        else:
            moments.analyze(states.Tmsv(0.5) if route == "core" else states.Fock(1))


def test_report_json_round_trip_is_byte_stable():
    rep = moments.analyze(states.MixedFock01(0.3))
    text = rep.to_json()
    back = moments.read_report(text)
    assert back.to_json() == text
    assert back.moments == rep.moments
    assert back.verdict == rep.verdict
    assert back.delta == rep.delta


def test_read_report_rejects_unknown_and_missing_keys():
    rep = moments.analyze(states.Fock(0))
    data = json.loads(rep.to_json())
    data["surprise"] = 1
    with pytest.raises(InvalidArgumentError):
        moments.read_report(json.dumps(data))
    del data["surprise"]
    del data["delta"]
    with pytest.raises(InvalidArgumentError):
        moments.read_report(json.dumps(data))


def _report_with(**changes):
    data = json.loads(moments.analyze(states.Fock(2), cutoff=4).to_json())
    data.update(changes)
    return json.dumps(data)


MALFORMED_REPORTS = {
    "not-json": "{",
    "not-an-object": "3",
    "k-string": _report_with(k="x"),
    "k-float": _report_with(k=1.7),
    "k-bool": _report_with(k=True),
    "cutoff-float": _report_with(cutoff=3.9),
    "quadrature-int": _report_with(quadrature=5),
    "order-float": _report_with(quadrature={"scheme": "gauss_laguerre_polar", "order": 2.5}),
    "w-list": _report_with(w=[1]),
    "w-key-word": _report_with(w={"two": 0.1}),
    "w-value-string": _report_with(w={"1": "1.0"}),
    "delta-string": _report_with(delta="x"),
    "verdict-unknown": _report_with(verdict="Certainly"),
    "state-int": _report_with(state=3),
}


@pytest.mark.parametrize("text", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS)
def test_read_report_refuses_malformed_values(text):
    # each used to raise a bare JSON/Type/Value/AttributeError or to pass,
    # truncating a float k, cutoff or order to an int
    with pytest.raises(InvalidArgumentError):
        moments.read_report(text)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_fock_rows_format(tmp_path):
    rows = moments.sweep_rows(moments.sweep("fock", [0, 1]))
    assert rows[0] == "param,w2,w3,delta,verdict"
    assert rows[1].startswith("0,")
    assert rows[1].endswith(",Inconclusive")
    assert rows[2].startswith("1,")
    assert rows[2].endswith(",NegativityCertified")
    # float params are repr-formatted
    rows = moments.sweep_rows(moments.sweep("mixed01", [0.25]))
    assert rows[1].split(",")[0] == "0.25"
    path = tmp_path / "sweep.csv"
    moments.write_sweep_csv(moments.sweep("fock", [0]), path)
    content = path.read_text()
    assert content.startswith("param,w2,w3,delta,verdict\n0,")
    assert content.endswith("\n")


def test_sweep_refuses_non_integral_values_of_int_fields():
    # int() used to truncate them: fock 2.7 reported Fock(2)'s moments
    for family, value in (("fock", 2.7), ("noon", 1.9), ("noon", np.float64(1.5))):
        with pytest.raises(InvalidArgumentError, match=f"{family} photon number must be an int"):
            moments.sweep(family, [value])


def test_sweep_unknown_family():
    with pytest.raises(InvalidArgumentError):
        moments.sweep("thermal", [0.1])


def test_field_for_builds_states_through_its_own_binding(monkeypatch):
    # per-layer tracing wraps moments.state_from_spec: every state that
    # field_for materializes must pass through that name
    calls = []
    real = moments.state_from_spec
    monkeypatch.setattr(
        moments, "state_from_spec", lambda *args: calls.append(args) or real(*args)
    )
    built = [
        (states.GaussianCustom.from_arrays(np.zeros(2), np.eye(2) / 2), None),
        (states.FockCustom.from_matrix(np.diag([0.5, 0.5])), None),
        (states.FockCustom.from_matrix(np.diag([0.5, 0.5])), 1),
        (states.Fock(1), 2),
        (states.Noon(1), 1),
    ]
    for spec, cutoff in built:
        moments.field_for(spec, cutoff)
    assert len(calls) == len(built)
    moments.field_for(states.Fock(1), None)  # closed form: nothing to build
    moments.field_for(states.Tmsv(0.5), None)
    assert len(calls) == len(built)


def test_sweep_families_follow_family_table():
    assert moments.SWEEP_FAMILIES == tuple(states.FAMILIES)
    # the value fills the family's first field, cast to its declared type
    labels = {
        "fock": (2.0, "fock(n=2)"),
        "noon": (np.int64(1), "noon(N=1,phi=3.141592653589793)"),
        "tmsv": (1, "tmsv(r=1.0)"),
        "spssv": (0.5, "spssv(r=0.5,parity=1)"),
        "mixed01": (0, "mixed01(lam=0.0)"),
    }
    assert set(labels) == set(states.FAMILIES)
    for family, (value, label) in labels.items():
        [(param, report)] = moments.sweep(family, [value])
        assert param is value
        assert report.state == label


# ---------------------------------------------------------------------------
# Hoelder diagnostics


def test_holder_norms_vacuum_exact():
    # |W| = W for the vacuum: ||W||_p^p = (1/pi^p) (pi/p) = pi^{1-p}/p
    res = moments.holder_chain_check(field_of(states.Fock(0)))
    for key, p in [("norm_1", 1.0), ("norm_3_2", 1.5), ("norm_2", 2.0), ("norm_3", 3.0)]:
        expect = (PI ** (1.0 - p) / p) ** (1.0 / p)
        assert res[key] == pytest.approx(expect, rel=1e-10, abs=0), key
    assert res["holder_ok"] and res["interpolation_ok"]


def test_holder_inequalities_hold_for_negativity():
    for spec in [states.Fock(2), states.Noon(2), states.Spssv(0.4, 1)]:
        res = moments.holder_chain_check(field_of(spec))
        assert res["holder_ok"], spec
        assert res["interpolation_ok"], spec


def test_holder_norm_1_exceeds_one_iff_negative():
    pos = moments.holder_chain_check(field_of(states.Fock(0)))
    neg = moments.holder_chain_check(field_of(states.Fock(1)))
    assert pos["norm_1"] == pytest.approx(1.0, abs=1e-9)
    assert neg["norm_1"] > 1.0 + 1e-3
    # the kinks of |W| cost the rule digits: 3.8e-3 off 4 e^{-1/2} - 1
    assert neg["norm_1"] == pytest.approx(4.0 * math.exp(-0.5) - 1.0, rel=4e-3)


def test_holder_method_validation():
    # the norms have one method, Gauss-Hermite: a method argument is refused
    # rather than ignored, and two-mode fields, which the radial method
    # refused, are accepted
    assert list(inspect.signature(moments.holder_chain_check).parameters) == ["field"]
    for method in ("radial", "montecarlo"):
        with pytest.raises(TypeError):
            moments.holder_chain_check(field_of(states.Fock(0)), method=method)
    res = moments.holder_chain_check(field_of(states.Noon(1)))
    assert all(math.isfinite(res[key]) for key in ("norm_1", "norm_3_2", "norm_2", "norm_3"))
    assert res["holder_ok"] and res["interpolation_ok"]
