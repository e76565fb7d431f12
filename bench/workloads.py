"""Seeded operation lists for the three benchmark workloads.

Every operation is a closure over inputs drawn from the seed. Its `call`
is the only part that is timed; `check` compares the result with an
independent reference afterwards and returns a list of problems. References
are computed once per operation and cached, so repeated passes pay them
once.

A problem is either a miss (the result is off by more than the report's own
margin, or the call raised a package error) or a violation (a positive-Wigner
state certified, a verdict contradicting the reference, a crash outside the
package's error taxonomy). Misses count as failed operations; violations
also make the run incorrect.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from wignermoments import cli, moments, multicopy, oracle, soundness, states
from wignermoments.errors import WignerMomentsError

MARGIN_FLOOR = moments.MARGIN_FLOOR
MULTICOPY_TOL = MARGIN_FLOOR  # the multicopy route reports no error estimate

# Modules each workload's operations call; a fresh interpreter importing
# them is the set-up cost every CLI invocation pays.
SETUP_IMPORTS = {
    "catalog": ("wignermoments.cli", "wignermoments.moments", "wignermoments.soundness"),
    "synthesis": ("wignermoments.moments", "wignermoments.soundness"),
    "multicopy": ("wignermoments.multicopy", "wignermoments.states"),
}

# Typical seconds per pass over the operation list on the 2-vCPU machine the
# benchmark was defined on. A run makes round(seconds / this) passes, at
# least three, so every run of a given length takes its medians over the
# same number of passes however busy the machine is.
PASS_SECONDS = {"catalog": 5.5, "synthesis": 8.0, "multicopy": 5.5}


@dataclass
class Op:
    """One timed call into the package plus its reference check."""

    kind: str
    label: str
    call: object
    check: object


@dataclass
class Problem:
    violation: bool
    text: str


def _stratified(rng, lo, hi, count):
    """One uniform draw from each of `count` equal slices of [lo, hi], shuffled."""
    edges = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    return rng.permutation(edges).tolist()


def _stratified_ints(rng, lo, hi, count):
    """Integers in [lo, hi] spread evenly over the range, shuffled."""
    span = hi - lo + 1
    vals = lo + np.floor((np.arange(count) + rng.uniform(size=count)) * span / count)
    return [int(v) for v in rng.permutation(vals)]


def _random_density(rng, dim, rank):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# checks


def _misses(got: dict, ref: dict, margin: float) -> list:
    out = []
    for m, want in ref.items():
        err = abs(got[m] - want)
        if not err <= margin:
            out.append(Problem(False, f"w{m}={got[m]!r} misses {want!r} by {err:.3e} > {margin:.3e}"))
    return out


def _report_check(reference, positive=False):
    """Check a MomentReport against lazily computed reference moments.

    `reference()` returns {m: exact w_m}; if it raises a package error the
    operation counts as failed (the reference route is the package's own).
    """

    ref_cached = cache(reference)

    def check(report):
        problems = []
        margin = max(MARGIN_FLOOR, 3.0 * report.est_error)
        try:
            ref = ref_cached()
        except WignerMomentsError as exc:
            return [Problem(False, f"reference raised {type(exc).__name__}: {exc}")]
        problems += _misses(report.moments, ref, margin)
        if positive and report.verdict != moments.INCONCLUSIVE:
            problems.append(Problem(True, f"positive-Wigner state certified (delta={report.delta!r})"))
        if 2 in ref and 3 in ref:
            ref_delta = ref[2] ** 2 - ref[3]
            if abs(ref_delta - margin) > 2.0 * margin:
                want = moments.CERTIFIED if ref_delta > margin else moments.INCONCLUSIVE
                if report.verdict != want:
                    problems.append(
                        Problem(True, f"verdict {report.verdict} but reference delta {ref_delta!r}")
                    )
        return problems

    return check


def _purity_reference(spec, cutoff=None):
    """w1 = 1 and w2 = Tr rho^2 / (2 pi)^k of the truncated state."""

    def reference():
        st = states.state_from_spec(spec, cutoff)
        return {1: 1.0, 2: oracle.trace_power(st, 2) / (2.0 * math.pi) ** st.modes}

    return reference


def _radial_reference(spec):
    return lambda: {m: oracle.radial_closed_form_moment(spec, m) for m in (1, 2, 3)}


def _noon_reference(N):
    return lambda: {1: 1.0, 2: oracle.noon_closed_form_moment(N, 2), 3: oracle.noon_closed_form_moment(N, 3)}


def _gaussian_reference(make_state):
    return lambda: {m: moments.moment_gaussian_closed_form(make_state(), m) for m in (1, 2, 3)}


def _analyze_op(kind, spec, reference, cutoff=None, positive=False):
    label = states.spec_label(spec) + ("" if cutoff is None else f"@c{cutoff}")
    return Op(
        kind=kind,
        label=label,
        call=lambda: moments.analyze(spec, cutoff=cutoff),
        check=_report_check(reference, positive),
    )


# ---------------------------------------------------------------------------
# catalog: closed-form analyze plus in-process CLI calls


def _cli_op(argv, out, check_text):
    def call():
        if os.path.exists(out):
            os.remove(out)  # so a command that writes nothing leaves no stale output
        rc = cli.main(argv + ["--out", out])
        if not os.path.exists(out):
            return rc, b""
        with open(out, "rb") as fh:
            return rc, fh.read()

    def check(result):
        # the output is checked whatever the exit code: `selftest` exits 1
        # exactly when it has certified a positive-Wigner state, and its
        # check must see that as a violation, not as a plain miss
        rc, data = result
        if not data:
            return [Problem(False, f"exit code {rc}, no output")]
        problems = check_text(data.decode())
        if rc != 0 and not problems:
            problems.append(Problem(False, f"exit code {rc}"))
        return problems

    return Op(kind="cli", label=" ".join(argv), call=call, check=check)


def _csv_rows(text):
    lines = text.strip().split("\n")
    return [line.split(",") for line in lines[1:]]


def _check_table(param_ref):
    """Rows param,w2,w3,delta against exact (w2, w3) per param."""
    refs = {}

    def check_text(text):
        problems = []
        for row in _csv_rows(text):
            param = int(row[0])
            if param not in refs:
                refs[param] = param_ref(param)
            w2, w3 = refs[param]
            for name, got, want in (("w2", row[1], w2), ("w3", row[2], w3)):
                if not abs(float(got) - want) <= MARGIN_FLOOR:
                    problems.append(Problem(False, f"{name}({param})={got} vs exact {want!r}"))
        return problems

    return check_text


def _mixed_delta(lam):
    spec = states.MixedFock01(lam)
    w2 = oracle.radial_closed_form_moment(spec, 2)
    return w2 * w2 - oracle.radial_closed_form_moment(spec, 3)


def _check_mixed_sweep(text):
    problems = []
    rows = _csv_rows(text)
    for row in rows[:-1]:
        want = _mixed_delta(float(row[0]))
        if not abs(float(row[1]) - want) <= MARGIN_FLOOR:
            problems.append(Problem(False, f"delta({row[0]})={row[1]} vs exact {want!r}"))
    star = float(rows[-1][1])
    if not (_mixed_delta(star - 1e-6) > 0.0 > _mixed_delta(star + 1e-6)):
        problems.append(Problem(False, f"lambda_star={star!r} does not bracket the root"))
    return problems


def _fock_wigner_numpy(n, x, p):
    """(-1)^n/pi e^{-u} L_n(2u), Laguerre series from numpy, not scipy."""
    u = x * x + p * p
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return (-1.0) ** n / math.pi * np.exp(-u) * np.polynomial.laguerre.lagval(2.0 * u, coeffs)


def _check_grid(n):
    def check_text(text):
        rows = np.array([[float(v) for v in r] for r in _csv_rows(text)])
        want = _fock_wigner_numpy(n, rows[:, 0], rows[:, 1])
        err = float(np.max(np.abs(rows[:, 2] - want)))
        return [] if err <= MARGIN_FLOOR else [Problem(False, f"grid off by {err:.3e}")]

    return check_text


def _check_selftest(text):
    last = text.strip().split("\n")[-1]
    if "FALSE CERTIFICATION" in text or not last.startswith("selftest passed"):
        return [Problem(True, f"selftest: {last}")]
    return []


def catalog_ops(rng, scratch):
    ops = []
    for n in _stratified_ints(rng, 0, 40, 24):
        spec = states.Fock(n)
        ops.append(_analyze_op("fock", spec, _radial_reference(spec)))
    for lam in _stratified(rng, 0.0, 1.0, 12):
        spec = states.MixedFock01(lam)
        ops.append(_analyze_op("mixed01", spec, _radial_reference(spec)))
    for N in rng.permutation(np.arange(1, 7)).tolist():
        ops.append(_analyze_op("noon", states.Noon(N), _noon_reference(N)))
    for r in _stratified(rng, 0.05, 8.0, 24):
        ops.append(
            _analyze_op("tmsv", states.Tmsv(r), _gaussian_reference(lambda r=r: states.tmsv_gaussian(r)))
        )
    for r in _stratified(rng, 0.05, 8.0, 24):
        spec = states.Spssv(r, int(rng.integers(0, 2)))
        # pure two-mode state: w1 = 1, w2 = 1/(2 pi)^2
        ops.append(_analyze_op("spssv", spec, lambda: {1: 1.0, 2: 1.0 / (4.0 * math.pi**2)}))
    for modes in (1, 2):
        for _ in range(8):
            spec = soundness.random_gaussian_spec(rng, modes)
            ref = _gaussian_reference(
                lambda s=spec: states.GaussianState(np.asarray(s.mean), np.asarray(s.covariance))
            )
            ops.append(_analyze_op(f"gaussian{modes}", spec, ref, positive=True))
    for _ in range(8):
        spec = soundness.random_coherent_mixture_spec(rng)
        ops.append(_analyze_op("coherent", spec, _purity_reference(spec), positive=True))

    out = os.path.join(scratch, "cli.out")
    noon_ref = lambda N: (oracle.noon_closed_form_moment(N, 2), oracle.noon_closed_form_moment(N, 3))
    fock_ref = lambda n: tuple(oracle.radial_closed_form_moment(states.Fock(n), m) for m in (2, 3))
    start = float(rng.uniform(0.0, 0.2))
    stop = float(rng.uniform(0.4, 0.6))
    grid_n = int(rng.integers(0, 6))
    cli_ops = [
        _cli_op(["table", "table1"], out, _check_table(noon_ref)),
        _cli_op(["table", "table2"], out, _check_table(fock_ref)),
        _cli_op(
            ["figure", "mixed-sweep", "--start", repr(start), "--stop", repr(stop), "--steps", "26"],
            out,
            _check_mixed_sweep,
        ),
        _cli_op(
            ["grid", "--state", "fock", "--n", str(grid_n), "--half-width", "4", "--points", "101"],
            out,
            _check_grid(grid_n),
        ),
        _cli_op(
            ["selftest", "--count", "10", "--seed", str(int(rng.integers(0, 2**31)))],
            out,
            _check_selftest,
        ),
    ]
    ops += cli_ops
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# synthesis: analyze with explicit Fock truncations


def synthesis_ops(rng):
    ops = []
    for c in _stratified_ints(rng, 10, 40, 12):
        n = int(rng.integers(0, c + 1))
        spec = states.Fock(n)
        ops.append(_analyze_op("synth1", spec, _purity_reference(spec, c), cutoff=c))
    for c in _stratified_ints(rng, 1, 20, 60):
        spec = states.MixedFock01(float(rng.uniform()))
        ops.append(_analyze_op("synth1", spec, _purity_reference(spec, c), cutoff=c))
    for _ in range(16):
        spec = soundness.random_coherent_mixture_spec(rng)
        ops.append(_analyze_op("synth1", spec, _purity_reference(spec), positive=True))
    # two-mode synthesis at cutoff 1: 8^4 nodes per moment, 16^4 in the
    # doubled-order error pass, all through the tensor-grid grouping path
    for i in range(12):
        if i % 3 == 0:
            spec, cutoff = states.Noon(1), 1
        else:
            rho = _random_density(rng, 4, int(rng.integers(1, 5)))
            spec, cutoff = states.FockCustom.from_matrix(rho, modes=2), None
        ops.append(_analyze_op("synth2", spec, _purity_reference(spec, cutoff), cutoff=cutoff))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# multicopy: O_2 / O_3 builds, expectations and the forward/backward chain


def _observable_op(ctx, m, c):
    def call():
        ctx.pop(m, None)  # release the previous operator before building
        ctx[m] = multicopy.multicopy_observable(m, c)
        return ctx[m]

    def check(op):
        mat = op.matrix
        problems = []
        if m == 2:
            # O_2 = SWAP / (2 pi) on the truncated space
            d = c + 1
            idx = np.arange(d * d)
            swap = np.zeros((d * d, d * d))
            swap[idx, (idx % d) * d + idx // d] = 1.0
            err = float(np.max(np.abs(mat - swap / (2.0 * math.pi))))
            label = "SWAP/(2 pi)"
        else:
            # vacuum entry: w3 of the vacuum is 1/(3 pi^2)
            err = abs(mat[0, 0] - 1.0 / (3.0 * math.pi**2))
            label = "vacuum w3"
        if not err <= MULTICOPY_TOL:
            problems.append(Problem(False, f"O_{m}(c={c}) misses {label} by {err:.3e}"))
        return problems

    return Op(kind=f"o{m}", label=f"O_{m}(c={c})", call=call, check=check)


def _expectation_op(ctx, c, spec, references):
    """Build the state at cutoff c and contract it with O_m for each reference m."""
    refs = {m: cache(ref) for m, ref in references.items()}

    def call():
        st = states.state_from_spec(spec, c)
        return tuple(multicopy.multicopy_expectation(ctx[m], [st] * m) for m in refs)

    def check(values):
        problems = []
        for (m, ref), value in zip(refs.items(), values):
            want = ref()
            err = abs(value - want)
            if not err <= MULTICOPY_TOL:
                problems.append(
                    Problem(False, f"Tr[rho^(x){m} O_{m}]={value!r} misses {want!r} by {err:.3e}")
                )
        return problems

    kind = "e" + "".join(str(m) for m in refs)
    return Op(kind=kind, label=f"E_{tuple(refs)}({states.spec_label(spec)}@c{c})", call=call, check=check)


def _protocol_op(m, spec):
    ref_cached = cache(lambda: oracle.trace_power(states.state_from_spec(spec), m))

    def call():
        return multicopy.forward_backward_protocol(states.state_from_spec(spec), m)

    def check(value):
        want = ref_cached()
        err = abs(value - want)
        if not err <= MULTICOPY_TOL:
            return [Problem(False, f"protocol Tr rho^{m}={value!r} misses {want!r} by {err:.3e}")]
        return []

    side = round(math.sqrt(len(spec.matrix)))
    return Op(kind="protocol", label=f"protocol(m={m},c={side - 1})", call=call, check=check)


def multicopy_ops(rng):
    ctx = {}  # the operators of the current cutoff, shared by its ops
    ops = []
    # ascending cutoffs: the build order fixes the allocator's high-water mark
    for c in range(2, 13):
        ops.append(_observable_op(ctx, 2, c))
        ops.append(_observable_op(ctx, 3, c))
        # w2 and w3 of Fock states and 0/1 mixtures, against exact rationals
        picks = [states.Fock(int(n)) for n in rng.integers(0, c + 1, size=3)]
        picks += [states.MixedFock01(float(lam)) for lam in rng.uniform(size=2)]
        for spec in picks:
            refs = {m: (lambda s=spec, m=m: oracle.radial_closed_form_moment(s, m)) for m in (2, 3)}
            ops.append(_expectation_op(ctx, c, spec, refs))
        # w2 of a coherent mixture against its purity
        mix = soundness.random_coherent_mixture_spec(rng, cutoff=c)
        ref = lambda s=mix, c=c: oracle.trace_power(states.state_from_spec(s, c), 2) / (2.0 * math.pi)
        ops.append(_expectation_op(ctx, c, mix, {2: ref}))
    for c in (1, 2, 3):
        for m in (2, 3):
            for _ in range(2):
                d = (c + 1) ** 2
                rho = _random_density(rng, d, int(rng.integers(1, d + 1)))
                ops.append(_protocol_op(m, states.FockCustom.from_matrix(rho, modes=2)))
    return ops


def build(name, seed, scratch):
    """The workload's operation list for this seed; CLI output goes to `scratch`."""
    rng = np.random.default_rng(seed)
    if name == "catalog":
        return catalog_ops(rng, scratch)
    if name == "synthesis":
        return synthesis_ops(rng)
    if name == "multicopy":
        return multicopy_ops(rng)
    raise ValueError(f"unknown workload {name!r}")
