"""Command-line front end.

Subcommands cover the library end to end: `analyze` emits a JSON moment
report for one state, `table` and `figure` reproduce the reference tables
and figure data as CSV, `grid` exports Wigner-function samples for
plotting, `multicopy` compares the multi-copy operator route against
quadrature, and `selftest` runs the randomized no-false-certification
suite.

All numeric output uses shortest round-trip float formatting and fixed
key/column order, so identical invocations produce byte-identical files.
The WIGNERMOMENTS_THREADS environment variable caps the BLAS/OpenMP
thread pools; it is applied before numpy is first imported, which is why
this module defers every numpy-dependent import into the handlers (the
error taxonomy imports nothing).

Exit codes: 0 success, 2 usage error, 3 numerical precondition failed,
4 resource limit. A verdict of Inconclusive is a result, not an error.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
from contextlib import contextmanager

from .errors import InvalidArgumentError, UnsupportedOperationError, WignerMomentsError, check_int

THREAD_ENV = "WIGNERMOMENTS_THREADS"

STATE_CHOICES = ("vacuum", "fock", "noon", "tmsv", "spssv", "mixed01")


def _apply_thread_env() -> None:
    value = os.environ.get(THREAD_ENV)
    if not value:
        return
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = value


@contextmanager
def _writing(path: str):
    """A failed write to path is a usage error, as a failed config read is."""
    try:
        yield
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        with _writing(out), open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_state_flags(sub) -> None:
    # not `required=`: a config file may supply the value as a default
    sub.add_argument("--state", default=None, choices=STATE_CHOICES)
    sub.add_argument("--n", type=int, default=None, help="Fock photon number")
    sub.add_argument("--N", type=int, default=None, help="NOON photon number")
    sub.add_argument("--phi", type=float, default=None, help="NOON relative phase")
    sub.add_argument("--r", type=float, default=None, help="squeezing parameter")
    sub.add_argument("--parity", type=int, default=None, choices=(0, 1))
    sub.add_argument("--lam", type=float, default=None, help="vacuum weight")


def _state_spec(args):
    from dataclasses import MISSING, fields

    from . import states

    name = args.state
    if name is None:
        raise InvalidArgumentError("--state is required (flag or config file)")
    if name == "vacuum":
        return states.Fock(0)
    # each spec field has its own flag; one without a default is required
    spec_cls = states.FAMILIES[name].spec
    kwargs = {}
    for f in fields(spec_cls):
        value = getattr(args, f.name)
        if value is not None:
            kwargs[f.name] = value
        elif f.default is MISSING:
            raise InvalidArgumentError(f"--state {name} requires --{f.name}")
    return spec_cls(**kwargs)


def _fmt(x) -> str:
    """A CSV field: an integer (numpy's too) as str, any other number as the repr of a float."""
    return str(int(x)) if isinstance(x, numbers.Integral) else repr(float(x))


def cmd_analyze(args) -> int:
    import numpy as np

    from . import moments

    spec = _state_spec(args)
    # moments._report turns a non-finite result into exit 3 with one error
    # line; the overflow that produced it need not warn on stderr first
    with np.errstate(over="ignore", invalid="ignore"):
        report = moments.analyze(spec, cutoff=args.cutoff)
    if args.format == "csv":
        lines = [
            "param,w2,w3,delta,verdict",
            f"{report.state},{_fmt(report.moments[2])},{_fmt(report.moments[3])},"
            f"{_fmt(report.delta)},{report.verdict}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(report.to_json() + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    from . import moments

    if args.table == "table1":
        results = moments.sweep("noon", range(1, 6))
    else:
        results = moments.sweep("fock", range(0, 6))
    lines = ["param,w2,w3,delta"]
    for value, report in results:
        lines.append(
            f"{_fmt(value)},{_fmt(report.moments[2])},"
            f"{_fmt(report.moments[3])},{_fmt(report.delta)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _mixed_lambda_star() -> float:
    """Zero of delta(lambda) for the |1><1|/vacuum mixture, by bisection.

    delta is exactly computable and strictly decreasing through the root,
    so plain bisection to 1e-12 is deterministic and fast.
    """
    from . import oracle, states

    def delta(lam: float) -> float:
        w2 = oracle.radial_closed_form_moment(states.MixedFock01(lam), 2)
        w3 = oracle.radial_closed_form_moment(states.MixedFock01(lam), 3)
        return w2 * w2 - w3

    lo, hi = 0.2, 0.45
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if delta(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def cmd_figure(args) -> int:
    import numpy as np

    from . import moments

    check_int("--steps", args.steps, 1)
    if args.figure == "fig1":
        results = moments.sweep("noon", range(1, 6))
    elif args.figure == "fig2":
        results = moments.sweep("fock", range(0, 6))
    else:
        values = [float(v) for v in np.linspace(args.start, args.stop, args.steps)]
        results = moments.sweep("mixed01", values)
    lines = ["param,delta,verdict"]
    for value, report in results:
        lines.append(f"{_fmt(value)},{_fmt(report.delta)},{report.verdict}")
    if args.figure == "mixed-sweep":
        lines.append(f"lambda_star,{_fmt(_mixed_lambda_star())},")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_grid(args) -> int:
    import numpy as np

    from . import moments, states, wigner
    from .quadrature import GridSpec

    spec = _state_spec(args)
    if states.spec_modes(spec) != 1:
        raise UnsupportedOperationError("grid export supports single-mode fields")
    field, _ = moments.field_for(spec, args.cutoff)
    gspec = GridSpec(half_width=args.half_width, points_per_axis=args.points)
    # wigner_grid turns a non-finite value into exit 3; the overflow need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ps, values = wigner.wigner_grid(field, gspec)
    # the repr of each value as a Python float, as _fmt gives it, taken once
    ps_text = list(map(repr, ps.tolist()))
    coords = (f"{x},{p}" for x in map(repr, xs.tolist()) for p in ps_text)
    rows = map(",".join, zip(coords, map(repr, values.ravel().tolist())))
    _emit("x,p,w\n" + "\n".join(rows) + "\n", args.out)
    return 0


def cmd_multicopy(args) -> int:
    from . import moments, multicopy, oracle, states, wigner

    spec = _state_spec(args)
    if states.spec_modes(spec) != 1:
        raise UnsupportedOperationError(
            "multicopy observables act per register; pick a single-mode state"
        )
    state = states.state_from_spec(spec, cutoff=args.cutoff)

    o2 = multicopy.multicopy_observable(2, args.cutoff)
    o3 = multicopy.multicopy_observable(3, args.cutoff)
    w2_op = multicopy.multicopy_expectation(o2, [state, state]).real
    w3_op = multicopy.multicopy_expectation(o3, [state, state, state]).real

    field = wigner.wigner_analytic(spec)
    w2_quad = moments.moment(field, 2)
    w3_quad = moments.moment(field, 3)

    report = {
        "state": states.spec_label(spec),
        "cutoff": args.cutoff,
        "w2_multicopy": w2_op,
        "w2_quadrature": w2_quad,
        "w2_deviation": abs(w2_op - w2_quad),
        "w3_multicopy": w3_op,
        "w3_quadrature": w3_quad,
        "w3_deviation": abs(w3_op - w3_quad),
        "trace_rho2": oracle.trace_power(state, 2),
        "trace_rho3": oracle.trace_power(state, 3),
    }
    if args.dump_operator:
        op = o2 if args.dump_m == 2 else o3
        with _writing(args.dump_operator):
            op.dump(args.dump_operator)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_selftest(args) -> int:
    from . import moments, soundness

    check_int("--count", args.count, 1)
    base = args.count // 5
    specs = soundness.positive_state_specs(
        args.seed,
        gaussians_1=args.count - 2 * base,
        gaussians_2=base,
        mixtures=base,
    )
    failures = 0
    lines = []
    for label, spec in specs:
        report = moments.analyze(spec)
        ok = report.verdict == moments.INCONCLUSIVE
        if not ok:
            failures += 1
        lines.append(
            f"{label}: delta={report.delta!r} verdict={report.verdict}"
            + ("" if ok else "  <-- FALSE CERTIFICATION")
        )
    lines.append(
        f"selftest {'passed' if failures == 0 else 'FAILED'}: "
        f"{len(specs)} positive states, {failures} false certification(s)"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """Parser with all subcommands.

    The returned parser carries a `config_targets` attribute listing every
    subparser, because argparse resolves subcommand defaults inside the
    subparser: config-file defaults must be installed on each of them, not
    only on the top-level parser.
    """
    parser = argparse.ArgumentParser(
        prog="wignermoments",
        description="Moment-based detection of Wigner negativity.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="key=value file supplying defaults; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="moment report for one state")
    _add_state_flags(p_analyze)
    p_analyze.add_argument("--cutoff", type=int, default=None)
    p_analyze.add_argument("--format", choices=("json", "csv"), default="json")
    p_analyze.add_argument("--out", default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_table = sub.add_parser("table", help="reference tables as CSV")
    p_table.add_argument("table", choices=("table1", "table2"))
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=cmd_table)

    p_figure = sub.add_parser("figure", help="figure data as CSV")
    p_figure.add_argument("figure", choices=("fig1", "fig2", "mixed-sweep"))
    p_figure.add_argument("--start", type=float, default=0.0)
    p_figure.add_argument("--stop", type=float, default=0.5)
    p_figure.add_argument("--steps", type=int, default=11)
    p_figure.add_argument("--out", default=None)
    p_figure.set_defaults(func=cmd_figure)

    p_grid = sub.add_parser("grid", help="Wigner samples on a square grid")
    _add_state_flags(p_grid)
    p_grid.add_argument("--cutoff", type=int, default=None)
    p_grid.add_argument("--half-width", dest="half_width", type=float, default=5.0)
    p_grid.add_argument("--points", type=int, default=64)
    p_grid.add_argument("--out", default=None)
    p_grid.set_defaults(func=cmd_grid)

    p_multi = sub.add_parser("multicopy", help="operator route vs quadrature")
    _add_state_flags(p_multi)
    p_multi.add_argument("--cutoff", type=int, default=8)
    p_multi.add_argument("--dump-operator", dest="dump_operator", default=None)
    p_multi.add_argument("--dump-m", dest="dump_m", type=int, choices=(2, 3), default=2)
    p_multi.add_argument("--out", default=None)
    p_multi.set_defaults(func=cmd_multicopy)

    p_self = sub.add_parser("selftest", help="randomized soundness check")
    p_self.add_argument("--seed", type=int, default=20250815)
    p_self.add_argument("--count", type=int, default=25)
    p_self.add_argument("--out", default=None)
    p_self.set_defaults(func=cmd_selftest)

    parser.config_targets = [p_analyze, p_table, p_figure, p_grid, p_multi, p_self]
    return parser


def _load_config(path: str, targets) -> dict:
    """key=value defaults, each key a flag's dest in `targets`, typed and
    choice-checked as the flag is."""
    actions = {
        action.dest: action
        for target in targets
        for action in target._actions
        if action.option_strings and action.dest != "help"
    }
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InvalidArgumentError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in actions:
                    raise InvalidArgumentError(f"{path}:{lineno}: unknown key {key!r}")
                action = actions[key]
                try:
                    value = (action.type or str)(value.strip())
                    if action.choices is not None and value not in action.choices:
                        raise ValueError(f"{value!r} is not one of {tuple(action.choices)}")
                except ValueError as exc:
                    raise InvalidArgumentError(
                        f"{path}:{lineno}: bad value for {key}: {exc}"
                    ) from exc
                values[key] = value
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc}") from exc
    return values


def main(argv=None) -> int:
    _apply_thread_env()
    parser = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    try:
        if known.config:
            defaults = _load_config(known.config, parser.config_targets)
            for target in parser.config_targets:
                target.set_defaults(**defaults)
        args = parser.parse_args(argv)
        return args.func(args)
    except WignerMomentsError as exc:
        print(f"error ({exc.category}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
