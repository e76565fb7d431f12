"""Timing shims around the package's layer entry points, and their rollup.

The shims live here, not in the package: `install` rebinds each entry point
where its caller looks it up (a `from .x import y` binding is a separate
name from `x.y`) and returns a function that restores the originals. Spans
are recorded only while an operation is running, so reference checks made
by the benchmark between operations stay out of the trace.

A span records its name, start, end, parent span and operation id. A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time

from wignermoments import cli, moments, multicopy, oracle, states

FAMILIES = ("fock", "mixed01", "noon", "squeezed", "gaussian", "synth1", "synth2")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def dur(self):
        return (self.end - self.start) * 1e-9


class Tracer:
    """In-memory span recorder for a single-threaded closed loop."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None  # id of the running operation; None between operations

    def open(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self.op, attrs or {}))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None, after=None):
        """Span around fn.

        attrs(args, kwargs) gives the span's attributes at entry;
        after(span, result) may add more once fn has returned.
        """

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self.open(name, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                after(span, result)
            return result

        return shim

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start_ns": s.start,
                            "end_ns": s.end,
                            "parent": s.parent,
                            "op": s.op,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def _family(spec, used_cutoff, field):
    if used_cutoff is not None:
        return f"synth{field.modes}"
    return {
        states.Fock: "fock",
        states.MixedFock01: "mixed01",
        states.Noon: "noon",
        states.Tmsv: "squeezed",
        states.Spssv: "squeezed",
        states.GaussianCustom: "gaussian",
    }[type(spec)]


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def install(tracer: Tracer):
    """Shim every layer entry point; returns a callable that undoes it."""
    saved = []

    def put(module, attr, shim):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, shim)

    field_for_orig = moments.field_for

    @functools.wraps(field_for_orig)
    def field_for(spec, cutoff):
        if tracer.op is None:
            return field_for_orig(spec, cutoff)
        span = tracer.open("wigner.field_for")
        try:
            fld, used = field_for_orig(spec, cutoff)
        finally:
            tracer.close(span)
        family = _family(spec, used, fld)
        evaluate = tracer.wrap(
            "wigner.evaluate", fld.evaluate, lambda a, k: {"family": family, "points": len(a[0])}
        )
        return dataclasses.replace(fld, evaluate=evaluate), used

    def analyze_after(span, report):
        span.attrs["order"] = report.quadrature.order

    def moment_attrs(args, kwargs):
        fld, m = args[0], args[1]
        quad = _arg(args, kwargs, 2, "quad")
        order = quad.order if quad is not None else moments.exactness_order(fld, m)
        return {"m": m, "order": order}

    def ghi_attrs(args, kwargs):
        envelope, order = args[1], args[2]
        return {"nodes": order ** envelope.center.size}  # computed, not counted

    def observable_attrs(args, kwargs):
        m, cutoff = args[0], args[1]
        d = cutoff + 1
        # computed: the dense operator plus the Gram block it is accumulated in
        op_bytes = 16 * d ** (2 * m)
        gram_bytes = 16 * d ** (2 * (m - 1)) * d * d
        return {"m": m, "cutoff": cutoff, "bytes": op_bytes + gram_bytes}

    def cli_attrs(args, kwargs):
        argv = list(_arg(args, kwargs, 0, "argv") or [])
        return {"out": argv[argv.index("--out") + 1] if "--out" in argv else None}

    def cli_after(span, rc):
        out = span.attrs["out"]
        span.attrs["bytes"] = os.path.getsize(out) if out and os.path.exists(out) else 0

    put(moments, "analyze", tracer.wrap("moments.analyze", moments.analyze, after=analyze_after))
    put(moments, "field_for", field_for)
    put(moments, "moment", tracer.wrap("moments.moment", moments.moment, moment_attrs))
    put(moments, "gauss_hermite_integral",
        tracer.wrap("quadrature.gauss_hermite", moments.gauss_hermite_integral, ghi_attrs))
    put(moments, "state_from_spec", tracer.wrap("states.build", moments.state_from_spec))
    put(states, "state_from_spec", tracer.wrap("states.build", states.state_from_spec))
    put(multicopy, "fock_kernel_values", tracer.wrap("multicopy.kernel", multicopy.fock_kernel_values))
    put(multicopy, "multicopy_observable",
        tracer.wrap("multicopy.observable", multicopy.multicopy_observable, observable_attrs))
    put(multicopy, "multicopy_expectation",
        tracer.wrap("multicopy.contract", multicopy.multicopy_expectation))
    put(multicopy, "forward_backward_protocol",
        tracer.wrap("multicopy.protocol", multicopy.forward_backward_protocol))
    put(cli, "main", tracer.wrap("cli.main", cli.main, cli_attrs, cli_after))
    for name in ("radial_closed_form_moment", "noon_closed_form_moment", "trace_power"):
        put(oracle, name, tracer.wrap("oracle", getattr(oracle, name)))

    def uninstall():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return uninstall


def rollup(spans, passes):
    """Per-layer metrics per traced pass, from the recorded spans."""
    child = [0.0] * len(spans)
    eval_under_moment = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += s.dur
        if s.name == "wigner.evaluate":
            p = s.parent
            while p >= 0 and spans[p].name != "moments.moment":
                p = spans[p].parent
            if p >= 0:
                eval_under_moment[p] += s.dur

    def total(name, pred=None, self_time=False):
        return sum(
            (s.dur - child[i]) if self_time else s.dur
            for i, s in enumerate(spans)
            if s.name == name and (pred is None or pred(s))
        )

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def error_pass(s):
        parent = spans[s.parent] if s.parent >= 0 else None
        return parent is not None and parent.name == "moments.analyze" and s.attrs["order"] != parent.attrs.get("order")

    # sums over the traced passes, reported per pass
    nodes = sum(s.attrs["nodes"] for s in spans if s.name == "quadrature.gauss_hermite")
    sums = {
        "moments.analyze_s": total("moments.analyze"),
        "moments.moment_pass_s": total("moments.moment", lambda s: not error_pass(s)),
        "moments.error_pass_s": total("moments.moment", error_pass),
        "moments.calls": count("moments.moment"),
        "quadrature.self_s": sum(
            s.dur - eval_under_moment[i] for i, s in enumerate(spans) if s.name == "moments.moment"
        ),
        "quadrature.nodes": nodes,
        "wigner.field_build_s": total("wigner.field_for", self_time=True),
    }
    for f in FAMILIES:
        is_f = lambda s, f=f: s.attrs["family"] == f
        sums[f"wigner.eval_s.{f}"] = total("wigner.evaluate", is_f)
        sums[f"wigner.points.{f}"] = sum(
            s.attrs["points"] for s in spans if s.name == "wigner.evaluate" and is_f(s)
        )
    sums.update(
        {
            "states.build_s": total("states.build"),
            "states.build_calls": count("states.build"),
            "multicopy.o2_build_s": total("multicopy.observable", lambda s: s.attrs["m"] == 2),
            "multicopy.o3_build_s": total("multicopy.observable", lambda s: s.attrs["m"] == 3),
            "multicopy.kernel_s": total("multicopy.kernel"),
            "multicopy.contract_s": total("multicopy.contract"),
            "multicopy.protocol_s": total("multicopy.protocol"),
            "cli.self_s": total("cli.main", self_time=True),
            "cli.bytes_out": sum(s.attrs["bytes"] for s in spans if s.name == "cli.main"),
            "oracle.self_s": total("oracle", self_time=True),
        }
    )
    metrics = {k: v / passes for k, v in sums.items()}

    # ratios and rates from the sums, and a maximum: none of these is per pass
    def ratio(num, den):
        return sums[num] / sums[den] if sums[den] else 0.0

    metrics["moments.error_share"] = ratio("moments.error_pass_s", "moments.analyze_s")
    metrics["quadrature.nodes_per_s"] = nodes / total("quadrature.gauss_hermite") if nodes else 0.0
    for f in FAMILIES:
        metrics[f"wigner.points_per_s.{f}"] = ratio(f"wigner.points.{f}", f"wigner.eval_s.{f}")
    metrics["multicopy.o3_bytes"] = max(
        (s.attrs["bytes"] for s in spans if s.name == "multicopy.observable" and s.attrs["m"] == 3),
        default=0,
    )
    return metrics
