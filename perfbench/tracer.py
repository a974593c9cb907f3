"""Run one acx CLI invocation with per-layer instrumentation.

    python3 perfbench/tracer.py TRACE_OUT.json -- <acx argv...>

The program under test is imported from the PYTHONPATH the harness sets
(``src``).  Before the CLI runs, the public entry points of each layer are
wrapped from outside: stage spans for coarse calls, aggregate timers and
counters for hot calls (no span per call).  Stdout is left to the CLI, so it
is byte-identical to ``python -m acx.cli <argv>``; the trace goes to
TRACE_OUT.json.  The exit code is the CLI's.

Trace format: ``{"argv", "exit", "spans", "aggregates"}``.  Every span is
``{"name", "counters", "children", "start_s", "dur_s", "self_s"}``; the
counters are the aggregate call counts accrued inside the span.  Only the
``*_s`` fields are timings, so two traces of one invocation differ in those
fields alone.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter


class _Span:
    """A stage; `counters` holds the aggregate call counts at entry until
    the span is left, then the counts accrued inside it."""

    __slots__ = ("name", "start", "end", "children", "counters")

    def __init__(self, name, start, counters):
        self.name = name
        self.start = start
        self.end = None
        self.children = []
        self.counters = counters


class Aggregate:
    """A timer plus counters for one hot call site, with no span per call."""

    __slots__ = ("calls", "time", "depth", "extra")

    def __init__(self, *extra):
        self.calls = 0
        self.time = 0.0
        self.depth = 0
        self.extra = dict.fromkeys(extra, 0)


class Tracer:
    def __init__(self):
        self.origin = _clock()
        self.root = _Span("process", 0.0, {})
        self.stack = [self.root]
        self.aggs = {}

    # --- spans

    def _calls(self):
        return {name: agg.calls for name, agg in self.aggs.items()}

    def enter(self, name):
        span = _Span(name, _clock() - self.origin, self._calls())
        self.stack[-1].children.append(span)
        self.stack.append(span)
        return span

    def leave(self, span):
        span.end = _clock() - self.origin
        after = self._calls()
        span.counters = {
            k: after[k] - span.counters.get(k, 0)
            for k in sorted(after)
            if after[k] != span.counters.get(k, 0)
        }
        self.stack.pop()

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(span)

        return wrapper

    # --- aggregates

    def aggregate(self, name, *extra):
        if name not in self.aggs:
            self.aggs[name] = Aggregate(*extra)
        return self.aggs[name]

    def timed(self, name, fn, count=None, extra=()):
        """Time fn into the aggregate `name`, outermost call only.

        count(agg, args, kwargs), when given, adds to the aggregate's extra
        counters before the call.
        """
        agg = self.aggregate(name, *extra)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg.calls += 1
            if count is not None:
                count(agg, args, kwargs)
            if agg.depth:
                return fn(*args, **kwargs)
            agg.depth = 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                agg.time += _clock() - t0
                agg.depth = 0

        return wrapper

    def counted(self, name, key, fn, measure):
        """Count fn's calls and add measure(result) to counter `key`."""
        agg = self.aggregate(name, key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            agg.calls += 1
            agg.extra[key] += measure(result)
            return result

        return wrapper

    # --- output

    def _span_json(self, span):
        children = [self._span_json(c) for c in span.children]
        dur = span.end - span.start
        return {
            "name": span.name,
            "counters": span.counters,
            "children": children,
            "start_s": span.start,
            "dur_s": dur,
            "self_s": dur - sum(c["dur_s"] for c in children),
        }

    def to_json(self, argv, code):
        self.leave(self.root)
        return {
            "argv": list(argv),
            "exit": code,
            "spans": self._span_json(self.root),
            "aggregates": {
                name: dict(
                    {"calls": agg.calls, "time_s": agg.time},
                    **agg.extra,
                )
                for name, agg in sorted(self.aggs.items())
            },
        }


def _rebind(original, wrapper):
    """Point every acx module binding of `original` at `wrapper`.

    Modules import entry points by name (hodge imports kernel_basis, cli
    imports load_model_file), so patching the defining module alone would
    miss those call sites.
    """
    for modname, module in list(sys.modules.items()):
        if modname != "acx" and not modname.startswith("acx."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_function(module, name, make):
    original = getattr(module, name)
    _rebind(original, make(original))


def _patch_method(cls, name, make):
    setattr(cls, name, make(cls.__dict__[name]))


SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "conjugate", "inverse",
)


def install(tracer):
    """Wrap the layer entry points of the acx package."""
    from acx import bundles, cli, forms, g2, hodge, lie, linalg, models
    from acx import scalars, torus

    # scalars: one timer shared by Scalar and SymScalar, outermost call only
    sc = tracer.aggregate("scalars", "symscalar_new", "symbolic")
    for cls in (scalars.Scalar, scalars.SymScalar):
        for op in SCALAR_OPS:
            if op in cls.__dict__:
                _patch_method(cls, op, lambda f: tracer.timed("scalars", f))

    def count_symbolic(init):
        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            sc.extra["symscalar_new"] += 1
            if len(self.num) > 1 or len(self.den) > 1:
                sc.extra["symbolic"] += 1

        return tracer.timed("scalars", wrapper)

    _patch_method(scalars.SymScalar, "__init__", count_symbolic)

    # lie
    _patch_method(lie.LieAlgebra, "_check_jacobi",
                  lambda f: tracer.span("lie.jacobi", f))
    _patch_method(lie.ACStructure, "__init__",
                  lambda f: tracer.span("lie.j_check", f))
    _patch_method(lie.ComplexCoframe, "complex_constants",
                  lambda f: tracer.span("lie.complex_constants", f))
    _patch_function(lie, "build_coframe", lambda f: tracer.span("lie.coframe", f))
    _patch_function(lie, "nijenhuis", lambda f: tracer.span("lie.nijenhuis", f))
    _patch_function(lie, "is_integrable",
                    lambda f: tracer.span("lie.integrability", f))

    def count_inputs(agg, args, kwargs):
        _, u, v = args
        agg.extra["inputs"] += len(u) + len(v)
        agg.extra["nonzero_inputs"] += sum(
            1 for c in u if not c.is_zero()
        ) + sum(1 for c in v if not c.is_zero())

    _patch_method(
        lie.LieAlgebra, "bracket_vectors",
        lambda f: tracer.timed("lie.bracket_vectors", f, count_inputs,
                               ("inputs", "nonzero_inputs")),
    )

    # linalg: every elimination goes through row_echelon
    def count_cells(agg, args, kwargs):
        rows = args[0]
        agg.extra["cells"] += len(rows) * (len(rows[0]) if rows else 0)

    _patch_function(linalg, "row_echelon",
                    lambda f: tracer.timed("linalg.row_echelon", f, count_cells,
                                           ("cells",)))
    _patch_function(linalg, "mat_vec", lambda f: tracer.timed("linalg.mat_vec", f))

    # forms, hodge, bundles
    _patch_method(forms.Form, "wedge", lambda f: tracer.timed("forms.wedge", f))
    _patch_method(hodge.HermitianData, "star",
                  lambda f: tracer.timed("hodge.star", f))
    _patch_function(hodge, "invariant_harmonic_space", lambda f: tracer.span(
        "hodge.harmonic",
        tracer.counted("hodge.blocks", "blocks", f, lambda space: len(space.blocks)),
    ))
    _patch_function(hodge, "_operator_matrix", lambda f: tracer.counted(
        "hodge.operator_matrix", "cells", f, lambda out: len(out[0]) * out[1],
    ))
    _patch_method(bundles.CanonicalPower, "__init__",
                  lambda f: tracer.span("bundles.canonical_power", f))

    # g2: the sphere's checks and the cached algebra
    for name, span in (
        ("verify_bracket_table", "g2.bracket_table"),
        ("membership_sample_check", "g2.membership"),
        ("verify_projection", "g2.projection"),
        ("s6_hodge_report", "g2.census"),
        ("g2_algebra", "g2.algebra"),
    ):
        _patch_function(g2, name, lambda f, span=span: tracer.span(span, f))

    # models
    _patch_function(models, "load_model_file",
                    lambda f: tracer.span("models.load", f))

    # torus: public functions share one outermost timer
    mode_window = torus.mode_window

    def count_modes(agg, args, kwargs):
        window = args[2] if len(args) > 2 else kwargs.get("window")
        if window is None:
            window = mode_window()
        agg.extra["modes"] += (2 * window + 1) ** 2

    for name in sorted(vars(torus)):
        obj = getattr(torus, name)
        if name.startswith("_") or not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) != torus.__name__:
            continue
        count = count_modes if name == "kt_mode_oracle" else None
        _patch_function(torus, name, lambda f, count=count: tracer.timed(
            "torus", f, count, ("modes",)))

    # cli: run is parse + dispatch + render; the handler is its child span
    for command, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[command] = tracer.span("cli.handler", handler)
    _patch_function(cli, "run", lambda f: tracer.span("cli.run", f))
    return cli


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_OUT.json -- <acx argv...>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    code = 2
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(cli_argv, code), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
