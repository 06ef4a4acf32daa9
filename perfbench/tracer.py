"""Outside-in tracer: wraps the public functions of each youngbounds layer.

Nothing under ``src/`` is touched. ``Tracer.install`` replaces, in every
loaded ``youngbounds`` module namespace, each name bound to a public function
of a layer module with a wrapper that records a span; ``restore`` puts every
original object back. Wrappers must sit in the *importing* namespace because
``from .numerics import extremum`` binds the name at import time:
``catalog.extremum`` and ``numerics.extremum`` (reached by ``norm_r``) are two
separate bindings of one function, and both are wrapped.

A span is (operation id, span id, parent span id, name, start ns, end ns).
Calls nest strictly (one thread), so a span's self time is its duration minus
the summed durations of its direct children, kept on a stack as spans close.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("expr", "numerics", "young", "catalog", "report", "cli")

# Callables handed to these functions are wrapped to count their calls.
_COUNTED_CALLABLE = {
    "numerics.integrate": "numerics.integrate.f_calls",
    "numerics.extremum": "numerics.extremum.f_calls",
    "numerics.invert": "numerics.invert.h_calls",
}
_JET_ORDER_BUCKETS = 6  # o6 collects every order >= 6


def layer_functions(package) -> dict[int, tuple[object, str]]:
    """id(function) -> (function, "layer.name") for every public function."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[id(obj)] = (obj, f"{layer}.{name}")
    return found


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self, package, keep_spans: bool = True):
        self.package = package
        self.keep_spans = keep_spans
        self.domain_error = package.DomainError
        self.youngbounds_error = package.YoungBoundsError
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        targets = layer_functions(self.package)
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(obj, hit[1]))

    def restore(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        counts = self.counts
        stack = self._stack
        clock = time.perf_counter_ns
        domain_error = self.domain_error
        youngbounds_error = self.youngbounds_error
        is_expr = name.startswith("expr.")
        is_jet = name == "expr.jet"
        callable_counter = _COUNTED_CALLABLE.get(name)
        is_integrate = name == "numerics.integrate"
        is_oracle = name == "young.oracle"
        is_run_method = name == "catalog.run_method"

        def wrapper(*args, **kwargs):
            span_name = name
            counts[name + ".calls"] += 1
            if is_jet:
                order = args[2] if len(args) > 2 else kwargs["order"]
                counts[f"expr.jet.calls.o{min(max(order, 1), _JET_ORDER_BUCKETS)}"] += 1
            elif callable_counter is not None:
                inner = args[0]

                def counted(x):
                    counts[callable_counter] += 1
                    return inner(x)

                args = (counted,) + args[1:]
            elif is_run_method:
                method = args[2] if len(args) > 2 else kwargs["name"]
                span_name = f"catalog.{method}"
                counts["catalog.rows"] += 1

            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except youngbounds_error as exc:
                if is_expr and isinstance(exc, domain_error):
                    counts["expr.domain_errors"] += 1
                elif is_run_method:
                    counts["catalog.row_errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.self_ns[span_name] += dur - frame[1]
                self.total_ns[span_name] += dur
                if self.keep_spans:
                    self.spans.append((self.op_id, span_id, parent, span_name, start, end))
            if is_integrate:
                counts["numerics.integrate.panels"] += result.evaluations // 15
            elif is_oracle:
                counts["young.oracle.evaluations"] += result.evaluations
            elif is_run_method and result.applicable:
                counts["catalog.applicable_rows"] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def write_spans(self, path) -> None:
        """One JSON array per line: [op, span, parent, name, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


# Counters that must repeat exactly between two traced passes on one seed.
def deterministic_counts(counts: Counter) -> dict[str, int]:
    keys = [k for k in counts if k.endswith((".calls", ".panels", ".h_calls", ".f_calls"))
            or ".calls.o" in k]
    keys += ["young.oracle.evaluations", "catalog.rows", "catalog.row_errors"]
    return {k: counts.get(k, 0) for k in sorted(set(keys))}


def per_layer_metrics(tracer: Tracer, ops: int, methods, overhead_ratio: float) -> dict:
    """The per-layer metric set, normalized per operation; see README.md."""
    c, s, t = tracer.counts, tracer.self_ns, tracer.total_ns
    per_op = lambda v: v / ops
    sec = lambda ns: ns / 1e9 / ops
    m: dict[str, tuple[float, str]] = {}
    for k in range(1, _JET_ORDER_BUCKETS + 1):
        m[f"expr.jet.calls.o{k}"] = (per_op(c[f"expr.jet.calls.o{k}"]), "count")
    m["expr.jet.self_s"] = (sec(s["expr.jet"]), "s")
    m["expr.evaluate.calls"] = (per_op(c["expr.evaluate.calls"]), "count")
    m["expr.evaluate.self_s"] = (sec(s["expr.evaluate"]), "s")
    m["expr.parse_expr.calls"] = (per_op(c["expr.parse_expr.calls"]), "count")
    m["expr.parse_expr.self_s"] = (sec(s["expr.parse_expr"]), "s")
    m["expr.domain_errors"] = (per_op(c["expr.domain_errors"]), "count")
    m["numerics.extremum.calls"] = (per_op(c["numerics.extremum.calls"]), "count")
    m["numerics.extremum.f_calls"] = (per_op(c["numerics.extremum.f_calls"]), "count")
    m["numerics.extremum.self_s"] = (sec(s["numerics.extremum"]), "s")
    m["numerics.norm_r.calls"] = (per_op(c["numerics.norm_r.calls"]), "count")
    m["numerics.norm_r.self_s"] = (sec(s["numerics.norm_r"]), "s")
    m["numerics.integrate.calls"] = (per_op(c["numerics.integrate.calls"]), "count")
    m["numerics.integrate.panels"] = (per_op(c["numerics.integrate.panels"]), "count")
    m["numerics.integrate.f_calls"] = (per_op(c["numerics.integrate.f_calls"]), "count")
    m["numerics.integrate.self_s"] = (sec(s["numerics.integrate"]), "s")
    m["numerics.invert.calls"] = (per_op(c["numerics.invert.calls"]), "count")
    m["numerics.invert.h_calls"] = (per_op(c["numerics.invert.h_calls"]), "count")
    m["numerics.invert.self_s"] = (sec(s["numerics.invert"]), "s")
    m["young.make_problem.self_s"] = (sec(s["young.make_problem"]), "s")
    m["young.anchors.self_s"] = (sec(s["young.anchors"]), "s")
    m["young.oracle.self_s"] = (sec(s["young.oracle"]), "s")
    m["young.oracle.evaluations"] = (per_op(c["young.oracle.evaluations"]), "count")
    for method in methods:
        m[f"catalog.{method}.total_s"] = (sec(t[f"catalog.{method}"]), "s")
    rows = c["catalog.rows"]
    m["catalog.rows"] = (per_op(rows), "count")
    m["catalog.row_errors"] = (per_op(c["catalog.row_errors"]), "count")
    m["catalog.applicable_ratio"] = (c["catalog.applicable_rows"] / rows if rows else 0.0, "ratio")
    m["report.load_problem.self_s"] = (sec(s["report.load_problem"]), "s")
    m["report.run_report.self_s"] = (sec(s["report.run_report"]), "s")
    m["report.render_s"] = (sec(t["report.report_to_dict"] + t["report.render_table"]), "s")
    m["report.sweep.self_s"] = (sec(s["report.sweep"]), "s")
    m["cli.main.self_s"] = (sec(s["cli.main"]), "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
