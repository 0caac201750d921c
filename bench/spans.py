"""In-memory tracing of comptest's layers, from outside the package.

``instrument(tracer)`` replaces, for the duration of a ``with`` block, the
module attributes through which comptest calls its own layers. Coarse
calls (sheet parsing, validation, compile, emit, load, allocate, execute,
render) record one span each: name, start, end, parent. Hot calls
(``lower_status``, ``classify_value``, ``parse_expr``, ``eval_expr`` and
the DUT's methods) record only a count and a total time under their
parent span. Nothing is written until the caller asks for it.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter_ns

_NS = 1e-9

#: (module, attribute, span name) for every coarse call.
COARSE = (
    ("comptest.cli", "parse_signal_sheet", "ingest.parse_signal_sheet"),
    ("comptest.cli", "parse_status_sheet", "ingest.parse_status_sheet"),
    ("comptest.cli", "parse_test_sheet", "ingest.parse_test_sheet"),
    ("comptest.cli", "parse_resource_sheet", "ingest.parse_resource_sheet"),
    ("comptest.cli", "parse_connection_sheet",
     "ingest.parse_connection_sheet"),
    ("comptest.cli", "compile_sheets", "compiler.compile"),
    ("comptest.compiler", "validate_sheets", "sheets.validate_sheets"),
    ("comptest.cli", "emit_xml", "compiler.emit_xml"),
    ("comptest.cli", "load_script", "script.load_script"),
    ("comptest.cli", "execute", "runner.execute"),
    ("comptest.runner", "allocate", "stand.allocate"),
    ("comptest.cli", "report_to_json", "runner.report_to_json"),
)

#: (module, attribute, aggregate name) for every hot call.
HOT = (
    ("comptest.compiler", "lower_status", "compiler.lower_status"),
    ("comptest.script", "classify_value", "script.classify_value"),
    ("comptest.script", "parse_expr", "expr.parse_expr"),
    ("comptest.runner", "eval_expr", "expr.eval_expr"),
)

DUT_METHODS = ("set_input", "advance", "read_pin")


class Tracer:
    def __init__(self):
        # [id, request, name, start ns, end ns, parent id]
        self.spans: list[list] = []
        # (parent id, name) -> [calls, total ns, ns of calls not nested in
        # another hot call]; only the last counts against the parent's self
        # time.
        self.hot: dict[tuple[int, str], list[int]] = {}
        # (request, name) -> count
        self.counts: dict[tuple[int, str], int] = {}
        self.request = 0
        self._stack = [0]
        self._hot_depth = 0

    # --- recording ------------------------------------------------------

    def span(self, name: str, fn, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            rec = [len(self.spans) + 1, self.request, name, 0, 0,
                   self._stack[-1]]
            self.spans.append(rec)
            self._stack.append(rec[0])
            rec[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, args, exc)
                raise
            finally:
                rec[4] = perf_counter_ns()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced

    def hot_call(self, name: str, fn):
        def traced(*args, **kwargs):
            outer = self._hot_depth == 0
            self._hot_depth += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                self._hot_depth -= 1
                agg = self.hot.setdefault((self._stack[-1], name), [0, 0, 0])
                agg[0] += 1
                agg[1] += took
                if outer:
                    agg[2] += took
        return traced

    def count(self, name: str, n: int = 1):
        key = (self.request, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap_dut(self, dut):
        for method in DUT_METHODS:
            setattr(dut, method, self.hot_call(f"dut.{method}",
                                               getattr(dut, method)))
        return dut

    # --- reading ----------------------------------------------------------

    def layers(self, request: int) -> dict[str, float]:
        """Per-layer metrics of one request (one compile plus one run)."""
        spans = [s for s in self.spans if s[1] == request]
        ids = {s[0] for s in spans}
        dur: dict[str, int] = {}
        child_ns: dict[int, int] = {}
        for sid, _, name, start, end, parent in spans:
            dur[name] = dur.get(name, 0) + end - start
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        hot_count: dict[str, int] = {}
        hot_ns: dict[str, int] = {}
        for (parent, name), (n, ns, outer) in self.hot.items():
            if parent in ids:
                hot_count[name] = hot_count.get(name, 0) + n
                hot_ns[name] = hot_ns.get(name, 0) + ns
                child_ns[parent] = child_ns.get(parent, 0) + outer

        def self_ns(*names):
            return sum(end - start - child_ns.get(sid, 0)
                       for sid, _, name, start, end, _ in spans
                       if name in names)

        def d(name):
            return dur.get(name, 0) * _NS

        counts = {name: n for (req, name), n in self.counts.items()
                  if req == request}
        resource = counts.get("stand.resource_bindings", 0)
        return {
            "ingest.parse_s": (d("ingest.parse_signal_sheet")
                               + d("ingest.parse_status_sheet")
                               + d("ingest.parse_test_sheet")),
            "ingest.rows": counts.get("ingest.rows", 0),
            "ingest.stand_parse_s": (d("ingest.parse_resource_sheet")
                                     + d("ingest.parse_connection_sheet")),
            "sheets.validate_s": d("sheets.validate_sheets"),
            "compiler.lower_calls": hot_count.get("compiler.lower_status", 0),
            "compiler.lower_s": hot_ns.get("compiler.lower_status", 0) * _NS,
            "compiler.self_s": self_ns("compiler.compile") * _NS,
            "compiler.emit_s": d("compiler.emit_xml"),
            "script.load_s": d("script.load_script"),
            "script.classify_calls": hot_count.get("script.classify_value", 0),
            "expr.parse_calls": hot_count.get("expr.parse_expr", 0),
            "expr.eval_calls": hot_count.get("expr.eval_expr", 0),
            "expr.eval_s": hot_ns.get("expr.eval_expr", 0) * _NS,
            "stand.allocate_calls": counts.get("stand.allocate_calls", 0),
            "stand.allocate_s": d("stand.allocate"),
            "stand.requirements": counts.get("stand.requirements", 0),
            "stand.held_ratio": (counts.get("stand.held_bindings", 0)
                                 / resource if resource else 0.0),
            "stand.alloc_errors": counts.get("stand.alloc_errors", 0),
            "runner.execute_s": d("runner.execute"),
            "runner.self_s": self_ns("runner.execute") * _NS,
            "runner.render_s": d("runner.report_to_json"),
            "dut.set_input_calls": hot_count.get("dut.set_input", 0),
            "dut.read_pin_calls": hot_count.get("dut.read_pin", 0),
            "dut.busy_s": sum(hot_ns.get(f"dut.{m}", 0)
                              for m in DUT_METHODS) * _NS,
            "cli.self_s": self_ns("cli.main") * _NS,
        }

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": [dict(zip(("id", "request", "name", "start_ns", "end_ns",
                                "parent"), s)) for s in self.spans],
            "hot": [{"parent": parent, "name": name, "count": n,
                     "total_ns": ns}
                    for (parent, name), (n, ns, _) in self.hot.items()],
            "counts": [{"request": req, "name": name, "value": n}
                       for (req, name), n in self.counts.items()],
        }


def _rows_parsed(tracer: Tracer, args, table):
    tracer.count("ingest.rows", len(getattr(table, "steps", table)))


def _allocate_called(tracer: Tracer, args):
    tracer.count("stand.allocate_calls")
    tracer.count("stand.requirements", len(args[0]))


def _allocated(tracer: Tracer, args, allocation):
    _allocate_called(tracer, args)
    bound = [b for b in allocation.bindings if b.delivery == "resource"]
    tracer.count("stand.resource_bindings", len(bound))
    tracer.count("stand.held_bindings", sum(b.held for b in bound))


def _allocation_failed(tracer: Tracer, args, exc: Exception):
    from comptest.errors import AllocationError
    _allocate_called(tracer, args)
    if isinstance(exc, AllocationError):
        tracer.count("stand.alloc_errors")


_HOOKS = {
    "ingest.parse_signal_sheet": (_rows_parsed, None),
    "ingest.parse_status_sheet": (_rows_parsed, None),
    "ingest.parse_test_sheet": (_rows_parsed, None),
    "stand.allocate": (_allocated, _allocation_failed),
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route comptest's internal layer calls through ``tracer``."""
    import importlib
    saved = []
    try:
        for module_name, attr, name in COARSE + HOT:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            if (module_name, attr, name) in HOT:
                wrapped = tracer.hot_call(name, fn)
            else:
                wrapped = tracer.span(name, fn,
                                      *_HOOKS.get(name, (None, None)))
            setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def median_layers(per: list[dict[str, float]]) -> dict[str, float]:
    """Median of every layer metric over the requests' ``layers()``."""
    return {key: (statistics.median_low if isinstance(per[0][key], int)
                  else statistics.median)([p[key] for p in per])
            for key in per[0]}
