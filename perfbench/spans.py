"""Span tracer that instruments tablepaths from outside the package.

``Tracer.install`` replaces the public functions of each traced module, and a
few named methods, with wrappers that record spans.  A function is replaced
under every name that refers to it inside the package, because modules such
as ``cli`` and ``recurrence`` bind ``build_table`` with ``from ... import``
and look it up in their own namespace.  ``Tracer.uninstall`` puts the
originals back.  Nothing inside the package is edited.

A span records its name, layer (module), start, end, parent and request id.
Functions called 10^4..10^6 times per request (``HOT``) are aggregated
instead: one record per (parent span, name) holding the call count and the
summed time.  Self time is a record's time minus the time of its direct
children.  Everything stays in memory until ``metrics`` reads it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("pathtable", "deltaops", "recurrence", "gfmatrix", "docs", "suite",
          "cli")

# (module, class, method) -> record name
METHODS = {
    ("deltaops", "DeltaPoly", "apply"): "deltaops.apply",
    ("pathtable", "PathTable", "row"): "pathtable.row",
    ("gfmatrix", "GFMatrix", "pow"): "gfmatrix.pow",
    ("gfmatrix", "GFMatrix", "__matmul__"): "gfmatrix.matmul",
    ("gfmatrix", "GFMatrix", "det"): "gfmatrix.det",
}

HOT = frozenset({
    "deltaops.apply", "pathtable.row", "gfmatrix.matmul", "gfmatrix.is_prime",
    "deltaops.multiplier", "deltaops.parity_family", "deltaops.base_constant",
    "recurrence.det_bareiss", "recurrence.odd_matrix",
    "recurrence.even_matrix",
})


class Record:
    """One span, or one (parent, name) aggregate of hot calls."""

    __slots__ = ("name", "layer", "parent", "request", "start", "end",
                 "calls", "total", "child")

    def __init__(self, name, layer, parent, request):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.start = self.end = None
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Collects the spans of one traced pass over a request list."""

    def __init__(self):
        self.records: list[Record] = []
        self.counters: Counter = Counter()
        self._stack: list[Record] = []
        self._patches: list[tuple[object, str, object]] = []
        self._built: dict[tuple[object, int], int] = {}
        self._factored: set[int] = set()
        self._pows_seen: Counter = Counter()
        self._observers = {
            "gfmatrix.matmul": self._observe_matmul,
            "deltaops.apply": self._observe_apply,
            "pathtable.build_table": self._observe_build_table,
            "gfmatrix.factor": self._observe_factor,
            "gfmatrix.pow": self._observe_pow,
            "docs.render_document": self._observe_render,
            "suite.run_suite": self._observe_suite,
        }

    # -- requests ---------------------------------------------------------

    def begin_request(self, request_id) -> None:
        root = Record("request", "bench", None, request_id)
        root.calls = 1
        self.records.append(root)
        self._stack.append(root)
        root.start = time.perf_counter()

    def end_request(self) -> None:
        root = self._stack.pop()
        root.end = time.perf_counter()
        root.total = root.end - root.start
        if self._stack:
            raise RuntimeError("span stack not empty after a request")

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"tablepaths.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module("tablepaths"), *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patch(ns, attr, wrapper)
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._wrap(name, layer, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr, wrapper) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, wrapper)

    def _wrap(self, name, layer, fn):
        observe = self._observers.get(name)
        if name in HOT:
            return self._hot_wrapper(name, layer, fn, observe)
        return self._span_wrapper(name, layer, fn, observe)

    def _span_wrapper(self, name, layer, fn, observe):
        perf = time.perf_counter
        stack, records = self._stack, self.records

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            rec = Record(name, layer, parent, parent.request)
            rec.calls = 1
            records.append(rec)
            stack.append(rec)
            rec.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = perf()
                stack.pop()
                rec.total = rec.end - rec.start
                parent.child += rec.total
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, name, layer, fn, observe):
        perf = time.perf_counter
        stack, records = self._stack, self.records
        aggregates: dict[int, Record] = {}

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            rec = aggregates.get(id(parent))
            if rec is None:
                rec = aggregates[id(parent)] = Record(name, layer, parent,
                                                      parent.request)
                records.append(rec)
            stack.append(rec)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                rec.calls += 1
                rec.total += elapsed
                parent.child += elapsed
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at the layer boundaries ------------------------------

    def _observe_matmul(self, rec, args, kwargs, result):
        self.counters["gfmatrix.matmul.mac"] += args[0].n ** 3

    def _observe_apply(self, rec, args, kwargs, result):
        d = max(args[0].degree, 0)
        self.counters["deltaops.apply.diff_ops"] += d * (d + 1) // 2

    def _observe_build_table(self, rec, args, kwargs, result):
        m = _arg(args, kwargs, 0, "m")
        n_max = _arg(args, kwargs, 1, "n_max")
        self.counters["pathtable.build_table.cells"] += m * n_max
        key = (rec.request, m)
        if self._built.get(key, 0) >= n_max:
            self.counters["pathtable.build_table.repeats"] += 1
        self._built[key] = max(self._built.get(key, 0), n_max)

    def _observe_factor(self, rec, args, kwargs, result):
        n = _arg(args, kwargs, 0, "n")
        if n in self._factored:
            self.counters["gfmatrix.factor.repeats"] += 1
        self._factored.add(n)
        if not result.complete:
            self.counters["gfmatrix.factor.incomplete"] += 1
            self.counters["gfmatrix.factor.cofactor_bits"] += (
                result.cofactor.bit_length())

    def _observe_pow(self, rec, args, kwargs, result):
        # In order_is_full the first powering is mat**(q^n - 1); every later
        # one is a refinement that lowers the order when it gives I.
        parent = rec.parent
        if parent.name != "gfmatrix.order_is_full":
            return
        self._pows_seen[id(parent)] += 1
        if self._pows_seen[id(parent)] > 1:
            self.counters["gfmatrix.order_is_full.refinements"] += 1
            if result.is_identity():
                self.counters["gfmatrix.order_is_full.refine_hits"] += 1

    def _observe_render(self, rec, args, kwargs, result):
        self.counters["docs.render_document.bytes"] += len(result)

    def _observe_suite(self, rec, args, kwargs, result):
        # run_suite times each registry check itself; read it off the report.
        for check in result.checks:
            self.counters[f"suite.check.{check.name}.s"] += check.elapsed

    # -- reading the trace --------------------------------------------------

    def check_nesting(self) -> list[str]:
        """Records that start before, end after or last longer than their
        parent span."""
        bad = []
        for rec in self.records:
            parent = rec.parent
            if parent is None:
                continue
            if rec.start is None:
                outlasts = rec.total > parent.total
            else:
                outlasts = rec.start < parent.start or rec.end > parent.end
            if outlasts:
                bad.append(f"{rec.name} outlasts {parent.name}")
        return bad

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of this pass, keyed by metric name."""
        time_of: Counter = Counter()
        calls_of: Counter = Counter()
        self_of: Counter = Counter()
        for rec in self.records:
            calls_of[rec.name] += rec.calls
            time_of[rec.name] += rec.total
            self_of[rec.layer] += rec.total - rec.child
        out: dict[str, float] = {}
        for name in time_of:
            out[f"{name}.s"] = time_of[name]
            out[f"{name}.calls"] = calls_of[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_of[layer]
        out.update(self.counters)
        out["gfmatrix.factor.repeat_ratio"] = _ratio(
            self.counters["gfmatrix.factor.repeats"],
            calls_of["gfmatrix.factor"])
        out["pathtable.build_table.repeat_ratio"] = _ratio(
            self.counters["pathtable.build_table.repeats"],
            calls_of["pathtable.build_table"])
        out["gfmatrix.order_is_full.refine_hit_ratio"] = _ratio(
            self.counters["gfmatrix.order_is_full.refine_hits"],
            self.counters["gfmatrix.order_is_full.refinements"])
        return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0
