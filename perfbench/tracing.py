"""Spans and counts recorded around the engine's public functions.

``Tracer.install`` replaces the module attributes the engine calls
through with timing wrappers, from outside the package; nothing under
``src/`` changes.  A name that a later version no longer has is listed
in ``absent`` and skipped, and the run goes on.

Spans live in memory.  Calls of one name under one parent span (of
one operation) are merged into a single span record that keeps the first start, the last
end, the summed busy time and the call count; this keeps a pass with
hundreds of thousands of ``analyze`` calls to a few hundred records.
A generator (``enumerate_pairings``) is busy only while it computes its
next item, so its busy time is the sum over those steps.  Self time is
a span's busy time minus the busy time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module[:class], attribute, span name, how the attribute is called)
HOOKS = (
    ("multitrace.algebra", "enumerate_pairings", "ribbon.enumerate", "generator"),
    ("multitrace.algebra", "analyze", "ribbon.analyze", "function"),
    ("multitrace.algebra", "scheme_coefficient", "algebra.assemble", "function"),
    ("multitrace.algebra", "result_generator", "algebra.assemble", "function"),
    ("multitrace.algebra", "product", "algebra.product", "function"),
    ("multitrace.transport", "enumerate_pairings", "ribbon.enumerate", "generator"),
    ("multitrace.transport", "analyze", "ribbon.analyze", "function"),
    ("multitrace.transport", "result_generator", "algebra.assemble", "function"),
    ("multitrace.transport", "transport", "transport", "function"),
    ("multitrace.observables:Series", "build", "observables.merge", "static"),
    ("multitrace.coeffring:Coefficient", "build", "coeffring.build", "static"),
    ("multitrace.exprparse", "parse_series", "exprparse.parse", "function"),
    ("multitrace.cli", "parse_series", "exprparse.parse", "function"),
    ("multitrace.exprparse", "render_series", "exprparse.render", "function"),
    ("multitrace.cli", "render_series", "exprparse.render", "function"),
    ("multitrace.cli", "main", "cli.main", "function"),
    ("multitrace.oracle", "oracle_moment", "oracle.moment", "function"),
    ("multitrace.cli", "oracle_moment", "oracle.moment", "function"),
)

# per-layer metric -> (unit, span the layer is read from)
LAYER_METRICS = {
    "ribbon.enumerate.s": ("s", "ribbon.enumerate"),
    "ribbon.enumerate.schemes": ("count", "ribbon.enumerate"),
    "ribbon.enumerate.pruned": ("count", "ribbon.enumerate"),
    "ribbon.analyze.s": ("s", "ribbon.analyze"),
    "ribbon.analyze.calls": ("count", "ribbon.analyze"),
    "ribbon.analyze.useful_ratio": ("1", "ribbon.analyze"),
    "algebra.assemble.s": ("s", "algebra.assemble"),
    "algebra.assemble.calls": ("count", "algebra.assemble"),
    "algebra.product.s": ("s", "algebra.product"),
    "algebra.product.calls": ("count", "algebra.product"),
    "observables.merge.s": ("s", "observables.merge"),
    "observables.merge.entries_in": ("count", "observables.merge"),
    "observables.merge.terms_out": ("count", "observables.merge"),
    "observables.merge.collision_ratio": ("1", "observables.merge"),
    "coeffring.build.s": ("s", "coeffring.build"),
    "coeffring.build.calls": ("count", "coeffring.build"),
    "coeffring.build.entries_in": ("count", "coeffring.build"),
    "exprparse.parse.s": ("s", "exprparse.parse"),
    "exprparse.parse.bytes_in": ("B", "exprparse.parse"),
    "exprparse.render.s": ("s", "exprparse.render"),
    "exprparse.render.bytes_out": ("B", "exprparse.render"),
    "cli.main.self_s": ("s", "cli.main"),
    "transport.self_s": ("s", "transport"),
    "transport.schemes": ("count", "transport"),
    "oracle.moment.s": ("s", "oracle.moment"),
    "oracle.moment.calls": ("count", "oracle.moment"),
    "oracle.grid_cells": ("count", "oracle.moment"),
    "trace.overhead_ratio": ("1", None),
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "busy", "calls")

    def __init__(self, name: str, parent: int, op: int) -> None:
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = None
        self.busy = 0.0
        self.calls = 0

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _sized_or_counted(entries, counts: Counter, key: str):
    """Count build inputs; a generator is wrapped so it is counted as consumed."""
    try:
        counts[key] += len(entries)
        return entries
    except TypeError:
        def counted():
            for item in entries:
                counts[key] += 1
                yield item
        return counted()


class Tracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: forget spans and counts, keep the hooks."""
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.enumerations: list[dict] = []
        self._merged: dict[tuple[int, str, int], int] = {}
        self._stack: list[int] = []
        self._op = -1

    # -- span bookkeeping ------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        key = (parent, name, self._op)
        idx = self._merged.get(key)
        if idx is None:
            idx = self._merged[key] = len(self.spans)
            self.spans.append(Span(name, parent, self._op))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, t0: float, t1: float, calls: int = 1) -> None:
        self._stack.pop()
        span = self.spans[idx]
        if span.start is None:
            span.start = t0
        span.end = t1
        span.busy += t1 - t0
        span.calls += calls

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_t0 = perf_counter()
        self._op_idx = self._enter("op")

    def end_op(self) -> None:
        self._exit(self._op_idx, self._op_t0, perf_counter())
        self._op = -1

    # -- hooks -----------------------------------------------------------------

    def install(self) -> None:
        for target, attr, name, style in HOOKS:
            module_name, _, class_name = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if class_name and owner is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{target}.{attr}")
                continue
            if style == "generator":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_function(name, attr, original)
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, staticmethod(wrapper) if style == "static" else wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_present(self, span_name: str) -> bool:
        return any(name == span_name and f"{t}.{a}" not in self.absent
                   for t, a, name, _ in HOOKS)

    def _wrap_function(self, name: str, attr: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts
            if name == "observables.merge" and len(args) > 1:
                args = (args[0], _sized_or_counted(args[1], counts, name), *args[2:])
            elif name == "coeffring.build" and args:
                args = (_sized_or_counted(args[0], counts, name), *args[1:])
            idx = tracer._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, t0, perf_counter())
            counts[f"calls:{attr}"] += 1
            if name == "observables.merge":
                counts["terms_out"] += len(result.terms)
            elif name == "exprparse.parse" and args:
                counts["bytes_in"] += len(str(args[0]).encode())
            elif name == "exprparse.render":
                counts["bytes_out"] += len(result.encode())
            elif name == "oracle.moment" and len(args) > 1:
                legs = sum(gen.size for gen in args[0])
                counts["grid_cells"] += args[1].n ** legs
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            legs_b = args[1] if len(args) > 1 else kwargs.get("legs_b")
            record = {
                "legs_a": len(args[0]),
                "legs_b": None if legs_b is None else len(legs_b),
                "capped": kwargs.get("max_eps_degree") is not None,
                "caller": tracer.spans[parent].name if parent >= 0 else None,
                "op": tracer._op,
                "yielded": 0,
                "pruned": None,
            }
            tracer.enumerations.append(record)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer._enter(name)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._exit(idx, t0, perf_counter())
                        break
                    tracer._exit(idx, t0, perf_counter(), calls=0)
                    record["yielded"] += 1
                    yield item
            finally:
                stats = kwargs.get("stats")
                for field in ("pruned_branches", "pruned"):
                    if hasattr(stats, field):
                        record["pruned"] = getattr(stats, field)
                        break

        return wrapper

    # -- derived metrics -------------------------------------------------------

    def _outermost(self) -> list[int]:
        """Spans not nested inside a span of the same name."""
        keep = []
        for i, span in enumerate(self.spans):
            p = span.parent
            while p >= 0 and self.spans[p].name != span.name:
                p = self.spans[p].parent
            if p < 0:
                keep.append(i)
        return keep

    def layer_values(self) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last ``reset``."""
        child_busy: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_busy[span.parent] += span.busy
        busy: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in self._outermost():
            span = self.spans[i]
            busy[span.name] += span.busy
            self_time[span.name] += span.busy - child_busy[i]
            calls[span.name] += span.calls
        c = self.counts
        enums = self.enumerations
        analyze_calls = calls["ribbon.analyze"]
        merge_in = c["observables.merge"]
        pruned = [e["pruned"] for e in enums]
        return {
            "ribbon.enumerate.s": busy["ribbon.enumerate"],
            "ribbon.enumerate.schemes": sum(e["yielded"] for e in enums),
            "ribbon.enumerate.pruned": (sum(pruned) if None not in pruned else None),
            "ribbon.analyze.s": busy["ribbon.analyze"],
            "ribbon.analyze.calls": analyze_calls,
            "ribbon.analyze.useful_ratio": (c["calls:result_generator"] / analyze_calls
                                            if analyze_calls else 0.0),
            "algebra.assemble.s": busy["algebra.assemble"],
            "algebra.assemble.calls": calls["algebra.assemble"],
            "algebra.product.s": busy["algebra.product"],
            "algebra.product.calls": calls["algebra.product"],
            "observables.merge.s": self_time["observables.merge"],
            "observables.merge.entries_in": merge_in,
            "observables.merge.terms_out": c["terms_out"],
            "observables.merge.collision_ratio": ((merge_in - c["terms_out"]) / merge_in
                                                  if merge_in else 0.0),
            "coeffring.build.s": busy["coeffring.build"],
            "coeffring.build.calls": calls["coeffring.build"],
            "coeffring.build.entries_in": c["coeffring.build"],
            "exprparse.parse.s": busy["exprparse.parse"],
            "exprparse.parse.bytes_in": c["bytes_in"],
            "exprparse.render.s": busy["exprparse.render"],
            "exprparse.render.bytes_out": c["bytes_out"],
            "cli.main.self_s": self_time["cli.main"],
            "transport.self_s": self_time["transport"],
            "transport.schemes": sum(e["yielded"] for e in enums
                                     if e["caller"] == "transport"),
            "oracle.moment.s": busy["oracle.moment"],
            "oracle.moment.calls": calls["oracle.moment"],
            "oracle.grid_cells": c["grid_cells"],
        }

    def write(self, path, passes: list[list[Span]]) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for number, spans in enumerate(passes):
                for span in spans:
                    out.write(json.dumps({"pass": number, **span.as_dict()}) + "\n")
