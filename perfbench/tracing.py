"""Per-layer tracing of the qbmg package from outside the program.

``Tracer.install`` replaces each traced public function with a timing
wrapper under every ``qbmg`` module name that refers to it, so calls made
inside the package (``qbmg.enumeration.canonical_form`` as well as
``qbmg.digraph.canonical_form``) are seen too.  Each call records one span
with its parent; generator functions are traced per ``next()`` call.  Spans
are kept for the current op only and folded into per-layer totals when the
op ends, so memory stays bounded however long the run is.

A layer's self time is its span's duration minus the time its child spans
cover.  The functions in ``HOT`` are called more than about 10^4 times per
op on some workload and call no traced function themselves; their calls are
aggregated per parent span as (count, summed time) instead of one span each.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

# (defining module, function) pairs traced, grouped by layer
TRACED = (
    ("enumeration", "run_mask_sweep"),
    ("enumeration", "all_bipartite_digraphs"),
    ("enumeration", "classify_qbmgs"),
    ("axioms", "is_qbmg_masks"),
    ("axioms", "recognize"),
    ("axioms", "find_n1_violation"),
    ("axioms", "find_n2_violation"),
    ("axioms", "find_n3_violation"),
    ("digraph", "canonical_form"),
    ("digraph", "identity_levels"),
    ("digraph", "weak_components"),
    ("digraph", "induced_subdigraph"),
    ("digraph", "underlying"),
    ("paths", "find_induced_path"),
    ("paths", "find_induced_cycle"),
    ("bicliques", "maximal_bicliques"),
    ("bicliques", "find_dominating_biclique"),
    ("decompose", "decompose_type_a"),
    ("decompose", "is_type_a"),
    ("decompose", "kos_partition"),
    ("orientation", "orient"),
    ("orientation", "topological_order"),
    ("orientation", "all_orientations"),
    ("trees", "qbmg_from_tree"),
    ("trees", "search_explanation"),
    ("trees", "phylogenetic_topologies"),
    ("trees", "tree_from_nested"),
    ("dgf", "format_dgf"),
    ("cli", "main"),
)

GENERATORS = frozenset({
    "enumeration.all_bipartite_digraphs",
    "orientation.all_orientations",
    "trees.phylogenetic_topologies",
})

# measured above 10^4 calls per op: is_qbmg_masks 3.65 M per sweep pass and
# 84,482 per classify op, all_bipartite_digraphs 84,482 yields and
# canonical_form / identity_levels 25,802 calls per classify op
HOT = frozenset({
    "axioms.is_qbmg_masks",
    "enumeration.all_bipartite_digraphs",
    "digraph.canonical_form",
    "digraph.identity_levels",
})


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "agg", "result")

    def __init__(self, name: str, parent: "Span | None", start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0  # time covered by child spans, aggregated ones included
        self.agg: dict[str, list[float]] | None = None  # name -> [count, seconds]
        self.result: Any = None  # return value; for a generator, whether it yielded

    def under(self, name: str) -> bool:
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """Collects spans of one op at a time and accumulates per-layer totals."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.yields: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # derived per-layer counts
        self.ops = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._codes: set[bytes] = set()

    # -- installation -------------------------------------------------------

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every traced function under each qbmg module that binds it."""
        for layer, func in TRACED:
            original = getattr(modules[layer], func)
            name = f"{layer}.{func}"
            if name in GENERATORS:
                wrapper = self._wrap_generator(name, original)
            elif name in HOT:
                wrapper = self._wrap_hot(name, original)
            else:
                wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "qbmg" and not mod_name.startswith("qbmg."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, spans = self._stack, self._spans

        def traced(*args, **kwargs):
            if not stack:  # called by an oracle, outside any op
                return fn(*args, **kwargs)
            span = Span(name, stack[-1], perf_counter())
            stack.append(span)
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                span.parent.child += span.end - span.start
                spans.append(span)
            return span.result

        return traced

    def _wrap_hot(self, name: str, fn: Callable) -> Callable:
        stack, counts, codes = self._stack, self.counts, self._codes
        accept_key = "axioms.is_qbmg_masks.accepted"
        is_masks = name == "axioms.is_qbmg_masks"
        is_canon = name == "digraph.canonical_form"

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = perf_counter()
            result = fn(*args, **kwargs)
            took = perf_counter() - start
            parent = stack[-1]
            parent.child += took
            if parent.agg is None:
                parent.agg = {}
            entry = parent.agg.get(name)
            if entry is None:
                parent.agg[name] = [1, took]
            else:
                entry[0] += 1
                entry[1] += took
            if is_masks:
                if result:
                    counts[accept_key] += 1
            elif is_canon:
                codes.add(result.code)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            return _TracedIterator(tracer, name, fn(*args, **kwargs))

        return traced

    # -- per-op bookkeeping ---------------------------------------------------

    def begin_op(self) -> None:
        self._stack.append(Span("op", None, perf_counter()))

    def end_op(self) -> None:
        root = self._stack.pop()
        self._fold(root)
        self._spans.clear()
        self._codes.clear()
        self.ops += 1

    def _fold(self, root: Span) -> None:
        counts = self.counts
        if root.agg:
            self._fold_agg(root.agg)
        topologies: Counter[Span] = Counter()  # yielded topologies per search span
        for span in self._spans:
            name = span.name
            self.self_s[name] += span.end - span.start - span.child
            self.calls[name] += 1
            if span.agg:
                self._fold_agg(span.agg)
            if name == "enumeration.run_mask_sweep" and span.result:
                counts["enumeration.graphs_generated"] += span.result
            elif name == "axioms.recognize":
                if span.result is not None and span.result.witness is not None:
                    counts["axioms.recognize.witnesses"] += 1
                if span.under("decompose.decompose_type_a"):
                    counts["decompose.recognize_calls"] += 1
            elif name == "trees.phylogenetic_topologies" and span.result:
                topologies[span.parent] += 1
        for span in self._spans:
            if span.name == "trees.search_explanation":
                if span.result is not None:
                    counts["trees.explained"] += 1
                else:
                    counts["trees.rejected_searches"] += 1
                    counts["trees.topologies_in_rejected"] += topologies[span]
        counts["digraph.canonical_form.distinct"] += len(self._codes)

    def _fold_agg(self, agg: dict[str, list[float]]) -> None:
        for name, (count, seconds) in agg.items():
            self.self_s[name] += seconds
            self.calls[name] += count


class _TracedIterator:
    """Times each ``next()`` of a traced generator as one span."""

    __slots__ = ("tracer", "name", "inner", "hot")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self.tracer = tracer
        self.name = name
        self.inner = inner
        self.hot = name in HOT

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        stack = tracer._stack
        parent = stack[-1]
        if self.hot:
            start = perf_counter()
            try:
                item = next(self.inner)
            finally:
                took = perf_counter() - start
                parent.child += took
                if parent.agg is None:
                    parent.agg = {}
                entry = parent.agg.setdefault(self.name, [0, 0.0])
                entry[0] += 1
                entry[1] += took
        else:
            span = Span(self.name, parent, perf_counter())
            stack.append(span)
            try:
                item = next(self.inner)
                span.result = True
            finally:
                span.end = perf_counter()
                stack.pop()
                parent.child += span.end - span.start
                tracer._spans.append(span)
        tracer.yields[self.name] += 1
        return item
