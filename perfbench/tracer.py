"""In-memory span tracer wrapped around the library's public layer calls.

The benchmark never edits the library.  For a traced run it replaces a
fixed set of methods and functions (see :data:`SPANS`, :data:`LEAVES`
and :data:`COUNTED`) with thin wrappers that record one span per call,
and restores the originals afterwards.  Three kinds of boundary exist:

* **spans** — recorded one record per call: name, start and end
  (``perf_counter_ns``), parent span, op id and self time.  They nest.
* **leaves** — per-cube calls made tens of thousands of times per op
  (single-cube ``count``, ``offer``, Eq. 1).  Each call is timed, but
  only ``(calls, time)`` is kept, folded into the enclosing span, so
  memory stays bounded.  A leaf never contains another traced call.
* **counted** — ``Subspace`` construction, counted and not timed.

Spans stay in memory and are written out when the run ends.
:func:`reduce_spans` turns them into calls, busy time and self time per
name; :func:`reconcile` checks, for every op, that the self times of
the op span and everything below it add up to the op span exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

# Span record layout (lists, to keep millions of fields cheap).
NAME, START, END, PARENT, OP, SELF = range(6)


@dataclass
class Tracer:
    """Span store plus the call stack the wrappers push onto."""

    names: list[str] = field(default_factory=list)
    spans: list[list[int]] = field(default_factory=list)
    #: ``(span index, leaf name) -> [calls, total ns, accepted]``.
    leaves: dict[tuple[int, str], list[int]] = field(default_factory=dict)
    #: Counted-only boundaries and derived counters (bytes computed).
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Calls that started inside a leaf (must stay 0).
    nested_in_leaf: int = 0
    op_id: int = -1
    _name_ids: dict[str, int] = field(default_factory=dict)
    #: Frames: ``[span index, child ns]``; a leaf frame has index -1.
    _stack: list[list[int]] = field(default_factory=list)

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _parent_span(self) -> int:
        return self._stack[-1][0] if self._stack else -1

    def call_span(self, name: str, func: Callable, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == -1:
            self.nested_in_leaf += 1
            return func(*args, **kwargs)
        idx = len(self.spans)
        record = [self._name_id(name), 0, 0, self._parent_span(), self.op_id, 0]
        self.spans.append(record)
        frame = [idx, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            record[START], record[END] = start, end
            record[SELF] = duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def call_leaf(self, name: str, func: Callable, args, kwargs, accept=None):
        stack = self._stack
        if stack and stack[-1][0] == -1:
            self.nested_in_leaf += 1
            return func(*args, **kwargs)
        parent = self._parent_span()
        frame = [-1, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = func(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
        key = (parent, name)
        entry = self.leaves.get(key)
        if entry is None:
            entry = self.leaves[key] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        if accept is not None and accept(result):
            entry[2] += 1
        return result

    # -- output ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable dump of every span and leaf table."""
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "self_ns"],
            "names": list(self.names),
            "spans": self.spans,
            "leaves": [
                [span, name, calls, total, accepted]
                for (span, name), (calls, total, accepted) in self.leaves.items()
            ],
            "counters": dict(self.counters),
            "nested_in_leaf": self.nested_in_leaf,
        }


# ----------------------------------------------------------------------
# What gets wrapped.  Each entry: (module, attribute path, span name).
# A span name may be a callable of the bound instance, so the same
# method reports under the layer the instance belongs to.


def _counter_layer(counter) -> str:
    from repro.grid.sharded import ShardedCounter

    return "grid.sharded" if isinstance(counter, ShardedCounter) else "grid.counter"


def _row_bytes(counter) -> int:
    """Bytes of one (dimension, range) membership mask of *counter*."""
    if getattr(counter, "_packed_stack", False):
        return 8 * ((counter.n_points + 63) // 64)
    return counter.n_points


SPANS: list[tuple[str, str, Any]] = [
    ("repro.core.detector", "SubspaceOutlierDetector.detect", "core.detector"),
    ("repro.core.detector", "SubspaceOutlierDetector.detect_model", "core.detector"),
    ("repro.model.grid_model", "GridModel.fit", "model.grid_model.fit"),
    ("repro.model.grid_model", "GridModel.update", "model.grid_model.update"),
    ("repro.model.grid_model", "GridModel.score", "model.grid_model.score"),
    ("repro.grid.discretizer", "GridDiscretizer.fit", "grid.discretizer.fit"),
    ("repro.grid.discretizer", "GridDiscretizer.fit_transform", "grid.discretizer.fit"),
    ("repro.grid.discretizer", "GridDiscretizer.transform", "grid.discretizer.transform"),
    ("repro.grid.counter", "CubeCounter.__init__", "grid.counter.build"),
    ("repro.grid.sharded", "ShardedCounter.__init__", "grid.counter.build"),
    ("repro.grid.sharded", "ShardedMaskStore.build", "grid.sharded.store_build"),
    ("repro.grid.counter", "CubeCounter.count_batch",
     lambda self: _counter_layer(self) + ".count_batch"),
    ("repro.grid.counter", "CubeCounter.append_rows", "grid.counter.append_rows"),
    ("repro.search.evolutionary.selection", "RankRouletteSelection.select",
     "search.evolutionary.selection"),
    ("repro.search.evolutionary.crossover", "CrossoverOperator.apply",
     "search.evolutionary.crossover"),
    ("repro.search.evolutionary.mutation", "BalancedMutation.apply",
     "search.evolutionary.mutation"),
    ("repro.search.evolutionary.population", "FitnessEvaluator.score_batch",
     "search.evolutionary.fitness"),
    # The depth-first enumeration emits no level_end events; its
    # recursion depth gives the per-level times instead.
    ("repro.search.brute_force", "BruteForceSearch._extend",
     "search.brute_force.extend"),
]

LEAVES: list[tuple[str, str, Any]] = [
    ("repro.grid.counter", "CubeCounter.count",
     lambda self: _counter_layer(self) + ".count"),
    ("repro.grid.counter", "CubeCounter.extension_counts",
     "grid.counter.extension_counts"),
    ("repro.search.best_set", "BestProjectionSet.offer", "search.best_set.offer"),
]

#: Module-level functions wrapped as leaves wherever they are bound.
LEAF_FUNCTIONS: list[tuple[str, str, str]] = [
    ("repro.sparsity.coefficient", "sparsity_coefficient", "sparsity.coefficient"),
    ("repro.sparsity.coefficient", "sparsity_coefficients", "sparsity.coefficient"),
]

COUNTED: list[tuple[str, str, str]] = [
    ("repro.core.subspace", "Subspace.__post_init__", "core.subspace.constructed"),
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Installed:
    """The set of patches applied by :func:`install`; undo with :meth:`remove`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _method_wrapper(tracer: Tracer, raw, name, leaf: bool):
    """Wrap a function stored in a class ``__dict__`` (plain or classmethod)."""
    is_classmethod = isinstance(raw, classmethod)
    func = raw.__func__ if is_classmethod else raw
    counters = tracer.counters

    if func.__name__ == "count_batch":
        # Consume the iterable once so the estimates below see the same
        # cubes the counter does.  A miss ANDs k masks.
        @functools.wraps(func)
        def wrapper(self, subspaces, *args, **kwargs):
            subspaces = list(subspaces)
            calls, hits = self.n_count_calls, self.n_cache_hits
            out = tracer.call_span(name(self), func, (self, subspaces, *args), kwargs)
            looked_up = self.n_count_calls - calls
            hit = self.n_cache_hits - hits
            counters["grid.counter.lookups"] += looked_up
            counters["grid.counter.hits"] += hit
            counters["grid.counter.batch_cubes"] += len(subspaces)
            if subspaces and looked_up > hit:
                counters["grid.counter.bytes_computed"] += (
                    (looked_up - hit) * len(subspaces[0].dims) * _row_bytes(self)
                )
            return out

    elif func.__name__ == "count":
        @functools.wraps(func)
        def wrapper(self, subspace, *args, **kwargs):
            hits = self.n_cache_hits
            out = tracer.call_leaf(name(self), func, (self, subspace, *args), kwargs)
            counters["grid.counter.lookups"] += 1
            if self.n_cache_hits != hits:
                counters["grid.counter.hits"] += 1
            else:
                counters["grid.counter.bytes_computed"] += (
                    len(subspace.dims) * _row_bytes(self)
                )
            return out

    elif func.__name__ == "append_rows":
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rows = tracer.call_span(name, func, args, kwargs)
            counters["grid.counter.append_rows"] += rows
            return rows

    elif leaf:
        accept = bool if func.__name__ == "offer" else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call_leaf(name, func, args, kwargs, accept)

    else:

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return tracer.call_span(name, func, args, kwargs)

    return classmethod(wrapper) if is_classmethod else wrapper


def install(tracer: Tracer) -> Installed:
    """Wrap every traced boundary; returns the handle that undoes it."""
    installed = Installed()
    for table, leaf in ((SPANS, False), (LEAVES, True)):
        for module_name, path, name in table:
            owner, attr = _resolve(module_name, path)
            installed.patch(
                owner, attr, _method_wrapper(tracer, owner.__dict__[attr], name, leaf)
            )
    for module_name, func_name, name in LEAF_FUNCTIONS:
        original = getattr(importlib.import_module(module_name), func_name)

        def make(original=original, name=name):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.call_leaf(name, original, args, kwargs)

            return wrapper

        wrapper = make()
        # Rebind in every loaded library module that imported it by name.
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and module.__dict__.get(func_name) is original
            ):
                installed.patch(module, func_name, wrapper)
    for module_name, path, name in COUNTED:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        counters = tracer.counters

        def counted(self, _original=original, _name=name):
            counters[_name] += 1
            _original(self)

        installed.patch(owner, attr, counted)
    return installed


# ----------------------------------------------------------------------
# Reduction


@dataclass
class Reduced:
    """Per-name totals of one traced run."""

    calls: dict[str, int]
    busy_ns: dict[str, int]
    self_ns: dict[str, int]
    leaf_calls: dict[str, int]
    leaf_ns: dict[str, int]
    leaf_accepted: dict[str, int]
    #: ``(enclosing span name, leaf name) -> calls``.
    leaf_calls_under: dict[tuple[str, str], int]
    #: Brute-force level (1-based) -> seconds of work at that level.
    level_ns: dict[int, int]


def _depths(spans: list[list[int]], extend_id: int | None) -> list[int]:
    """Recursion depth of each ``_extend`` span (0 for the outermost)."""
    depth = [0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if extend_id is not None and span[NAME] == extend_id and parent >= 0:
            if spans[parent][NAME] == extend_id:
                depth[i] = depth[parent] + 1
    return depth


def reduce_spans(tracer: Tracer) -> Reduced:
    names, spans = tracer.names, tracer.spans
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for span in spans:
        name = names[span[NAME]]
        calls[name] += 1
        self_ns[name] += span[SELF]
        # Busy time counts a recursive span once, at its outermost call.
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != span[NAME]:
            busy[name] += span[END] - span[START]
    leaf_calls: dict[str, int] = defaultdict(int)
    leaf_ns: dict[str, int] = defaultdict(int)
    leaf_accepted: dict[str, int] = defaultdict(int)
    under: dict[tuple[str, str], int] = defaultdict(int)
    for (span_idx, name), (n, total, accepted) in tracer.leaves.items():
        leaf_calls[name] += n
        leaf_ns[name] += total
        leaf_accepted[name] += accepted
        # Attribute the leaf to every enclosing span name (once each).
        seen = set()
        idx = span_idx
        while idx >= 0:
            owner = names[spans[idx][NAME]]
            if owner not in seen:
                seen.add(owner)
                under[(owner, name)] += n
            idx = spans[idx][PARENT]
    # Level k of the depth-first enumeration is the work an _extend call
    # at recursion depth k-1 does itself: its span minus the deeper
    # _extend spans it started.
    extend_id = tracer._name_ids.get("search.brute_force.extend")
    level_ns: dict[int, int] = defaultdict(int)
    if extend_id is not None:
        depth = _depths(spans, extend_id)
        for i, span in enumerate(spans):
            if span[NAME] != extend_id:
                continue
            level_ns[depth[i] + 1] += span[END] - span[START]
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == extend_id:
                level_ns[depth[i]] -= span[END] - span[START]
    return Reduced(
        calls=dict(calls), busy_ns=dict(busy), self_ns=dict(self_ns),
        leaf_calls=dict(leaf_calls), leaf_ns=dict(leaf_ns),
        leaf_accepted=dict(leaf_accepted), leaf_calls_under=dict(under),
        level_ns=dict(level_ns),
    )


def reconcile(tracer: Tracer) -> list[str]:
    """Check the span tree; returns the problems found (empty = sound).

    For every root span (one per op): each child lies inside its
    parent, and the self times of the root and of every span and leaf
    below it sum to the root's duration exactly (integer nanoseconds).
    """
    spans = tracer.spans
    problems: list[str] = []
    if tracer.nested_in_leaf:
        problems.append(f"{tracer.nested_in_leaf} traced calls ran inside a leaf")
    leaf_ns_by_span: dict[int, int] = defaultdict(int)
    for (span_idx, _), (_, total, _) in tracer.leaves.items():
        leaf_ns_by_span[span_idx] += total
    subtree_self: list[int] = [0] * len(spans)
    # Children are appended after their parents, so one reverse pass
    # folds every subtree into its root.
    for i in range(len(spans) - 1, -1, -1):
        span = spans[i]
        if span[END] < span[START]:
            problems.append(f"span {i} ({tracer.names[span[NAME]]}) never closed")
        subtree_self[i] += span[SELF] + leaf_ns_by_span.get(i, 0)
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                problems.append(
                    f"span {i} ({tracer.names[span[NAME]]}) escapes its parent"
                )
            subtree_self[parent] += subtree_self[i]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            continue
        duration = span[END] - span[START]
        if subtree_self[i] != duration:
            problems.append(
                f"op {span[OP]} root {tracer.names[span[NAME]]}: self times "
                f"sum to {subtree_self[i]} ns, span is {duration} ns"
            )
    return problems
