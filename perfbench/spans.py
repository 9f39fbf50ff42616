"""Span tracing of mixedpf from outside, and the per-layer metrics it yields.

:meth:`Tracer.installed` replaces public functions of mixedpf by wrappers,
in the module namespaces where their callers look them up, and restores
them on exit.  Each call records a span (name, start, end, parent span,
input id, work count) in memory.  An untraced run installs nothing.

The private per-subset context of ``mixedpf.evaluator`` is not wrapped, so
context set-up stays in ``evaluator.search_self_s`` together with the
coloring search.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from mixedpf import connection, evaluator, graph, oracles


def _masks_and_found(args, result):
    frag = graph.as_fragment(args[0])
    return 2**frag.graph.n_edges, len(result)


def _colorings(args, result):
    return sum(r.colorings for r in result), 0


def _cells(args, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0), 0


#: (module, attribute, span name, work counter) for every wrapped function
WRAP_POINTS = (
    (evaluator, "partition_function_many", "evaluator.pf", _colorings),
    (evaluator, "enumerate_eulerian_subsets", "graph.subsets", _masks_and_found),
    (evaluator, "eulerian_state", "graph.state", None),
    (evaluator, "decompose", "graph.decompose", None),
    (graph, "enumerate_eulerian_subsets", "graph.subsets", _masks_and_found),
    (connection, "eulerian_state", "graph.state", None),
    (connection, "decompose", "graph.decompose", None),
    (connection, "glue", "graph.glue", None),
    (connection, "connection_matrix", "connection.matrix", None),
    (connection, "fragment_tensor", "connection.tensor", None),
    (connection, "gram_pairing", "connection.pairing", None),
    (connection, "matrix_rank", "linalg.rank", _cells),
    (oracles, "charpoly_oracle", "oracles.charpoly", None),
    (oracles, "sachs_oracle", "oracles.sachs", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAP_POINTS))


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[name, start_ns, end_ns, parent, input_id, work, found]``;
    ``parent`` is the index of the enclosing span or -1, and ``work`` and
    ``found`` are the wrap point's counts (masks tried and subsets found,
    colorings, matrix cells) or 0.
    """

    def __init__(self):
        self.spans = []
        self.input_id = -1
        self._open = [-1]

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1], self.input_id, 0, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5], span[6] = counter(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in WRAP_POINTS]
        try:
            for (module, attr, name, counter), (_, _, fn) in zip(WRAP_POINTS, originals):
                setattr(module, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def layer_metrics(self, first: int = 0) -> dict:
        """Per-layer metrics of the spans recorded from index ``first`` on."""
        return layer_metrics(self.spans, first)

    def write(self, path):
        """Write every span as one tab-separated line, times in nanoseconds."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\tinput\twork\tfound\n")
            for index, span in enumerate(self.spans):
                out.write("\t".join(map(str, [index] + span)) + "\n")


def layer_metrics(spans, first: int = 0) -> dict:
    """Per-layer times and exact counts over ``spans[first:]``.

    Times are in seconds and are self time: a span's duration minus that of
    its direct children.  ``evaluator.pf_s`` alone is inclusive.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    work = dict.fromkeys(SPAN_NAMES, 0)
    found = dict.fromkeys(SPAN_NAMES, 0)
    entries = 0
    for name, start, end, parent, _, w, f in spans[first:]:
        calls[name] += 1
        total[name] += end - start
        self_ns[name] += end - start
        work[name] += w
        found[name] += f
        if parent >= 0:
            parent_span = spans[parent]
            self_ns[parent_span[0]] -= end - start
            if name == "evaluator.pf" and parent_span[0] == "connection.matrix":
                entries += 1

    def sec(ns):
        return ns / 1e9

    return {
        "graph.subsets_s": sec(self_ns["graph.subsets"]),
        "graph.subsets_calls": calls["graph.subsets"],
        "graph.subsets_found": found["graph.subsets"],
        "graph.masks_tried": work["graph.subsets"],
        "graph.subset_yield": found["graph.subsets"] / max(work["graph.subsets"], 1),
        "graph.state_s": sec(self_ns["graph.state"]),
        "graph.decompose_s": sec(self_ns["graph.decompose"]),
        "graph.states_built": calls["graph.state"],
        "graph.glue_s": sec(self_ns["graph.glue"]),
        "graph.glue_calls": calls["graph.glue"],
        "evaluator.pf_s": sec(total["evaluator.pf"]),
        "evaluator.search_self_s": sec(self_ns["evaluator.pf"]),
        "evaluator.calls": calls["evaluator.pf"],
        "evaluator.colorings": work["evaluator.pf"],
        "connection.matrix_s": sec(self_ns["connection.matrix"]),
        "connection.matrix_entries": entries,
        "connection.tensor_s": sec(self_ns["connection.tensor"]),
        "connection.tensors": calls["connection.tensor"],
        "connection.pairing_s": sec(self_ns["connection.pairing"]),
        "connection.pairings": calls["connection.pairing"],
        "linalg.rank_s": sec(self_ns["linalg.rank"]),
        "linalg.rank_calls": calls["linalg.rank"],
        "linalg.rank_cells": work["linalg.rank"],
        "oracles.charpoly_s": sec(self_ns["oracles.charpoly"]),
        "oracles.sachs_s": sec(self_ns["oracles.sachs"]),
        "oracles.calls": calls["oracles.charpoly"] + calls["oracles.sachs"],
    }


#: per-layer metrics that count work; they must repeat exactly for a fixed seed
COUNT_METRICS = (
    "graph.subsets_calls",
    "graph.subsets_found",
    "graph.masks_tried",
    "graph.states_built",
    "graph.glue_calls",
    "evaluator.calls",
    "evaluator.colorings",
    "connection.matrix_entries",
    "connection.tensors",
    "connection.pairings",
    "linalg.rank_calls",
    "linalg.rank_cells",
    "oracles.calls",
)
