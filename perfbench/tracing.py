"""Per-layer tracing from outside the program.

`Tracer` wraps public functions of the spanembed modules.  Every module that
holds a function under its name gets the same wrapper, so calls through any
import path, and nested calls inside the function's own module, are seen.
Each call leaves a span (name, start, end, parent) in memory; counters read
the wrapped function's arguments and result.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import ExitStack
from unittest import mock


def _moved(args, out):
    return {"balancing.moved_vertices": out[1].total_moved()}


# (layer, function, counter) for every traced function; a counter maps the
# call's positional arguments and result to increments of named counts.
TRACED = [
    ("graph_core", "gnp", lambda a, out: {"graph_core.host_edges": out.m}),
    ("graph_core", "paley", lambda a, out: {"graph_core.host_edges": out.m}),
    ("harness", "adversary_delete", lambda a, out: {"harness.deleted_edges": a[0].m - out.m}),
    ("harness", "make_guest", None),
    ("oracles", "bijumbled_check", None),
    (
        "reduced_graph",
        "prepare_host",
        lambda a, out: {"reduced_graph.rows": out.r, "reduced_graph.v0_size": len(out.v0)},
    ),
    ("regularity", "check_lower_regular", None),
    ("regularity", "check_two_sided_regular", None),
    ("regularity", "check_super_regular", None),
    ("regularity", "min_degree_regular_partition", None),
    ("regularity", "energy_partition", None),
    ("guest_prep", "assign_guest", None),
    ("guest_prep", "check_bounded_order", None),
    ("pre_embedding", "reserve_set", None),
    ("pre_embedding", "pre_embed", lambda a, out: {"pre_embedding.anchors": len(out[0].anchors)}),
    ("pre_embedding", "validate_restriction_pair", None),
    ("balancing", "global_balance", _moved),
    ("balancing", "local_balance", _moved),
    ("embedder", "choose_buffers", lambda a, out: {"embedder.buffer_vertices": out.mask().bit_count()}),
    ("embedder", "embed", lambda a, out: {"embedder.restarts": out.retries}),
    ("embedder", "verify_embedding", None),
]

COUNTERS = (
    "graph_core.host_edges", "harness.deleted_edges", "reduced_graph.rows",
    "reduced_graph.v0_size", "pre_embedding.anchors", "balancing.moved_vertices",
    "embedder.restarts", "embedder.buffer_vertices",
)


class Tracer:
    """Spans and counts of the traced functions, over every call while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _wrap(self, fn, name: str, counter):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                self.counts.update(counter(args, out))
            return out

        return traced

    def __enter__(self):
        self._stack = ExitStack()
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "spanembed"]
        for layer, fname, counter in TRACED:
            original = getattr(sys.modules[f"spanembed.{layer}"], fname)
            wrapper = self._wrap(original, f"{layer}.{fname}", counter)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self._stack.enter_context(mock.patch.object(mod, fname, wrapper))
        return self

    def __exit__(self, *exc):
        return self._stack.__exit__(*exc)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Inclusive and self seconds per traced function, call counts and counters."""
        total = {f"{layer}.{fname}": 0.0 for layer, fname, _ in TRACED}
        own = dict(total)
        calls = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        out = {}
        for layer, fname, _ in TRACED:
            name = f"{layer}.{fname}"
            if layer == "regularity":  # the regularity engine is also measured in calls
                out[f"{name}_calls"] = (calls[name], "count")
            out[f"{name}_s"] = (total[name], "s")
            out[f"{name}_self_s"] = (own[name], "s")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        return out

    def write_spans(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
