"""Spans around the public functions of distchroma, installed from outside.

A wrapper replaces every module-level binding of a traced function, in every
loaded ``distchroma`` module, because ``coloring`` and ``spectral`` import
``girth``, ``power_graph`` and ``is_connected`` by name: patching ``metrics``
alone would miss those calls. Spans are aggregated in memory as they close,
per function and per (caller, callee) pair, and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs whose spans are recorded.
TRACED = (
    ("graphs", "parse_graph6"),
    ("graphs", "encode_graph6"),
    ("metrics", "is_connected"),
    ("metrics", "power_graph"),
    ("metrics", "girth"),
    ("metrics", "shortest_cycle"),
    ("metrics", "diameter"),
    ("metrics", "vertex_connectivity"),
    ("metrics", "max_clique"),
    ("coloring", "dsatur_upper_bound"),
    ("coloring", "chromatic_number"),
    ("coloring", "distance_chromatic_number"),
    ("coloring", "save_color_strategy"),
    ("spectral", "spectral_radius"),
    ("spectral", "power_matrix_inequalities"),
    ("spectral", "spectral_power_bounds"),
    ("bounds", "detect_moore"),
    ("bounds", "evaluate_bounds"),
    ("bounds", "scan_one"),
    ("cli", "main"),
)

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


class Tracer:
    """Aggregates spans: calls, total and self seconds per function.

    Self time is a span's duration minus the duration of the spans it
    caused. ``search_free`` counts ``chromatic_number`` calls whose clique
    lower bound equalled the DSATUR upper bound, so no search ran.
    """

    def __init__(self):
        self.calls = {name: 0 for name in TRACED_NAMES}
        self.total_s = {name: 0.0 for name in TRACED_NAMES}
        self.self_s = {name: 0.0 for name in TRACED_NAMES}
        self.edges: dict[str, int] = {}
        self.search_free = 0
        self._stack: list[list] = []  # [name, child seconds, omega, dsatur k]

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0, None, None]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                edge = f"{parent[0] if parent else 'bench'}>{name}"
                self.edges[edge] = self.edges.get(edge, 0) + 1
            self._note(name, result, frame, parent)
            return result

        return span

    def _note(self, name, result, frame, parent) -> None:
        if name == "metrics.max_clique" and parent is not None:
            parent[2] = result[0]
        elif name == "coloring.dsatur_upper_bound" and parent is not None:
            parent[3] = result.k
        elif name == "coloring.chromatic_number" and frame[2] == frame[3]:
            self.search_free += 1

    def install(self) -> None:
        """Replace every binding of each traced function in loaded modules."""
        targets = [(importlib.import_module(f"distchroma.{mod_name}"), fn_name)
                   for mod_name, fn_name in TRACED]
        modules = [m for key, m in list(sys.modules.items())
                   if key == "distchroma" or key.startswith("distchroma.")]
        for (module_of_fn, fn_name), (mod_name, _) in zip(targets, TRACED):
            original = getattr(module_of_fn, fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "edges": dict(sorted(self.edges.items())),
            "search_free": self.search_free,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots (for example one per CLI invocation)."""
    out = {"calls": {}, "total_s": {}, "self_s": {}, "edges": {}, "search_free": 0}
    for snap in snapshots:
        for key in ("calls", "total_s", "self_s", "edges"):
            for name, value in snap[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["search_free"] += snap["search_free"]
    return out
