"""Spans and counters around the program's functions, installed from outside.

``Tracer.install`` rebinds the program's public functions (and the few
private ones that carry a whole layer's work, when present) in every loaded
``transor`` module, so calls between modules and recursive calls are seen
too.  Spans are kept in memory: per (name, parent name) the call count and
self time, plus the first ``keep`` raw spans (index, name, start, end,
parent index) for writing out at the end.  A span's self time is its
duration minus the time its child spans cover; a layer is the part of the
span name before the first dot.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path, span name).  A dotted attribute path names a
# method of a class defined in that module.  Serialisation methods are
# charged to the cli layer, which is where the verbs call them.
SPANS = [
    ("io", "parse_graph", "io.parse_graph"),
    ("io", "parse_edge_list", "io.parse_edge_list"),
    ("io", "parse_dimacs", "io.parse_dimacs"),
    ("graph", "induced_subgraph", "graph.induced_subgraph"),
    ("graph", "complement", "graph.complement"),
    ("graph", "connected_components", "graph.components"),
    ("forcing", "color_classes", "forcing.color_classes"),
    ("forcing", "is_comparability", "forcing.is_comparability"),
    ("decomposition", "decomposition_tree", "decomposition.tree"),
    ("decomposition", "maximal_strong_partition", "decomposition.partition"),
    ("decomposition", "quotient", "decomposition.quotient"),
    ("decomposition", "DecompositionNode.to_json_dict", "cli.tree_json"),
    ("multiplex", "multiplex_partition", "multiplex.partition"),
    ("multiplex", "Multiplex.to_json_dict", "cli.multiplex_json"),
    ("orientation", "count_orientations", "orientation.count"),
    ("orientation", "materialize", "orientation.materialize"),
    ("orientation", "enumerate_orientations", "orientation.enumerate"),
    ("orientation", "_LiftPlan.__init__", "orientation.lift_plan"),
    ("orientation", "_LiftPlan.apply", "orientation.apply"),
    ("orientation", "Orientation.to_json", "cli.orientation_json"),
]

LAYERS = ("io", "graph", "forcing", "decomposition", "multiplex", "orientation", "cli")


class Tracer:
    def __init__(self, keep: int = 20000):
        self.keep = keep
        self.reset()
        self._undo: list = []

    def reset(self) -> None:
        self.stack: list = []  # open spans: [name, start, child seconds, index]
        self.depth: Counter = Counter()  # open spans per name
        self.stats: dict = {}  # (name, parent name) -> [calls, self seconds]
        self.counters: Counter = Counter()
        self.spans: list = []
        self.count = 0

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.depth[name] += 1
        self.stack.append([name, perf_counter(), 0.0, self.count])
        self.count += 1

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, index = self.stack.pop()
        self.depth[name] -= 1
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (name, parent[0] if parent is not None else None)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0]
        st[0] += 1
        st[1] += duration - child
        if index < self.keep:
            self.spans.append((index, name, start, end, parent[3] if parent is not None else None))

    def wrap(self, func, name: str):
        """A timing wrapper for ``func``; generator functions get one span per resume."""
        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def generator(*args, **kwargs):
                inner = func(*args, **kwargs)
                try:
                    while True:
                        self.enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self.exit()
                        self.counters[name + ".items"] += 1
                        yield item
                finally:
                    inner.close()

            return generator

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            top = not self.depth[name]
            self.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
            if name == "decomposition.tree" and top:
                self.counters["decomposition.analyses"] += 1
            elif name == "forcing.color_classes":
                self.counters["forcing.colors"] += len(result.colors)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded transor module."""
        import transor.cli  # noqa: F401  (loads every module of the program)

        modules = [m for n, m in list(sys.modules.items()) if n == "transor" or n.startswith("transor.")]
        for mod_name, path, name in SPANS:
            module = sys.modules.get(f"transor.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                continue  # absent in this version of the program
            original = vars(owner)[attr]
            wrapped = self.wrap(original, name)
            if owner_name:
                self._rebind(owner, attr, wrapped)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, wrapped)
        graph_cls = getattr(sys.modules["transor.graph"], "Graph", None)
        if graph_cls is not None:
            init = vars(graph_cls)["__init__"]
            counters = self.counters

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                counters["graph.graph_builds"] += 1
                init(obj, *args, **kwargs)

            self._rebind(graph_cls, "__init__", counted_init)

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def report(self) -> dict:
        """Self time and calls per span name (and per parent), counters, and raw spans."""
        by_name: dict = {}
        by_pair: dict = {}
        for (name, parent), (calls, self_s) in self.stats.items():
            agg = by_name.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            by_pair[f"{name}<{parent}"] = [calls, self_s]
        return {
            "self": by_name,
            "self_by_parent": by_pair,
            "counters": dict(self.counters),
            "spans": sorted(self.spans),
        }


def structure(tree) -> dict:
    """Depth, node-kind counts and the largest prime and series nodes of a tree."""
    out = {"tree_depth": 0, "prime_nodes": 0, "series_nodes": 0, "parallel_nodes": 0,
           "largest_prime": 0, "largest_series": 0}
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        out["tree_depth"] = max(out["tree_depth"], depth)
        kind = node.kind
        if kind in ("prime", "series", "parallel"):
            out[f"{kind}_nodes"] += 1
        if kind in ("prime", "series"):
            out[f"largest_{kind}"] = max(out[f"largest_{kind}"], len(node.children))
        stack.extend((child, depth + 1) for child in node.children)
    return out
