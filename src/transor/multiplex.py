"""Multiplices: the edge sets crossing one decomposition node, grouped by color.

The edges joining distinct children of a series or prime node form a
multiplex: a union of whole color classes whose span is exactly that node's
vertex set.  Taken over the tree these edge sets partition E, and each one is
maximal (its span is a strong module).  A single color is itself a multiplex
of rank 1, which is what the extension test below probes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .decomposition import PARALLEL, SERIES, DecompositionNode, _blocks, _tree_splits, is_strong_module
from .errors import DomainError
from .forcing import ColorMap, color_classes
from .graph import Graph


@dataclass(frozen=True)
class Multiplex:
    """A set of colors crossing one tree node (or a single free-standing color).

    ``node_path`` locates the generating tree node; it is None for a bare
    one-color multiplex.  ``edges`` is the union of the colors'
    undirected edge sets and ``span`` the vertices they touch.
    """

    span: frozenset
    colors: frozenset
    edges: frozenset
    rank: int
    node_path: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "node_path": list(self.node_path) if self.node_path is not None else None,
            "rank": self.rank,
            "colors": sorted(self.colors),
            "edges": [[str(u), str(v)] for u, v in sorted(self.edges)],
        }


def multiplex_partition(g: Graph, tree: DecompositionNode, cmap: ColorMap | None = None) -> list[Multiplex]:
    """One multiplex per series/prime node; their edge sets partition E.

    Every edge is charged to the unique node whose children separate its
    endpoints.  Parallel nodes can receive nothing (their children are
    disconnected from each other), so only series and prime nodes appear.
    """
    if cmap is None:
        cmap = color_classes(g)
    paths = [()]  # the paths of the internal nodes still to come, next on top
    result = []
    for x, kind, parts in _tree_splits(g, tree):
        path = paths.pop()
        paths += [path + (i,) for i in range(len(parts) - 1, -1, -1) if parts[i] & (parts[i] - 1)]
        if kind == PARALLEL:
            continue
        members = [g.vertex_list(p) for p in parts]
        edges = frozenset(g.edge_key(u, v) for i, j in _blocks(g.adjacency_masks(), kind, parts) for u in members[i] for v in members[j])
        result.append(
            Multiplex(
                span=g.unmask(x),
                colors=frozenset(cmap.color_of(e) for e in edges),
                edges=edges,
                rank=len(parts) - 1 if kind == SERIES else 1,
                node_path=path,
            )
        )
    return result


def color_multiplex(g: Graph, cmap: ColorMap, color_id: int) -> Multiplex:
    """The rank-1 multiplex generated by a single edge of the given color."""
    color = cmap.colors[color_id]
    return Multiplex(
        span=color.span,
        colors=frozenset((color_id,)),
        edges=color.undirected,
        rank=1,
    )


def is_maximal_multiplex(g: Graph, m: Multiplex) -> bool:
    """A multiplex is maximal exactly when its span is a strong module."""
    return is_strong_module(g, m.span)


def simplex_extension_exists(g: Graph, m: Multiplex, a, cmap: ColorMap | None = None) -> bool:
    """Can a vertex outside the span extend the generating simplex by one vertex?

    True iff the vertex reaches the span through at least two distinct colors
    that the multiplex does not already contain.
    """
    if not g.has_vertex(a):
        raise DomainError(f"vertex {a!r} is not in the graph")
    if a in m.span:
        raise DomainError(f"vertex {a!r} lies inside the multiplex span")
    if cmap is None:
        cmap = color_classes(g)
    fresh: set[int] = set()
    for b in g.neighbors(a):
        if b in m.span:
            cid = cmap.color_of(a, b)
            if cid not in m.colors:
                fresh.add(cid)
                if len(fresh) >= 2:
                    return True
    return False
