"""Multiplices: the edge sets crossing one decomposition node, grouped by color.

The edges joining distinct children of a series or prime node form a
multiplex: a union of whole color classes whose span is exactly that node's
vertex set.  Taken over the tree these edge sets partition E, and each one is
maximal (its span is a strong module).  A single color is itself a multiplex
of rank 1, which is what the extension test below probes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .decomposition import PARALLEL, SERIES, DecompositionNode, _blocks, _splits_of, is_strong_module
from .errors import DomainError, InvariantError
from .forcing import ColorClass, ColorMap, _color_map, color_classes
from .graph import Graph, _check_graph


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
    A joined child block of a series node is one color, and so are all the
    blocks of a prime node (Gallai 1967), so each such color is read once,
    at its representatives' edge; a node whose children are all single
    vertices reads each edge, one block apiece.  The node masks, and with no
    ``cmap`` the colors, are read off the split list ``tree`` was assembled
    from: no scan, cover walk or prime split runs again.  ``DomainError``
    unless ``tree`` is the tree ``decomposition_tree`` returned for g or for
    a graph equal to it, and when ``cmap`` is the color map of another graph.
    """
    _check_graph(g)
    splits = _splits_of(g, tree)
    if cmap is None:
        cmap = _color_map(g, splits)
    _check_map(g, cmap)
    edge_color = cmap.edge_to_color
    vs, masks = g.vertices, g.adjacency_masks()
    paths = [()]  # the paths of the internal nodes still to come, next on top
    result = []
    for x, kind, parts in splits:
        path = paths.pop()
        paths += [path + (i,) for i in range(len(parts) - 1, -1, -1) if parts[i] & (parts[i] - 1)]
        if kind == PARALLEL:
            continue
        members = [g.vertex_list(p) if p & (p - 1) else [vs[p.bit_length() - 1]] for p in parts]
        blocks = _blocks(masks, kind, parts)
        edges = frozenset([(u, v) if u < v else (v, u) for i, j in blocks for u in members[i] for v in members[j]])
        if x.bit_count() > len(parts):  # some block has several edges
            reps = [(members[i][0], members[j][0]) for i, j in (blocks if kind == SERIES else blocks[:1])]
            colors = frozenset([edge_color[e if e[0] < e[1] else (e[1], e[0])] for e in reps])
            # The children are strong modules, so these are all the node's
            # colors (Gallai 1967), and their sizes add up to its edges.
            if sum(_size(cmap.colors[c]) for c in colors) != len(edges):
                raise InvariantError("the colors of a node's blocks do not add up to its edges")
        else:
            colors = frozenset(map(edge_color.__getitem__, edges))
        result.append(
            Multiplex(
                span=g.unmask(x),
                colors=colors,
                edges=edges,
                rank=len(parts) - 1 if kind == SERIES else 1,
                node_path=path,
            )
        )
    return result


def _size(color: ColorClass) -> int:
    # A color's number of edges: a self-inverse forward half holds both directions.
    return len(color.forward) >> color.self_inverse


def _check_multiplex(m: Multiplex) -> None:
    if not isinstance(m, Multiplex):
        raise DomainError(f"multiplex {m!r} is not a Multiplex")


def _check_map(g: Graph, cmap: ColorMap) -> None:
    if not isinstance(cmap, ColorMap):
        raise DomainError(f"color map {cmap!r} is not a ColorMap")
    if cmap.graph is not g and cmap.graph != g:
        raise DomainError("the color map is of another graph")


def color_multiplex(g: Graph, cmap: ColorMap, color_id: int) -> Multiplex:
    """The rank-1 multiplex generated by a single edge of the given color.

    ``DomainError`` unless ``color_id`` is an int in ``0..len(cmap.colors) - 1``."""
    _check_graph(g)
    _check_map(g, cmap)
    if not isinstance(color_id, int) or isinstance(color_id, bool):
        raise DomainError(f"color id {color_id!r} is not an int")
    if not 0 <= color_id < len(cmap.colors):
        raise DomainError(f"color id {color_id} is outside 0..{len(cmap.colors) - 1}")
    color = cmap.colors[color_id]
    return Multiplex(
        span=color.span,
        colors=frozenset((color_id,)),
        edges=color.undirected,
        rank=1,
    )


def is_maximal_multiplex(g: Graph, m: Multiplex) -> bool:
    """A multiplex is maximal exactly when its span is a strong module."""
    _check_graph(g)
    _check_multiplex(m)
    return is_strong_module(g, m.span)


def simplex_extension_exists(g: Graph, m: Multiplex, a, cmap: ColorMap | None = None) -> bool:
    """Can a vertex outside the span extend the generating simplex by one vertex?

    True iff the vertex reaches the span through at least two distinct colors
    that the multiplex does not already contain.
    """
    _check_graph(g)
    _check_multiplex(m)
    around = g.neighbors(a)  # DomainError unless a is a vertex
    if a in m.span:
        raise DomainError(f"vertex {a!r} lies inside the multiplex span")
    if cmap is None:
        cmap = color_classes(g)
    _check_map(g, cmap)
    fresh: set[int] = set()
    for b in around:
        if b in m.span:
            cid = cmap.color_of(a, b)
            if cid not in m.colors:
                fresh.add(cid)
                if len(fresh) >= 2:
                    return True
    return False
