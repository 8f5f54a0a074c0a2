"""Multiplices: the edge sets crossing one decomposition node, grouped by color.

The edges joining distinct children of a series or prime node form a
multiplex: a union of whole color classes whose span is exactly that node's
vertex set.  Taken over the tree these edge sets partition E, and each one is
maximal (its span is a strong module).  A single color is itself a multiplex
of rank 1, which is what the extension test below probes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import mul

from .decomposition import PARALLEL, SERIES, DecompositionNode, _blocks, _splits_of, is_strong_module
from .errors import DomainError, InvariantError
from .forcing import ColorMap, _color_table, _Colors, color_classes
from .graph import Graph, _bits, _check_graph


@dataclass(frozen=True, init=False)
class Multiplex:
    """A set of colors crossing one tree node (or a single free-standing color).

    ``node_path`` locates the generating tree node; it is None for a bare
    one-color multiplex.  ``edges`` is the union of the colors'
    undirected edge sets and ``span`` the vertices they touch.  One of
    ``multiplex_partition`` also keeps its edges as a sorted run of codes
    lo * n + hi, which ``to_json_dict`` reads; equality, hashing, ``repr``,
    pickling and copying see the fields alone, and leave the run behind.
    """

    span: frozenset
    colors: frozenset
    edges: frozenset
    rank: int
    node_path: tuple[int, ...] | None = None

    def __init__(self, span: frozenset, colors: frozenset, edges: frozenset, rank: int, node_path: tuple | None = None):
        # One dict update, where the frozen dataclass's own __init__ makes an
        # object.__setattr__ call per field: about half the cost per node.
        self.__dict__.update(span=span, colors=colors, edges=edges, rank=rank, node_path=node_path)

    def __reduce__(self) -> tuple:
        return Multiplex, (self.span, self.colors, self.edges, self.rank, self.node_path)

    def to_json_dict(self) -> dict:
        run = getattr(self, "_run", None)  # (names by vertex index, n, codes)
        if run is None:
            edges = [[str(u), str(v)] for u, v in sorted(self.edges)]
        else:
            names, n, codes = run
            edges = [[names[c // n], names[c % n]] for c in codes]
        return {
            "node_path": list(self.node_path) if self.node_path is not None else None,
            "rank": self.rank,
            "colors": sorted(self.colors),
            "edges": edges,
        }


def multiplex_partition(g: Graph, tree: DecompositionNode, cmap: ColorMap | None = None) -> list[Multiplex]:
    """One multiplex per series/prime node; their edge sets partition E.

    Every edge is charged to the unique node whose children separate its
    endpoints.  Parallel nodes can receive nothing (their children are
    disconnected from each other), so only series and prime nodes appear.
    A joined child block of a series node is one color, read once at its
    representatives' edge.  The crossing edges of a prime node are one
    color (Gallai 1967), so the node's smallest crossing edge is the
    color's smallest edge, which the color index keys: one read per node.
    The sizes of a node's colors, off their mask blocks, must add up to its
    edges; a series node of single vertices, whose every block is its own
    one-edge color, skips that sum.  No color is decoded.  The node masks,
    and with no ``cmap`` the colors, are read off the split list ``tree``
    holds: no scan, cover walk or prime split runs again.  ``DomainError``
    unless ``tree`` is the tree ``decomposition_tree`` returned for g or for a
    graph equal to it, and when ``cmap`` is the color map of another graph.
    """
    _check_graph(g)
    splits = _splits_of(g, tree)
    if cmap is None:
        table = _color_table(g, splits)
    else:
        _check_map(g, cmap)
        table = _table_of(cmap)
    _, color_blocks, loops, ids = table
    vs, masks = g.vertices, g.adjacency_masks()
    n = len(vs)
    names = list(map(str, vs))
    paths = [()]  # the paths of the internal nodes still to come, next on top
    result = []
    for x, kind, parts in splits:
        path = paths.pop()
        paths += [path + (i,) for i in range(len(parts) - 1, -1, -1) if parts[i] & (parts[i] - 1)]
        if kind == PARALLEL:
            continue
        blocks = _blocks(masks, kind, parts)
        low = [(p & -p).bit_length() - 1 for p in parts]
        several = x.bit_count() > len(parts)  # some block has several edges
        if several:
            members = list(map(_bits, parts))
            span = frozenset(map(vs.__getitem__, chain.from_iterable(members)))
            codes = sorted([u * n + v if u < v else v * n + u for i, j in blocks for u in members[i] for v in members[j]])
        else:  # ``_blocks`` lists them by tail, then head: in code order
            span = frozenset(map(vs.__getitem__, low))
            codes = [low[i] * n + low[j] for i, j in blocks]
        if kind == SERIES:
            colors = frozenset([ids[low[i] * n + low[j]] for i, j in blocks])
        else:  # one color, met first at the node's smallest crossing edge
            colors = frozenset([ids[codes[0]]])
        # The children are strong modules, so these are all the node's
        # colors (Gallai 1967), and their sizes add up to its edges.
        if (several or kind != SERIES) and sum(_size(color_blocks[c]) >> (c in loops) for c in colors) != len(codes):
            raise InvariantError("the colors of a node's blocks do not add up to its edges")
        edges = frozenset([(vs[c // n], vs[c % n]) for c in codes])
        m = Multiplex(span, colors, edges, len(parts) - 1 if kind == SERIES else 1, path)
        m.__dict__["_run"] = names, n, codes  # no field: see ``Multiplex``
        result.append(m)
    return result


def _size(blocks) -> int:
    # The number of directed edges in a color's flat mask blocks (see
    # ``forcing._Colors``): a self-inverse half holds both directions.
    return sum(map(mul, map(int.bit_count, blocks[::2]), map(int.bit_count, blocks[1::2])))


def _table_of(cmap: ColorMap) -> _Colors:
    # The mask blocks and code index of a map, which one of ``color_classes``
    # holds; a map built by hand is converted once, each forward edge a block
    # and every edge an index entry: more keys, answering the same reads.
    if cmap._table is None:
        g = cmap.graph
        index, n = g.index, g.vertex_count
        blocks = [[b for t, h in c.forward for b in (1 << index[t], 1 << index[h])] for c in cmap.colors]
        loops = frozenset(i for i, c in enumerate(cmap.colors) if c.self_inverse)
        ids = {}
        for (u, v), cid in cmap.edge_to_color.items():
            i, j = sorted((index[u], index[v]))
            ids[i * n + j] = cid
        cmap._table = _Colors(g.vertices, blocks, loops, ids)
    return cmap._table


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
