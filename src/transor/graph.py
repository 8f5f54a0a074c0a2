"""Immutable undirected simple graphs and the basic operations everything else builds on.

Vertices are opaque tokens with a total order (strings, ints, ...); one graph
never mixes incomparable token types.  The sorted vertex tuple defines a dense
internal index used for deterministic tie-breaking; the index never appears in
any output.
"""
from __future__ import annotations

from typing import Iterable

from .errors import DomainError


class Graph:
    """Undirected simple graph: ordered vertex tokens and one adjacency bitmask each.

    Holds only the vertex index and the masks, built in ``__init__``: immutable
    and safe to share between threads.  ``edges``, ``sorted_edges`` and
    ``edge_count`` are read off the masks per call.  Self-loops are rejected;
    duplicate edges collapse silently (parsers count them as edge lines past
    ``edge_count``)."""

    __slots__ = ("vertices", "index", "_masks")

    def __init__(self, vertices: Iterable, edges: Iterable[tuple] = ()):
        try:
            vs = sorted(set(vertices))
        except TypeError:
            raise DomainError("vertex tokens must share a total order") from None
        index = {v: i for i, v in enumerate(vs)}
        masks = [0] * len(vs)
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u!r}")
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                missing = u if i is None else v
                raise DomainError(f"edge endpoint {missing!r} is not a declared vertex")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.vertices = tuple(vs)
        self.index = index
        self._masks = masks

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset:
        """The edges as (smaller, larger) pairs by vertex order."""
        return frozenset(self.sorted_edges())

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._masks)) // 2

    def has_vertex(self, v) -> bool:
        return v in self.index

    def has_edge(self, u, v) -> bool:
        """True iff uv is an edge.  Unknown vertices are a domain error."""
        index = self.index
        try:
            return self._masks[index[u]] >> index[v] & 1 == 1
        except KeyError:
            missing = u if u not in index else v
            raise DomainError(f"unknown vertex {missing!r}") from None

    def neighbors(self, v) -> frozenset:
        try:
            return self.unmask(self._masks[self.index[v]])
        except KeyError:
            raise DomainError(f"unknown vertex {v!r}") from None

    def edge_key(self, u, v) -> tuple:
        """Canonical (smaller, larger) form of an edge, by vertex order."""
        return (u, v) if self.index[u] < self.index[v] else (v, u)

    def sorted_edges(self) -> list[tuple]:
        vs, out = self.vertices, []
        for i, m in enumerate(self._masks):
            m >>= i + 1  # the later neighbours, as offsets past i
            while m:
                out.append((vs[i], vs[i + (m & -m).bit_length()]))
                m &= m - 1
        return out

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmasks aligned with the vertex index (internal tie-breaker order)."""
        return self._masks

    def mask_of(self, sub: Iterable) -> int:
        m = 0
        for v in sub:
            m |= 1 << self.index[v]
        return m

    def unmask(self, mask: int) -> frozenset:
        return frozenset(self.vertex_list(mask))

    def vertex_list(self, mask: int) -> list:
        """The vertices of a mask, in index order."""
        out = []
        while mask:
            out.append(self.vertices[(mask & -mask).bit_length() - 1])
            mask &= mask - 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(self._masks)))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


def induced_subgraph(g: Graph, sub: Iterable) -> Graph:
    """Subgraph on a vertex subset, keeping exactly the edges with both ends inside."""
    xs = frozenset(sub)
    for v in xs:
        if not g.has_vertex(v):
            raise DomainError(f"vertex {v!r} is not in the graph")
    return Graph(xs, [(u, v) for u, v in g.sorted_edges() if u in xs and v in xs])


def complement(g: Graph) -> Graph:
    """Same vertices; an edge exactly where the input has none."""
    vs, masks = g.vertices, g.adjacency_masks()
    n = len(vs)
    return Graph(vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if not masks[i] >> j & 1])


def mask_components(masks: list[int], x: int, co: bool = False) -> list[int]:
    """Components (with ``co``: co-components) of the subgraph induced on the
    vertex mask ``x``, given ``Graph.adjacency_masks``; as masks by lowest vertex."""
    flip = -1 if co else 0
    comps = []
    while x:  # x keeps the vertices not yet reached
        comp = frontier = x & -x
        x ^= comp
        while frontier:
            b = frontier & -frontier
            new = (masks[b.bit_length() - 1] ^ flip) & x
            x ^= new
            comp |= new
            frontier = (frontier ^ b) | new
        comps.append(comp)
    return comps


def connected_components(g: Graph) -> list[frozenset]:
    """Maximal connected vertex sets, ordered by their smallest member."""
    full = (1 << g.vertex_count) - 1
    return [g.unmask(c) for c in mask_components(g.adjacency_masks(), full)]


def spanned_vertices(edge_set: Iterable) -> frozenset:
    """All endpoints touched by a set of (directed or undirected) edges."""
    out = set()
    for a, b in edge_set:
        out.add(a)
        out.add(b)
    return frozenset(out)
