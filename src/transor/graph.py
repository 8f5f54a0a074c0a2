"""Immutable undirected simple graphs and the basic operations everything else builds on.

Vertices are opaque tokens with a total order (strings, ints, ...); one graph
never mixes incomparable token types.  The sorted vertex tuple defines a dense
internal index used for deterministic tie-breaking; the index never appears in
any output.
"""
from __future__ import annotations

from itertools import compress
from typing import Iterable

from .errors import DomainError


class Graph:
    """Undirected simple graph: ordered vertex tokens and one adjacency bitmask each.

    Holds only the vertex index and the masks, built in ``__init__``: immutable
    and safe to share between threads.  ``edges``, ``sorted_edges`` and
    ``edge_count`` are read off the masks per call.  Self-loops are rejected;
    duplicate edges collapse silently (parsers count them as edge lines past
    ``edge_count``).  An edge is any two-item iterable: ``"ab"`` is the edge ab."""

    __slots__ = ("vertices", "index", "_masks")

    def __init__(self, vertices: Iterable, edges: Iterable[tuple] = ()):
        try:
            vertices = iter(vertices)
        except TypeError:
            raise DomainError(f"{vertices!r} is not a collection of vertices") from None
        try:
            vs = sorted(set(vertices))
        except TypeError:
            raise DomainError("vertex tokens must share a total order") from None
        index = {v: i for i, v in enumerate(vs)}
        masks = [0] * len(vs)
        try:  # around the loop, not per edge: parsing builds every graph
            for u, v in edges:
                if u == v:
                    raise DomainError(f"self-loop at vertex {u!r}")
                i, j = index.get(u), index.get(v)
                if i is None or j is None:
                    missing = u if i is None else v
                    raise DomainError(f"edge endpoint {missing!r} is not a declared vertex")
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        except (TypeError, ValueError):  # an edge of other than two items, or an unhashable end
            raise DomainError("each edge must be a pair of vertices") from None
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

    def _at(self, v) -> int:
        # The index of a vertex; the one check of a token from outside.
        try:
            return self.index[v]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            raise DomainError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v) -> bool:
        try:
            return v in self.index
        except TypeError:  # an unhashable token
            return False

    def has_edge(self, u, v) -> bool:
        """True iff uv is an edge.  Unknown vertices are a domain error."""
        return self._masks[self._at(u)] >> self._at(v) & 1 == 1

    def neighbors(self, v) -> frozenset:
        return self.unmask(self._masks[self._at(v)])

    def edge_key(self, u, v) -> tuple:
        """Canonical (smaller, larger) form of an edge, by vertex order."""
        return (u, v) if self._at(u) < self._at(v) else (v, u)

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
        """The mask of a set of vertices; ``DomainError`` unless it is one."""
        try:
            sub = iter(sub)
        except TypeError:
            raise DomainError(f"{sub!r} is not a set of vertices") from None
        m = 0
        for v in sub:
            m |= 1 << self._at(v)
        return m

    def unmask(self, mask: int) -> frozenset:
        return frozenset(self.vertex_list(mask))

    def vertex_list(self, mask: int) -> list:
        """The vertices of a mask, in index order."""
        return list(map(self.vertices.__getitem__, _bits(mask)))

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
    _check_graph(g)
    xs = g.unmask(g.mask_of(sub))
    return Graph(xs, [(u, v) for u, v in g.sorted_edges() if u in xs and v in xs])


def complement(g: Graph) -> Graph:
    """Same vertices; an edge exactly where the input has none."""
    _check_graph(g)
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
        while frontier and x:  # once every vertex is reached, comp is whole
            b = frontier & -frontier
            new = (masks[b.bit_length() - 1] ^ flip) & x
            x ^= new
            comp |= new
            frontier = (frontier ^ b) | new
        comps.append(comp)
    return comps


def connected_components(g: Graph) -> list[frozenset]:
    """Maximal connected vertex sets, ordered by their smallest member."""
    _check_graph(g)
    full = (1 << g.vertex_count) - 1
    return [g.unmask(c) for c in mask_components(g.adjacency_masks(), full)]


def _bits(x: int) -> list[int]:
    # The vertex indices of the mask x, ascending: one O(w) step per set bit
    # of a sparse mask of width w, one pass over a dense one's binary digits.
    # Measured crossover (Python 3.11): ~10 set bits at w = 16-64, 1 in 10 at
    # w = 1000, 1 in 64 at w = 32 000; the rule picks within 1.8x of the best.
    w = x.bit_length()
    if x.bit_count() * (w + 3000) > 400 * w + 27000:
        return list(compress(range(w), bin(x)[:1:-1].encode().translate(_DIGITS)))
    out = []
    while x:
        b = x & -x
        out.append(b.bit_length() - 1)
        x ^= b
    return out


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _check_graph(g) -> None:
    # The one check of a graph argument from outside.
    if not isinstance(g, Graph):
        raise DomainError(f"graph {g!r} is not a Graph")


def _pair(pair, name: str = "pair of vertices") -> tuple:
    # The two items of a pair; a string is no pair, though it may unpack as one.
    try:
        u, v = () if isinstance(pair, (str, bytes)) else pair
    except (TypeError, ValueError):
        raise DomainError(f"{pair!r} is not a {name}") from None
    return u, v


def spanned_vertices(edge_set: Iterable) -> frozenset:
    """All endpoints touched by a set of (directed or undirected) edges."""
    out = set()
    for a, b in edge_set:
        out.add(a)
        out.add(b)
    return frozenset(out)
