"""Edge forcing, implication classes, color classes, and comparability testing.

A directed edge (a,b) directly forces (a',b') when they share a tail and the
heads are non-adjacent, or share a head and the tails are non-adjacent.  The
reflexive/transitive closure of that relation partitions the 2|E| directed
edges into implication classes; a class A paired with its reverse A' gives an
undirected color class.  A graph is transitively orientable exactly when no
class meets its own reverse.  The out-edges of t split into classes along the
co-components of N(t), the in-edges of h along those of N(h), so a union-find
over those groups finds the classes (``oracle.implication_classes`` walks the
relation itself, as the reference).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator

from .errors import DomainError, InvariantError
from .graph import Graph, spanned_vertices


@dataclass(frozen=True)
class ColorClass:
    """One color: an implication class paired with its reverse, stored as one half.

    ``forward`` is the half containing the lexicographically smallest directed
    edge of the color (the canonical orientation used everywhere downstream);
    for a self-inverse class it holds both directions.  ``reverse``,
    ``undirected``, ``span`` and ``self_inverse`` are read off it per call.
    """

    id: int
    forward: frozenset

    @property
    def reverse(self) -> frozenset:
        return frozenset((h, t) for t, h in self.forward)

    @property
    def undirected(self) -> frozenset:
        """The edges as (smaller, larger) pairs by vertex order."""
        return frozenset(e if e[0] < e[1] else (e[1], e[0]) for e in self.forward)

    @property
    def span(self) -> frozenset:
        return spanned_vertices(self.forward)

    @property
    def self_inverse(self) -> bool:
        # A class and its reverse are equal or disjoint, so one edge decides.
        for t, h in self.forward:
            return (h, t) in self.forward
        return False


@dataclass(frozen=True)
class ColorMap:
    """The colors of a graph, ``colors[i].id == i``, and its edge-to-color index.

    ``edge_to_color`` maps each edge, as its (smaller, larger) pair by vertex
    order, to the id of its color.
    """

    graph: Graph
    colors: tuple[ColorClass, ...]
    edge_to_color: dict = field(repr=False)

    def color_of(self, u, v=None) -> int:
        if v is None:
            u, v = u
        return self.edge_to_color[self.graph.edge_key(u, v)]


def directly_forces(e1: tuple, e2: tuple, g: Graph) -> bool:
    """True iff directed edge e1 forces e2 in one step (reflexive by convention)."""
    a, b = e1
    a2, b2 = e2
    for x, y in (e1, e2):
        if not g.has_edge(x, y):
            raise DomainError(f"({x!r}, {y!r}) is not an edge of the graph")
    if a == a2 and b == b2:
        return True
    if a == a2:
        return not g.has_edge(b, b2)
    if b == b2:
        return not g.has_edge(a, a2)
    return False


def _edge_classes(masks: list[int], x: int) -> tuple[dict, list[int], dict]:
    """The implication classes of the subgraph induced on the vertex mask x,
    as union-find labels by host vertex index.

    (t,h) and (t,h') share a class exactly when h, h' share a co-component of
    N(t); (t,h) and (t',h) exactly when t, t' share one of N(h).  With
    ``group[t][h] = k`` when h lies in co-component k of N(t), union-find node
    2k holds t's out-edges into it and 2k + 1 their reverses; each edge joins
    its tail's out-node to its head's in-node.  (t,h) lies in class
    ``root[2 * group[t][h]]``; ``inverse`` maps a class to its reverses'.
    ``group`` has a key per vertex of x, in index order.  One mask BFS per
    vertex and O(|E|) steps.
    """
    group: dict = {}
    k = 0
    # A range walks the whole mask (``color_classes``, a prime root): against
    # ``_bits`` it takes 2-10 µs off labellings of 40-280 µs on 24-40 vertex
    # prime graphs, and the benchmark's ``prime-scale`` ``multiplexes_s``
    # read 1.036x an ``enumerate(masks)`` walk's with ``_bits`` alone and
    # 0.987x with this range (6 interleaved pairs each).
    for t in range(len(masks)) if x == (1 << len(masks)) - 1 else _bits(x):
        m = masks[t] & x  # the neighbours in x not yet reached
        of: dict = {}
        while m:  # one co-component per round, from its lowest vertex
            frontier = m & -m
            m ^= frontier
            while frontier:
                b = frontier & -frontier
                h = b.bit_length() - 1
                of[h] = k
                new = m & ~masks[h]
                m ^= new
                frontier ^= b | new
            k += 1
        group[t] = of
    parent = list(range(2 * k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for t, of in group.items():
        for h, kt in of.items():
            parent[find(2 * kt)] = find(2 * group[h][t] + 1)
    root = parent
    while (hop := [root[x] for x in root]) != root:  # pointer jumping to the roots
        root = hop
    return group, root, _reverse_classes(root)


def _bits(x: int) -> Iterator[int]:
    # The vertex indices of the mask x, ascending.
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _reverse_classes(root: list[int]) -> dict:
    # Node 2k + 1 holds the reverses of node 2k's edges and a class is a union
    # of nodes, so a class's reverses lie in one class exactly when every node
    # pair maps the two classes alike.  A class mapped to itself is self-inverse.
    inverse: dict = {}
    nodes = iter(root)
    for a, b in zip(nodes, nodes):  # (root[2k], root[2k + 1]) for each k
        if inverse.setdefault(a, b) != b or inverse.setdefault(b, a) != a:
            raise InvariantError("an implication class reverses into two classes")
    return inverse


def color_classes(g: Graph) -> ColorMap:
    """Partition the directed edges into implication classes and pair them into colors.

    The classes are ``_edge_classes``'s; edges are read in vertex order, so
    each color's id (given when its class or the reverse first appears) and
    canonical forward half (the class of its smallest directed edge) are
    deterministic.  One scan builds the halves and the edge index.
    """
    vs = g.vertices
    group, root, inverse = _edge_classes(g.adjacency_masks(), (1 << len(vs)) - 1)
    halves: dict = {}  # class -> (color id, its edges, or None for a reverse half)
    forward: list[list] = []  # by color id
    edge_to_color: dict = {}
    for t, of in group.items():
        for h in sorted(of):
            c = root[2 * of[h]]
            if c not in halves:  # a new color, whose forward half is c
                edges = []
                halves[inverse[c]] = (len(forward), None)
                halves[c] = (len(forward), edges)  # after the reverse: a self-inverse class keeps its edges
                forward.append(edges)
            cid, edges = halves[c]
            e = (vs[t], vs[h])
            if edges is not None:
                edges.append(e)
            if t < h:
                edge_to_color[e] = cid
    colors = tuple(ColorClass(cid, frozenset(edges)) for cid, edges in enumerate(forward))
    return ColorMap(graph=g, colors=colors, edge_to_color=edge_to_color)


def is_comparability(g: Graph) -> bool:
    """True iff the graph admits a transitive orientation.

    The verdict reads the union-find labels of each topmost prime node of
    the tree (no implication class there is its own reverse; a cograph runs
    no union-find) and builds no ``ColorMap``.  When it says yes, the first
    orientation is verified on bitmasks; a failure there is an internal
    invariant error, never a return value.
    """
    from .orientation import _analyze

    return _analyze(g) is not None


@dataclass(frozen=True)
class TriangleViolation:
    """A triangle whose colors break one of the three forcing consequences."""

    triangle: tuple
    clause: str
    detail: str


def check_triangle_lemma(g: Graph) -> list[TriangleViolation]:
    """Check every triangle against the forcing consequences; returns violations.

    For an ordered triangle (a,b,c) with (a,b) in class C, (a,c) in B and
    (b,c) in A, subject to A != B and A != C-inverse, it must hold that
    (i) every (b',c') in A has (a,b') in C and (a,c') in B, (ii) (b',c') in A
    and (a',b') in C imply (a',c') in B, and (iii) a lies outside the span
    of A.  The expected result on any graph is an empty list.
    """
    cmap = color_classes(g)
    halves = [(c.forward, c.reverse) for c in cmap.colors]
    spans = [c.span for c in cmap.colors]
    # The class of each directed edge, as (color id, +1 for the forward half,
    # -1 for the reverse half, 0 for a self-inverse color), and each class's
    # edges and their tails by head, built once.
    key: dict = {}
    for (u, v), cid in cmap.edge_to_color.items():
        forward, reverse = halves[cid]
        for e in ((u, v), (v, u)):
            key[e] = (cid, (e in forward) - (e in reverse))
    edges_of: dict = {}
    tails_of: dict = {}
    for k in set(key.values()):
        forward, reverse = halves[k[0]]
        edges = edges_of[k] = list(reverse if k[1] == -1 else forward)
        tails = tails_of[k] = {}
        for t, h in edges:
            tails.setdefault(h, []).append(t)

    violations = []
    for tri in _triangles(g):
        for a, b, c in permutations(tri):
            k_c = key[a, b]
            k_b = key[a, c]
            k_a = key[b, c]
            if k_a == k_b or k_a == (k_c[0], -k_c[1]):
                continue
            tails_of_c = tails_of[k_c]
            for b2, c2 in edges_of[k_a]:
                if key.get((a, b2)) != k_c:
                    violations.append(
                        TriangleViolation(tri, "i", f"({a!r},{b2!r}) not in the class of ({a!r},{b!r})")
                    )
                if key.get((a, c2)) != k_b:
                    violations.append(
                        TriangleViolation(tri, "i", f"({a!r},{c2!r}) not in the class of ({a!r},{c!r})")
                    )
                for a2 in tails_of_c.get(b2, ()):
                    if key.get((a2, c2)) != k_b:
                        violations.append(
                            TriangleViolation(tri, "ii", f"({a2!r},{c2!r}) not in the class of ({a!r},{c!r})")
                        )
            if a in spans[k_a[0]]:
                violations.append(
                    TriangleViolation(tri, "iii", f"{a!r} lies in the span of the class of ({b!r},{c!r})")
                )
    return violations


def _triangles(g: Graph) -> Iterator[tuple]:
    # Every triangle once, as its vertices in index order i < j < l, read
    # off the adjacency masks.
    vs = g.vertices
    masks = g.adjacency_masks()
    for i, m in enumerate(masks):
        later = m >> (i + 1) << (i + 1)
        rest = later
        while rest:
            bj = rest & -rest
            rest ^= bj
            j = bj.bit_length() - 1
            common = later & masks[j] >> (j + 1) << (j + 1)
            while common:
                bl = common & -common
                common ^= bl
                yield vs[i], vs[j], vs[bl.bit_length() - 1]
