"""Edge forcing, implication classes, color classes, and comparability testing.

A directed edge (a,b) directly forces (a',b') when they share a tail and the
heads are non-adjacent, or share a head and the tails are non-adjacent.  The
reflexive/transitive closure of that relation partitions the 2|E| directed
edges into implication classes; a class A paired with its reverse A' gives an
undirected color class.  A graph is transitively orientable exactly when no
class meets its own reverse.  The out-edges of t split into classes along the
co-components of N(t), the in-edges of h along those of N(h), so 2-colouring
Gallai's knotting graph on those groups finds the classes
(``oracle.implication_classes`` walks the relation itself, as the
reference).  By Gallai (1967) a color is either one joined child block of a
series node or lies inside a prime node, so only the topmost prime nodes of
the decomposition tree are labelled.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product, repeat
from typing import Iterator, NamedTuple

from .decomposition import PRIME, SERIES, _upper
from .errors import DomainError, InvariantError
from .graph import Graph, _bits, _check_graph, _pair, spanned_vertices


class _Colors(NamedTuple):
    # A graph's colors as mask blocks over the host index, shared by a map
    # of ``color_classes`` and its colors: ``blocks[i]`` is color i's
    # forward half as a flat sequence tails, heads, tails, heads, ... of
    # vertex masks, each pair the edges from every tail to every head (a
    # series color is one pair of children, a prime color one pair
    # (1 << t, heads) per knotting-graph node of its forward half);
    # ``loops`` holds the self-inverse ids, and ``ids`` maps the code
    # lo * n + hi of at least each color's smallest edge to its color (a
    # map of ``color_classes`` keys that edge alone: one entry per color).
    vertices: tuple
    blocks: list
    loops: frozenset
    ids: dict


@dataclass(init=False, unsafe_hash=True)
class ColorClass:
    """One color: an implication class paired with its reverse, stored as one half.

    ``forward`` is the half containing the lexicographically smallest directed
    edge of the color (the canonical orientation used everywhere downstream);
    for a self-inverse class it holds both directions.  ``reverse``,
    ``undirected``, ``span`` and ``self_inverse`` are read off it per call.
    A color of ``color_classes`` holds its map's mask blocks instead, and
    ``forward`` is decoded from them on its first read and then kept."""

    __slots__ = ("_id", "_forward")
    id: int  # the two fields, which eq, hash and repr read: the properties below
    forward: frozenset

    def __init__(self, id: int, forward: frozenset):
        self._id, self._forward = id, forward

    @property
    def id(self) -> int:
        return self._id

    @property
    def forward(self) -> frozenset:
        f = self._forward
        if type(f) is _Colors:
            f = self._forward = frozenset(_decode(f.vertices, f.blocks[self._id]))
        return f

    def __reduce__(self) -> tuple:
        return ColorClass, (self.id, self.forward)

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
        forward = self.forward
        for t, h in forward:
            return (h, t) in forward
        return False


@dataclass(init=False, repr=False)
class ColorMap:
    """The colors of a graph, ``colors[i].id == i``, and its edge-to-color index.

    ``edge_to_color`` maps each edge, as its (smaller, larger) pair by vertex
    order, to the id of its color.  A map of ``color_classes`` builds it
    from the colors' forward halves on its first read and then keeps it."""

    __slots__ = ("_graph", "_colors", "_edge_to_color", "_table")
    graph: Graph  # the three fields, which eq reads: the properties below
    colors: tuple[ColorClass, ...]
    edge_to_color: dict

    def __init__(self, graph: Graph, colors: tuple, edge_to_color: dict):
        self._graph, self._colors, self._edge_to_color, self._table = graph, colors, edge_to_color, None

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def colors(self) -> tuple:
        return self._colors

    @property
    def edge_to_color(self) -> dict:
        if self._edge_to_color is None:  # a pair in vertex order is its own key
            self._edge_to_color = {e if e[0] < e[1] else (e[1], e[0]): cid for cid, c in enumerate(self._colors) for e in c.forward}
        return self._edge_to_color

    def __repr__(self) -> str:
        return f"ColorMap(graph={self.graph!r}, colors={self.colors!r})"

    def __reduce__(self) -> tuple:
        return ColorMap, (self.graph, self.colors, self.edge_to_color)

    def color_of(self, u, v=None) -> int:
        """The id of the color of edge uv, given as two vertices or one pair.

        ``DomainError`` unless uv is an edge of the graph; a string is no pair."""
        if v is None:
            u, v = _pair(u)
        try:
            cid = self.edge_to_color.get((u, v))
            if cid is None:
                cid = self.edge_to_color.get((v, u))
        except TypeError:  # an unhashable token
            cid = None
        if cid is None:
            raise DomainError(f"({u!r}, {v!r}) is not an edge of the graph")
        return cid


def _decode(vertices: tuple, blocks) -> list[tuple]:
    # The directed edges of a color's flat mask blocks (see ``_Colors``),
    # as vertex pairs: the one reader of blocks that builds edges.
    if len(blocks) == 2 and not (blocks[0] & (blocks[0] - 1) or blocks[1] & (blocks[1] - 1)):
        return [(vertices[blocks[0].bit_length() - 1], vertices[blocks[1].bit_length() - 1])]  # one edge, as in K_n
    out = []
    pairs = iter(blocks)
    for tails, heads in zip(pairs, pairs):
        out += product([vertices[t] for t in _bits(tails)], [vertices[h] for h in _bits(heads)])
    return out


def directly_forces(e1: tuple, e2: tuple, g: Graph) -> bool:
    """True iff directed edge e1 forces e2 in one step (reflexive by convention).

    ``DomainError`` unless both are pairs naming edges of the graph."""
    _check_graph(g)
    a, b = _pair(e1)
    a2, b2 = _pair(e2)
    for x, y in ((a, b), (a2, b2)):
        if not g.has_edge(x, y):
            raise DomainError(f"({x!r}, {y!r}) is not an edge of the graph")
    if a == a2 and b == b2:
        return True
    if a == a2:
        return not g.has_edge(b, b2)
    if b == b2:
        return not g.has_edge(a, a2)
    return False


class _Labels(NamedTuple):
    # ``_edge_classes``'s labels of G[x]; see there.
    group: dict
    root: list
    inverse: dict
    held: list
    starts: list


def _edge_classes(masks: list[int], x: int) -> _Labels:
    """The implication classes of the subgraph induced on the vertex mask x,
    as labels by host vertex index.

    (t,h) and (t,h') share a class exactly when h, h' share a co-component of
    N(t); (t,h) and (t',h) exactly when t, t' share one of N(h).  Gallai's
    knotting graph has a node k per vertex t and co-component of N(t), with
    ``group[t][h] = k`` for each h in it, and an edge per edge th, joining
    ``group[t][h]`` to ``group[h][t]``: (t,h) leaves the first and enters
    the second.  So the out-edges of one side of a component and the
    in-edges of the other side make up one class, and the rest its reverse;
    a component that is not bipartite is one class, its own reverse.  One
    stack BFS 2-colours each component: (t,h) lies in class
    ``root[2 * group[t][h]]``, ``root[2k + 1]`` is the class of node k's
    in-edges, and ``inverse`` maps a class to its reverses'.  A component
    is one color, so ``root[2k] >> 1`` (its first node) is the color of
    node k's edges.  ``group`` has a key per vertex of x, in index order,
    node k holds the co-component ``held[k]``, its lowest vertex first, and
    the nodes of the i-th vertex of ``group`` run from ``starts[i]`` to the
    next vertex's start.  One mask BFS per vertex and O(|E|) BFS steps.
    """
    group: dict = {}
    owner: list[int] = []  # node -> its vertex
    held: list = []  # node -> the vertices of its co-component
    starts: list[int] = []  # vertex, in index order -> its first node
    for t in _bits(x):
        m = masks[t] & x  # the neighbours in x not yet reached
        of: dict = {}
        first = len(owner)
        starts.append(first)
        while m:  # one co-component per round, from its lowest vertex
            k = len(owner)
            frontier = m & -m
            m ^= frontier
            while frontier:
                b = frontier & -frontier
                h = b.bit_length() - 1
                of[h] = k
                new = m & ~masks[h]
                m ^= new
                frontier ^= b | new
            owner.append(t)
        if len(owner) == first + 1:
            held.append(of)  # its keys are the one co-component
        else:
            lists: list[list[int]] = [[] for _ in range(first, len(owner))]
            for h, k in of.items():
                lists[k - first].append(h)
            held += lists
        group[t] = of
    # root[2k] is the class of node k's out-edges, 2s or 2s + 1 for the first
    # node s of its component, and root[2k + 1] that of its in-edges: the
    # other one.  An edge that leaves node k enters a node whose in-edges
    # are in root[2k], so whose out-edges are in root[2k + 1].
    root = [-1] * (2 * len(owner))
    odd = set()  # the components, by first node, that are not bipartite
    for s in range(len(owner)):
        if root[2 * s] >= 0:
            continue
        root[2 * s], root[2 * s + 1] = 2 * s, 2 * s + 1
        stack = [s]
        while stack:
            k = stack.pop()
            t, across = owner[k], root[2 * k + 1]
            for h in held[k]:
                j = group[h][t]  # the node (t,h) enters
                if root[2 * j] != across:
                    if root[2 * j] >= 0:
                        odd.add(s)
                    else:
                        root[2 * j], root[2 * j + 1] = across, across ^ 1
                        stack.append(j)
    if odd:  # each such component is one class, its own reverse
        for i in range(0, len(root), 2):
            if root[i] >> 1 in odd:
                root[i] = root[i + 1] = root[i] & ~1
    return _Labels(group, root, _reverse_classes(root), held, starts)


def _reverse_classes(root: list[int]) -> dict:
    # root[2k + 1] is the class of the reverses of the edges in root[2k] (a
    # node's in-edges and its out-edges), and a class is a union of such
    # halves, so a class's reverses lie in one class exactly when every pair
    # maps the two classes alike.  A class mapped to itself is self-inverse.
    inverse: dict = {}
    nodes = iter(root)
    for a, b in zip(nodes, nodes):  # (root[2k], root[2k + 1]) for each k
        if inverse.setdefault(a, b) != b or inverse.setdefault(b, a) != a:
            raise InvariantError("an implication class reverses into two classes")
    return inverse


def color_classes(g: Graph) -> ColorMap:
    """Partition the directed edges into implication classes and pair them into colors.

    Gallai (1967): each color is one joined child block of a series node,
    directed from the earlier child to the later, or lies inside a prime
    node.  So ``_upper`` walks down to the topmost prime nodes (prime nodes
    with no prime ancestor), splits none, and ``_color_table`` reads its
    list; a cograph runs no labelling.  Colors are numbered by their
    smallest edge, and each forward half is the class of that edge, in
    vertex order.  The colors hold their halves as mask blocks, and no
    edge is built before ``forward`` or ``edge_to_color`` is read.
    """
    _check_graph(g)
    return _color_map(g, _upper(g))


def _color_map(g: Graph, splits: list) -> ColorMap:
    # The map over ``_color_table``'s blocks, for a split list as there.
    table = _color_table(g, splits)
    cmap = ColorMap(g, tuple(map(ColorClass, range(len(table.blocks)), repeat(table))), None)
    cmap._table = table
    return cmap


def _color_table(g: Graph, splits: list) -> _Colors:
    # The colors off a pre-order split list, ``_upper``'s or a full one: the
    # series blocks above the topmost prime nodes, and G[x] for each such x.
    # A joined block (i, j) of a series node is one color: its forward half
    # is child i -> child j, and its smallest edge joins their lowest vertices.
    masks = g.adjacency_masks()
    n = len(masks)
    found = {}  # per color: the code t * n + h of its smallest edge (t, h) -> its blocks
    loops = []  # the codes of the self-inverse colors' smallest edges
    labelled = 0  # the topmost prime node labelled last
    for x, kind, parts in splits:
        if x & labelled:  # in pre-order, a later entry that meets it lies inside it
            continue
        if kind == PRIME:
            labelled = x
            _prime_colors(masks, x, found, loops)
        elif kind == SERIES:
            low = [(p & -p).bit_length() - 1 for p in parts]
            found.update({a * n + b: (p, q) for (a, p), (b, q) in combinations(zip(low, parts), 2)})
    codes = sorted(found)  # by smallest edge: no two colors share one
    ids = dict(zip(codes, range(len(codes))))
    return _Colors(g.vertices, list(map(found.__getitem__, codes)), frozenset(map(ids.__getitem__, loops)), ids)


def _prime_colors(masks: list[int], x: int, found: dict, loops: list) -> None:
    # ``_color_table``'s entries for the colors of G[x].  Tails come in
    # index order and a tail's nodes (see ``_edge_classes``) by their lowest
    # vertex, so a color is met first at its smallest edge (t, h), and the
    # class of that node is its forward half: a block (1 << t, heads) per
    # node in it.  A node of a reverse half adds nothing.
    group, root, inverse, held, starts = _edge_classes(masks, x)
    n = len(masks)
    colors: dict = {}  # class -> its color's blocks, None for a reverse half
    for (t, of), first, last in zip(group.items(), starts, starts[1:] + [len(held)]):
        for k in range(first, last):
            hs, c = held[k], root[2 * k]
            if c not in colors:  # a new color, whose forward half is c
                code = t * n + next(iter(hs))
                if inverse[c] == c:
                    loops.append(code)
                colors[inverse[c]] = None
                colors[c] = found[code] = []  # after the reverse: a self-inverse class keeps its blocks
            blocks = colors[c]
            if blocks is not None:
                heads = 0
                for h in hs:
                    heads |= 1 << h
                blocks += 1 << t, heads


def is_comparability(g: Graph) -> bool:
    """True iff the graph admits a transitive orientation.

    The verdict reads the ``_edge_classes`` labels of each topmost prime
    node ``_upper`` lists, before any prime split (no class there is its
    own reverse; a cograph runs no labelling), and builds no ``ColorMap``.
    When it says yes, each prime node is split by its spanning color from
    those labels, and the first orientation is verified on bitmasks; a
    failure there is an internal invariant error, never a return value.
    """
    _check_graph(g)
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
        for j in _bits(later):
            for l in _bits(later & masks[j] >> (j + 1) << (j + 1)):
                yield vs[i], vs[j], vs[l]
