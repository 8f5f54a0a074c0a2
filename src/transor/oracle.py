"""Brute-force ground truth and test corpora.

Everything here is deliberately independent of the fast path: orientations
come from a backtracking search over all 2^|E| direction assignments,
modules from scanning all vertex subsets.  Hard size guards refuse inputs
where those loops blow up.  The random generator is splitmix64, specified
bit-exactly in the README so corpora reproduce anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator

from .errors import DomainError, InvariantError, OracleScaleError
from .graph import Graph, complement, connected_components
from .orientation import Orientation, is_transitive

_MASK64 = (1 << 64) - 1

MAX_ORACLE_EDGES = 20
MAX_ORACLE_VERTICES = 12
MAX_ORDER_VERTICES = 10
MAX_CLOSURE_VERTICES = 60


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream: 64-bit state, golden-gamma increment, two xor-mul mixes."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def random_graph(n: int, p, seed: int) -> Graph:
    """Seed-deterministic Erdos-Renyi style graph on vertices 0..n-1.

    Vertex pairs are visited in lexicographic order, one splitmix64 draw
    each; a pair becomes an edge when its draw is below floor(p * 2^64),
    with p taken exactly (Fraction), so every platform builds the same graph.
    """
    if n < 1:
        raise DomainError("need at least one vertex")
    try:
        frac = Fraction(p)
    except (ValueError, TypeError, ZeroDivisionError):
        raise DomainError(f"invalid probability {p!r}") from None
    if not 0 <= frac <= 1:
        raise DomainError(f"probability {p!r} outside [0, 1]")
    threshold = (frac.numerator << 64) // frac.denominator
    draws = splitmix64(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if next(draws) < threshold
    ]
    return Graph(range(n), edges)


def brute_force_orientations(g: Graph) -> list[Orientation]:
    """All transitive orientations, by a backtracking search over the 2^|E| assignments.

    Edges are decided in sorted order.  Directing t->h is refused when a
    decided a->t has no a->h (a-h is not an edge, or h->a is decided), or a
    decided h->b has no t->b.  A broken 2-path is refused once its last edge
    is decided, so the leaves are exactly the transitive orientations, sorted
    by their pairs.  Refuses more than 20 edges.
    """
    m = g.edge_count
    if m > MAX_ORACLE_EDGES:
        raise OracleScaleError(f"orientation scan limited to {MAX_ORACLE_EDGES} edges, got {m}")
    edges = g.sorted_edges()
    adj = {v: g.neighbors(v) for v in g.vertices}
    succ: dict = {v: set() for v in g.vertices}
    pred: dict = {v: set() for v in g.vertices}
    chosen: list[tuple] = []
    out = []

    def extend(k: int) -> None:
        if k == m:
            out.append(Orientation(frozenset(chosen)))
            return
        for t, h in (edges[k], edges[k][::-1]):
            # every a->t needs a->h, every h->b needs t->b; h->a->t or h->b->t is a cycle
            if pred[t] <= adj[h] and succ[h] <= adj[t] and pred[t].isdisjoint(succ[h]):
                chosen.append((t, h))
                succ[t].add(h)
                pred[h].add(t)
                extend(k + 1)
                chosen.pop()
                succ[t].remove(h)
                pred[h].remove(t)

    extend(0)
    out.sort(key=Orientation.sorted_pairs)
    return out


def _uniform_subsets(relations: tuple[list[int], ...], n: int) -> list[int]:
    """Every nonempty vertex mask that each outside vertex's relation masks
    see all of or none of."""
    checks = [(1 << i, masks[i]) for masks in relations for i in range(n)]
    found = []
    for x in range(1, 1 << n):
        for b, m in checks:
            if not b & x and m & x not in (0, x):
                break
        else:
            found.append(x)
    return found


def _strong(found: list[int]) -> list[int]:
    """The masks of found that no other member overlaps."""
    return [x for x in found if not any((x & y) and (x & ~y) and (y & ~x) for y in found)]


def _module_masks(g: Graph) -> list[int]:
    n = g.vertex_count
    if n > MAX_ORACLE_VERTICES:
        raise OracleScaleError(f"module scan limited to {MAX_ORACLE_VERTICES} vertices, got {n}")
    return _uniform_subsets((g.adjacency_masks(),), n)


def brute_force_modules(g: Graph) -> set[frozenset]:
    """All nonempty modules, by scanning every vertex subset.  Refuses |V| > 12."""
    return {g.unmask(x) for x in _module_masks(g)}


def brute_force_strong_modules(g: Graph) -> set[frozenset]:
    """Modules overlapped by no other module."""
    return {g.unmask(x) for x in _strong(_module_masks(g))}


def strong_modules_of_order(g: Graph, o: Orientation) -> set[frozenset]:
    """Strong modules of a transitive orientation, by exhaustive subset scan.

    A set is a directed module when every external vertex relates uniformly
    to it in each direction separately; strong means overlapped by no other
    directed module.  Test-support operation, capped at 10 vertices.
    """
    n = g.vertex_count
    if n > MAX_ORDER_VERTICES:
        raise OracleScaleError(f"directed strong modules limited to {MAX_ORDER_VERTICES} vertices, got {n}")
    if not is_transitive(g, o):
        raise DomainError("orientation is not transitive")
    idx = g.index
    out = [0] * n
    into = [0] * n
    for t, h in o.directed:
        out[idx[t]] |= 1 << idx[h]
        into[idx[h]] |= 1 << idx[t]
    return {g.unmask(x) for x in _strong(_uniform_subsets((out, into), n))}


def closure_strong_partition(g: Graph) -> set[frozenset]:
    """The maximal strong modules other than V, from the textbook cases.

    A disconnected graph splits into its components, one with a disconnected
    complement into its co-components.  Otherwise every vertex pair is grown
    to its smallest module, proper ones that overlap are merged, and the
    vertices left over are singletons.  Some O(n^4) mask steps, so it
    refuses more than 60 vertices: a reference past the subset scan's 12.
    """
    n = g.vertex_count
    if n > MAX_CLOSURE_VERTICES:
        raise OracleScaleError(f"pair-closure partition limited to {MAX_CLOSURE_VERTICES} vertices, got {n}")
    if n < 2:
        raise DomainError("partition needs at least two vertices")
    for parts in (connected_components(g), connected_components(complement(g))):
        if len(parts) > 1:
            return set(parts)
    masks = g.adjacency_masks()
    full = (1 << n) - 1
    family: list[int] = []
    for i, j in combinations(range(n), 2):
        x = (1 << i) | (1 << j)
        if any(x & ~m == 0 for m in family):
            continue
        while True:  # add every outside vertex that sees some but not all of x
            some, every, rest = 0, full, x
            while rest:
                b = rest & -rest
                m = masks[b.bit_length() - 1]
                some |= m
                every &= m
                rest ^= b
            split = some & ~every & ~x
            if not split:
                break
            x |= split
        if x == full:
            continue
        for hit in [m for m in family if m & x]:
            x |= hit
            family.remove(hit)
        if x == full:
            raise InvariantError("overlapping proper modules merged to the whole vertex set")
        family.append(x)
    covered = sum(family)  # the members are disjoint: their sum is their union
    return {g.unmask(m) for m in family} | {frozenset((v,)) for v in g.unmask(full & ~covered)}


# ---------------------------------------------------------------------------
# Fixed fixtures.  The paw is the four-vertex graph with one dominating
# vertex over a single edge plus a pendant; its two colors and four
# orientations anchor many tests.


def paw() -> Graph:
    return Graph("abcd", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")])


def path_graph(n: int) -> Graph:
    names = _letters(n)
    return Graph(names, list(zip(names, names[1:])))


def cycle_graph(n: int) -> Graph:
    names = _letters(n)
    return Graph(names, list(zip(names, names[1:])) + [(names[-1], names[0])])


def complete_graph(n: int) -> Graph:
    if n <= 26:
        names = _letters(n)
        return Graph(names, combinations(names, 2))
    return Graph(range(n), combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    names = _letters(leaves + 1)
    center, rest = names[0], names[1:]
    return Graph(names, [(center, leaf) for leaf in rest])


def _letters(n: int) -> list[str]:
    if n > 26:
        raise DomainError("letter fixtures stop at 26 vertices")
    return [chr(ord("a") + i) for i in range(n)]


def fixtures() -> dict[str, Graph]:
    """The frozen fixture family used throughout the tests."""
    return {
        "paw": paw(),
        "p4": path_graph(4),
        "c4": cycle_graph(4),
        "c5": cycle_graph(5),
        "k3": complete_graph(3),
        "k4": complete_graph(4),
        "claw": star_graph(3),
        "k2_join_2k1": Graph(
            ["a1", "a2", "b", "c"],
            [("a1", "a2"), ("a1", "b"), ("a1", "c"), ("a2", "b"), ("a2", "c")],
        ),
        "two_k2": Graph("abcd", [("a", "b"), ("c", "d")]),
    }


# ---------------------------------------------------------------------------
# Exhaustive and random families.


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on vertices 0..n-1 (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(range(n), [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])


def six_vertex_graph_classes() -> list[Graph]:
    """One labeled representative (smallest edge mask) per isomorphism class on 6 vertices.

    There are 156 classes; graphs on fewer vertices appear padded with
    isolated vertices.  Orbits are enumerated by applying all 720 vertex
    permutations to each unseen edge mask.
    """
    pairs = list(combinations(range(6), 2))
    pos = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in permutations(range(6)):
        tables.append(
            [1 << pos[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        )
    seen = bytearray(1 << 15)
    reps = []
    for mask in range(1 << 15):
        if seen[mask]:
            continue
        reps.append(mask)
        for table in tables:
            m2 = 0
            mm = mask
            while mm:
                b = mm & -mm
                m2 |= table[b.bit_length() - 1]
                mm ^= b
            seen[m2] = 1
    return [
        Graph(range(6), [pairs[k] for k in range(15) if (mask >> k) & 1])
        for mask in reps
    ]


def random_family(
    count: int = 200,
    *,
    sizes: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    ps: tuple = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
    seed: int = 20260811,
    max_edges: int | None = MAX_ORACLE_EDGES,
) -> list[Graph]:
    """Seeded random corpus; n cycles through ``sizes`` and p through ``ps``.

    Sample i uses seed ``seed + i``; when ``max_edges`` is set, a too-dense
    sample is redrawn with the seed bumped by 7919 until it fits, keeping
    every graph within oracle scale and the whole schedule deterministic.
    """
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        p = ps[(i // len(sizes)) % len(ps)]
        s = seed + i
        g = random_graph(n, p, s)
        while max_edges is not None and g.edge_count > max_edges:
            s += 7919
            g = random_graph(n, p, s)
        out.append(g)
    return out


def acceptance_corpus() -> list[tuple[str, Graph]]:
    """The named corpus the acceptance criteria run over."""
    named = [(f"fixture:{name}", g) for name, g in fixtures().items()]
    named += [(f"six:{i}", g) for i, g in enumerate(six_vertex_graph_classes())]
    named += [
        (f"rand:{i}(n={g.vertex_count})", g) for i, g in enumerate(random_family())
    ]
    return named
