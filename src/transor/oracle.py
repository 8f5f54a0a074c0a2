"""Brute-force ground truth and test corpora.

Everything here is deliberately independent of the fast path: orientations
come from filtering all 2^|E| direction assignments, modules from scanning
all vertex subsets.  Hard size guards refuse inputs where those loops blow
up.  The random generator is splitmix64, specified bit-exactly in the README
so corpora reproduce anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator

from .errors import DomainError, InvariantError, OracleScaleError
from .graph import Graph, complement, connected_components
from .orientation import Orientation

_MASK64 = (1 << 64) - 1

MAX_ORACLE_EDGES = 20
MAX_ORACLE_VERTICES = 12
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
    """All transitive orientations, by filtering every direction assignment.

    Assignment k of edge i is bit i of a counter; the transitivity filter
    (every edge tail's successor set contains its head's) runs bit-parallel
    over numpy chunks.  Refuses more than 20 edges.
    """
    import numpy as np  # only the oracle needs numpy; keep it out of CLI start-up

    m = g.edge_count
    if m > MAX_ORACLE_EDGES:
        raise OracleScaleError(f"orientation scan limited to {MAX_ORACLE_EDGES} edges, got {m}")
    if m == 0:
        return [Orientation(frozenset())]
    edges = g.sorted_edges()
    verts = sorted({x for e in edges for x in e}, key=g.index.get)
    vi = {v: i for i, v in enumerate(verts)}
    total = 1 << m
    chunk = 1 << 16
    keep: list[int] = []
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        succ = np.zeros((len(codes), len(verts)), dtype=np.uint64)
        fwd_flags = []
        for k, (u, v) in enumerate(edges):
            fwd = ((codes >> np.uint32(k)) & 1).astype(bool)
            iu, iv = vi[u], vi[v]
            succ[:, iu] |= np.where(fwd, np.uint64(1 << iv), np.uint64(0))
            succ[:, iv] |= np.where(fwd, np.uint64(0), np.uint64(1 << iu))
            fwd_flags.append((fwd, iu, iv))
        ok = np.ones(len(codes), dtype=bool)
        for fwd, iu, iv in fwd_flags:
            tail = np.where(fwd, succ[:, iu], succ[:, iv])
            head = np.where(fwd, succ[:, iv], succ[:, iu])
            ok &= (head & ~tail) == 0
        keep.extend(int(c) for c in codes[ok])
    out = []
    for code in keep:
        directed = frozenset(
            (u, v) if (code >> k) & 1 else (v, u) for k, (u, v) in enumerate(edges)
        )
        out.append(Orientation(directed))
    out.sort(key=Orientation.sorted_pairs)
    return out


def _module_masks(g: Graph) -> list[int]:
    n = g.vertex_count
    if n > MAX_ORACLE_VERTICES:
        raise OracleScaleError(f"module scan limited to {MAX_ORACLE_VERTICES} vertices, got {n}")
    masks = g.adjacency_masks()
    full = (1 << n) - 1
    found = []
    for x in range(1, full + 1):
        ext = full & ~x
        ok = True
        while ext:
            b = ext & -ext
            t = masks[b.bit_length() - 1] & x
            if t and t != x:
                ok = False
                break
            ext ^= b
        if ok:
            found.append(x)
    return found


def brute_force_modules(g: Graph) -> set[frozenset]:
    """All nonempty modules, by scanning every vertex subset.  Refuses |V| > 12."""
    return {g.unmask(x) for x in _module_masks(g)}


def brute_force_strong_modules(g: Graph) -> set[frozenset]:
    """Modules overlapped by no other module."""
    found = _module_masks(g)
    return {
        g.unmask(x)
        for x in found
        if not any((x & y) and (x & ~y) and (y & ~x) for y in found)
    }


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
