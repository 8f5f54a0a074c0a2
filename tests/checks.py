"""Property checks shared by the unit tests and the acceptance suite.

Each check takes a Bundle (one corpus graph with cached derived data) and
raises AssertionError with context on failure.  Oracle-backed data is only
available within the brute-force guards; checks skip quietly outside them.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from math import factorial

from transor import (
    Graph,
    color_classes,
    complement,
    connected_components,
    count_orientations,
    decomposition_tree,
    enumerate_orientations,
    induced_subgraph,
    is_comparability,
    is_maximal_multiplex,
    is_module,
    is_strong_module,
    is_transitive,
    maximal_strong_partition,
    multiplex_partition,
    check_triangle_lemma,
    color_multiplex,
    simplex_extension_exists,
    strong_modules_of_order,
)
from transor.decomposition import LEAF, PARALLEL, PRIME, SERIES, DecompositionNode
from transor.oracle import (
    MAX_ORACLE_EDGES,
    MAX_ORACLE_VERTICES,
    brute_force_modules,
    brute_force_orientations,
    brute_force_strong_modules,
    splitmix64,
)

PARTITION_CAP = 1500  # deterministic cap on module partitions per graph


def threshold_graph(n: int) -> Graph:
    # Vertex i > 0 arrives dominating when odd, isolated when even: the
    # strong-module tree is a chain of depth n - 1.
    return Graph(range(n), [(j, i) for i in range(1, n, 2) for j in range(i)])


def random_tree(n: int, seed: int = 1) -> Graph:
    # Vertex i > 0 hangs below ``random.Random(seed).randrange(i)``.  Past a
    # star, a tree is one sparse prime node over parallel nodes of leaves,
    # and it has two orientations: every vertex a source or a sink.
    draw = random.Random(seed)
    return Graph(range(n), [(draw.randrange(i), i) for i in range(1, n)])


def relabelled_union(pieces: list[Graph], join: bool, seed: int) -> Graph:
    # The disjoint union of the pieces (with ``join``, every vertex of one
    # piece also adjacent to every vertex of the others), its vertex names a
    # seeded permutation so that no piece is a run of consecutive names.
    offsets, n = [], 0
    for g in pieces:
        offsets.append(n)
        n += g.vertex_count
    names = list(range(n))
    random.Random(seed).shuffle(names)
    edges = []
    for g, base in zip(pieces, offsets):
        index = g.index
        edges += [(names[base + index[u]], names[base + index[v]]) for u, v in g.sorted_edges()]
    if join:
        bounds = offsets + [n]
        edges += [(names[i], names[j]) for k in range(len(pieces)) for i in range(bounds[k], bounds[k + 1]) for j in range(bounds[k + 1], n)]
    return Graph(names, edges)


def balanced_cograph(depth: int) -> Graph:
    # Levels alternate disjoint union and join; the root is a join.
    n = 2 ** depth
    edges = []
    width = 1
    for level in range(1, depth + 1):
        width *= 2
        if (depth - level) % 2 == 0:
            half = width // 2
            for lo in range(0, n, width):
                edges += [(a, b) for a in range(lo, lo + half) for b in range(lo + half, lo + width)]
    return Graph(range(n), edges)


def random_poset_graph(n: int, p: Fraction, seed: int) -> Graph:
    # Comparability graph of the transitive closure of a splitmix64 DAG.
    cut = (p.numerator << 64) // p.denominator
    draws = splitmix64(seed)
    succ = [0] * n
    for i, j in combinations(range(n), 2):
        if next(draws) < cut:
            succ[i] |= 1 << j
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if succ[i] >> j & 1:
                succ[i] |= succ[j]
    return Graph(range(n), [(i, j) for i, j in combinations(range(n), 2) if succ[i] >> j & 1])


PRIME_ABOVE = 24  # in a substitution graph, every module larger than this below the root is prime


def substitution_graph(n: int, seed: int, c5: bool = False) -> tuple[Graph, DecompositionNode, int]:
    """A graph on 0..n-1 (n >= 2) built by substitution, with its tree and
    orientation count known by construction.

    The root is an edgeless piece (a parallel node), and each piece vertex
    is replaced by a module grown the same way, down to single vertices.
    Pieces are paths P_k, k = 4..6 (prime nodes), complete graphs (series
    nodes) and edgeless graphs (parallel nodes).  Every module of more than
    PRIME_ABOVE vertices below the root is a prime node, so primes nest
    several levels deep; a path's odd positions take one or two vertices,
    which keeps the graph sparse.  No series node has a series child and no
    parallel node a parallel one, so the tree is the construction's and the
    count is the product of k! over series nodes of k children, times 2 per
    prime node.  With ``c5`` the last P_5 in pre-order is closed into the
    5-cycle: the tree stays, and the graph is no comparability graph (count
    0).  The vertex names are a seeded permutation, so no child is a run of
    consecutive names.  splitmix64 draws make it the same everywhere.
    """
    draws = splitmix64(seed)

    def below(m: int) -> int:
        return next(draws) % m

    names = list(range(n))
    for i in range(n - 1, 0, -1):
        j = below(i + 1)
        names[i], names[j] = names[j], names[i]
    leaves = iter(names)
    joins = []  # (kind, child vertex lists in piece order) per internal node, pre-order
    count = 1

    def sizes(budget: int, small: list[int], k: int) -> list[int]:
        # k positive sizes summing to budget: the given sizes at odd places
        # when ``small`` is not empty, the rest shared by seeded weights.
        out = [1] * k
        for i, size in zip(range(1, k, 2), small):
            out[i] = size
        free = [i for i in range(k) if not (small and i % 2)]
        rest = budget - sum(out)
        weights = {i: 1 + below(8) for i in free}
        total = sum(weights.values())
        for i in free:
            out[i] += rest * weights[i] // total
        out[free[0]] += budget - sum(out)
        return out

    def grow(budget: int, above: str | None) -> DecompositionNode:
        nonlocal count
        if budget == 1:
            return DecompositionNode(frozenset((next(leaves),)), LEAF, ())
        if above is None:
            kind = PARALLEL
        elif budget > PRIME_ABOVE:
            kind = PRIME
        else:
            kinds = [k for k in (PRIME, SERIES, PARALLEL) if k != above and (k != PRIME or budget >= 4)]
            kind = kinds[below(len(kinds))]
        if kind == PRIME:
            k = 4 + below(min(3, budget - 3))
            small = [1 + below(2) for _ in range(1, k, 2)]
            if sum(small) + (k + 1) // 2 > budget:
                small = [1] * (k // 2)
            parts = sizes(budget, small, k)
            count *= 2
        else:
            k = 2 + below(min(3, budget - 1))
            parts = sizes(budget, [], k)
            if kind == SERIES:
                count *= factorial(k)
        entry = (kind, [])
        joins.append(entry)
        children = [grow(size, kind) for size in parts]
        entry[1].extend(sorted(c.vertex_set) for c in children)
        children.sort(key=lambda c: min(c.vertex_set))
        return DecompositionNode(frozenset().union(*(c.vertex_set for c in children)), kind, tuple(children))

    tree = grow(n, None)
    edges = []
    p5 = [members for kind, members in joins if kind == PRIME and len(members) == 5]
    if c5 and not p5:
        raise ValueError(f"substitution_graph({n}, {seed}) has no P_5 to close")
    cycle = p5[-1] if c5 else None
    for kind, members in joins:
        if kind == PRIME:
            pairs = [(i, i + 1) for i in range(len(members) - 1)]
            if members is cycle:
                pairs.append((0, 4))
        elif kind == SERIES:
            pairs = list(combinations(range(len(members)), 2))
        else:
            pairs = []
        edges += [(u, v) for i, j in pairs for u in members[i] for v in members[j]]
    return Graph(range(n), edges), tree, 0 if c5 else count


class Bundle:
    """One corpus graph plus lazily computed derived structures."""

    def __init__(self, name: str, g: Graph):
        self.name = name
        self.g = g

    @cached_property
    def colors(self):
        return color_classes(self.g)

    @cached_property
    def tree(self):
        if self.g.vertex_count == 0:
            return None
        return decomposition_tree(self.g)

    @cached_property
    def multiplices(self):
        if self.tree is None:
            return []
        return multiplex_partition(self.g, self.tree, self.colors)

    @cached_property
    def oracle_modules(self):
        if self.g.vertex_count > MAX_ORACLE_VERTICES:
            return None
        return brute_force_modules(self.g)

    @cached_property
    def oracle_strong(self):
        if self.g.vertex_count > MAX_ORACLE_VERTICES:
            return None
        return brute_force_strong_modules(self.g)

    @cached_property
    def oracle_orientations(self):
        if self.g.edge_count > MAX_ORACLE_EDGES:
            return None
        return brute_force_orientations(self.g)

    @cached_property
    def count(self):
        return count_orientations(self.g)

    @cached_property
    def emitted(self):
        # None when the full stream is too large to materialize; the
        # acceptance corpus (n <= 8, |E| <= 20) always stays far below this.
        if self.count > 50_000:
            return None
        return list(enumerate_orientations(self.g))

    def __repr__(self):
        return f"Bundle({self.name})"


def _directed_modules(g: Graph, o) -> set[frozenset]:
    # All (not only strong) directed modules of an orientation, brute force.
    n = g.vertex_count
    idx = g.index
    out = [0] * n
    into = [0] * n
    for t, h in o.directed:
        out[idx[t]] |= 1 << idx[h]
        into[idx[h]] |= 1 << idx[t]
    full = (1 << n) - 1
    found = set()
    for x in range(1, full + 1):
        ext = full & ~x
        ok = True
        while ext:
            b = ext & -ext
            i = b.bit_length() - 1
            t = out[i] & x
            if t and t != x:
                ok = False
                break
            t = into[i] & x
            if t and t != x:
                ok = False
                break
            ext ^= b
        if ok:
            found.add(g.unmask(x))
    return found


def _module_partitions(g: Graph, cap: int = PARTITION_CAP):
    # Partitions of V into modules, DFS over modules keyed by lowest vertex.
    mods = sorted(g.mask_of(m) for m in brute_force_modules(g))
    full = (1 << g.vertex_count) - 1
    by_low: dict[int, list[int]] = {}
    for m in mods:
        by_low.setdefault(m & -m, []).append(m)

    def rec(covered):
        if covered == full:
            yield ()
            return
        low = (full & ~covered) & -(full & ~covered)
        for m in by_low.get(low, ()):
            if m & covered:
                continue
            for rest in rec(covered | m):
                yield (m,) + rest

    yield from islice(rec(0), cap)


# ---------------------------------------------------------------------------
# Color classes and spans.


def check_colors_partition_edges(b: Bundle):
    seen: set = set()
    for c in b.colors.colors:
        assert not (c.undirected & seen), f"{b}: colors share an edge"
        seen |= c.undirected
    assert seen == set(b.g.edges), f"{b}: colors do not cover E"


def check_color_respects_modules(b: Bundle):
    if b.oracle_modules is None:
        return
    for x in b.oracle_modules:
        inside = {e for e in b.g.edges if e[0] in x and e[1] in x}
        for c in b.colors.colors:
            if c.undirected & inside:
                assert c.undirected <= inside, (
                    f"{b}: color {c.id} crosses the boundary of module {sorted(x)}"
                )


def check_color_span_is_module(b: Bundle):
    for c in b.colors.colors:
        assert is_module(b.g, c.span), f"{b}: span of color {c.id} is not a module"


def check_span_determines_color(b: Bundle):
    spans = [c.span for c in b.colors.colors]
    for i, j in combinations(range(len(spans)), 2):
        assert spans[i] != spans[j], (
            f"{b}: distinct colors {i},{j} share the span {sorted(spans[i])}"
        )


def check_module_in_span_witness(b: Bundle):
    if b.oracle_modules is None:
        return
    for c in b.colors.colors:
        for x in b.oracle_modules:
            if not (x < c.span):
                continue
            witnesses = [
                a
                for a in c.span - x
                if all(b.g.has_edge(a, v) and b.g.edge_key(a, v) in c.undirected for v in x)
            ]
            assert witnesses, (
                f"{b}: no vertex of span {c.id} reaches module {sorted(x)} fully in color"
            )


def check_triangle_consistency(b: Bundle):
    violations = check_triangle_lemma(b.g)
    assert violations == [], f"{b}: {violations[:3]}"


def check_class_halves_transitive(b: Bundle):
    for c in b.colors.colors:
        if c.self_inverse:
            assert c.forward == c.reverse, f"{b}: broken self-inverse class {c.id}"
            continue
        for half in (c.forward, c.reverse):
            by_tail: dict = {}
            for t, h in half:
                by_tail.setdefault(t, []).append(h)
            for t, h in half:
                for z in by_tail.get(h, ()):
                    assert (t, z) in half, (
                        f"{b}: class {c.id} misses the composite ({t!r},{z!r})"
                    )


def check_comparability_agreement(b: Bundle):
    if b.oracle_orientations is None:
        return
    assert is_comparability(b.g) == (len(b.oracle_orientations) > 0), (
        f"{b}: comparability verdict disagrees with the oracle"
    )


# ---------------------------------------------------------------------------
# Modules, strong modules, the tree.


def check_tree_nodes_are_strong_modules(b: Bundle):
    if b.oracle_strong is None or b.tree is None:
        return
    tree_sets = {node.vertex_set for node in b.tree.walk()}
    assert tree_sets == b.oracle_strong, (
        f"{b}: tree nodes {sorted(map(sorted, tree_sets))} !="
        f" strong modules {sorted(map(sorted, b.oracle_strong))}"
    )


def check_partition_shuffle_invariance(b: Bundle):
    if b.g.vertex_count < 2:
        return
    base = maximal_strong_partition(b.g)
    for seed in (1, 2):
        again = maximal_strong_partition(b.g, shuffle=random.Random(seed))
        assert again == base, f"{b}: partition changed under shuffled scan order"


def check_quotient_module_correspondence(b: Bundle):
    # The partition scan is exponential in the part count; held to 8 vertices.
    if b.oracle_modules is None or not 2 <= b.g.vertex_count <= 8:
        return
    from transor.decomposition import quotient as quotient_of

    for masks in _module_partitions(b.g):
        parts = [b.g.unmask(m) for m in masks]
        q = quotient_of(b.g, parts)
        reps = [min(p) for p in parts]
        for r in range(1, len(parts) + 1):
            for subset in combinations(range(len(parts)), r):
                union = frozenset().union(*(parts[i] for i in subset))
                lifted = is_module(b.g, union)
                in_quotient = is_module(q, [reps[i] for i in subset])
                assert lifted == in_quotient, (
                    f"{b}: union of parts {subset} is_module={lifted}"
                    f" but quotient says {in_quotient}"
                )


def check_crossing_span_intersections_strong(b: Bundle):
    for c1, c2 in combinations(b.colors.colors, 2):
        if (c1.span - c2.span) and (c2.span - c1.span):
            inter = c1.span & c2.span
            assert is_strong_module(b.g, inter), (
                f"{b}: span intersection {sorted(inter)} of colors"
                f" {c1.id},{c2.id} is not strong"
            )


def check_disjoint_strong_cross_single_color(b: Bundle):
    if b.oracle_strong is None:
        return
    strong = list(b.oracle_strong)
    for x, y in combinations(strong, 2):
        if x & y:
            continue
        cross = {
            b.colors.color_of(u, v)
            for u in x
            for v in y
            if b.g.has_edge(u, v)
        }
        assert len(cross) <= 1, (
            f"{b}: strong modules {sorted(x)},{sorted(y)} joined by colors {cross}"
        )


def check_uniform_color_to_strong_module(b: Bundle):
    if b.oracle_strong is None:
        return
    for x in b.oracle_strong:
        if len(x) == b.g.vertex_count:
            continue
        for u in b.g.vertices:
            if u in x:
                continue
            linked = [v for v in x if b.g.has_edge(u, v)]
            if not linked:
                continue
            assert len(linked) == len(x), f"{b}: {u!r} sees part of module {sorted(x)}"
            cols = {b.colors.color_of(u, v) for v in linked}
            assert len(cols) == 1, (
                f"{b}: {u!r} joined to strong module {sorted(x)} by colors {cols}"
            )


def check_subtree_matches_induced_tree(b: Bundle):
    if b.tree is None:
        return
    for node in b.tree.walk():
        if len(node.vertex_set) < 2 or len(node.vertex_set) == b.g.vertex_count:
            continue
        sub_tree = decomposition_tree(induced_subgraph(b.g, node.vertex_set))
        fresh = {n.vertex_set for n in sub_tree.walk()}
        nested = {n.vertex_set for n in node.walk()}
        assert fresh == nested, (
            f"{b}: induced tree under {sorted(node.vertex_set)} disagrees"
        )


def check_quotient_choice_preserves_colors(b: Bundle):
    if b.g.vertex_count < 2:
        return
    partition = maximal_strong_partition(b.g)
    parts = list(partition)
    groupings = []
    for pick in (min, max):
        reps = [pick(p) for p in parts]
        q = induced_subgraph(b.g, reps)
        qmap = color_classes(q)
        grouping: dict = {}
        for i, j in combinations(range(len(parts)), 2):
            if q.has_edge(reps[i], reps[j]):
                grouping.setdefault(qmap.color_of(reps[i], reps[j]), set()).add((i, j))
        groupings.append(frozenset(frozenset(v) for v in grouping.values()))
    host: dict = {}
    mins = [min(p) for p in parts]
    for i, j in combinations(range(len(parts)), 2):
        if b.g.has_edge(mins[i], mins[j]):
            host.setdefault(b.colors.color_of(mins[i], mins[j]), set()).add((i, j))
    host_grouping = frozenset(frozenset(v) for v in host.values())
    assert groupings[0] == groupings[1] == host_grouping, (
        f"{b}: quotient colors depend on the representative choice"
    )


# ---------------------------------------------------------------------------
# Multiplices.


def check_multiplex_edges_partition(b: Bundle):
    seen: set = set()
    for m in b.multiplices:
        assert not (m.edges & seen), f"{b}: multiplices share an edge"
        seen |= m.edges
    assert seen == set(b.g.edges), f"{b}: multiplices do not cover E"


def check_multiplices_are_color_unions(b: Bundle):
    for m in b.multiplices:
        union = frozenset().union(*(b.colors.colors[c].undirected for c in m.colors))
        assert m.edges == union, f"{b}: multiplex at {m.node_path} is not a color union"
        assert m.span == frozenset().union(*(e for e in m.edges)), (
            f"{b}: span mismatch at {m.node_path}"
        )


def check_maximal_multiplices_pairwise_disjoint(b: Bundle):
    for m1, m2 in combinations(b.multiplices, 2):
        assert not (m1.edges & m2.edges), (
            f"{b}: multiplices at {m1.node_path} and {m2.node_path} intersect"
        )


def check_at_most_one_spanning_multiplex(b: Bundle):
    whole = frozenset(b.g.vertices)
    spanning = [m for m in b.multiplices if m.span == whole]
    assert len(spanning) <= 1, f"{b}: {len(spanning)} multiplices span V"


def check_connected_iff_spanning_multiplex(b: Bundle):
    if b.g.vertex_count < 2:
        return
    whole = frozenset(b.g.vertices)
    connected = len(connected_components(b.g)) == 1
    spanning = any(m.span == whole for m in b.multiplices)
    assert connected == spanning, (
        f"{b}: connected={connected} but spanning multiplex={spanning}"
    )


def check_multiplex_within_strong_module(b: Bundle):
    if b.oracle_strong is None:
        return
    for x in b.oracle_strong:
        inside = {e for e in b.g.edges if e[0] in x and e[1] in x}
        for m in b.multiplices:
            if m.edges & inside:
                assert m.edges <= inside, (
                    f"{b}: multiplex at {m.node_path} crosses strong module {sorted(x)}"
                )


def check_maximality_via_span(b: Bundle):
    tree_edge_sets = {m.edges for m in b.multiplices}
    for m in b.multiplices:
        assert is_maximal_multiplex(b.g, m), f"{b}: partition member not maximal"
    for c in b.colors.colors:
        single = color_multiplex(b.g, b.colors, c.id)
        expected = single.edges in tree_edge_sets
        assert is_maximal_multiplex(b.g, single) == expected, (
            f"{b}: color {c.id} maximality disagrees with the partition"
        )


def check_extension_characterizes_maximality(b: Bundle):
    all_multiplices = list(b.multiplices) + [
        color_multiplex(b.g, b.colors, c.id) for c in b.colors.colors
    ]
    for m in all_multiplices:
        extensible = any(
            simplex_extension_exists(b.g, m, a, b.colors)
            for a in b.g.vertices
            if a not in m.span
        )
        assert is_maximal_multiplex(b.g, m) == (not extensible), (
            f"{b}: extension test disagrees with maximality for span {sorted(m.span)}"
        )


def check_node_shapes(b: Bundle):
    if b.tree is None:
        return
    by_path = {m.node_path: m for m in b.multiplices}
    for path, node in b.tree.walk_with_paths():
        if node.kind == "leaf":
            assert len(node.vertex_set) == 1 and not node.children
            continue
        k = len(node.children)
        assert k >= 2, f"{b}: internal node with {k} children"
        union = frozenset().union(*(c.vertex_set for c in node.children))
        assert union == node.vertex_set, f"{b}: children do not partition the node"
        q = induced_subgraph(b.g, node.representatives)
        empty = q.edge_count == 0
        complete = q.edge_count == k * (k - 1) // 2
        if node.kind == PARALLEL:
            assert empty, f"{b}: parallel node with edges at {path}"
            assert path not in by_path
            continue
        m = by_path[path]
        if node.kind == SERIES:
            assert complete and not empty, f"{b}: series node not complete at {path}"
            assert m.rank == k - 1
            assert len(m.colors) == k * (k - 1) // 2, (
                f"{b}: series node at {path} has colors {sorted(m.colors)}"
            )
            pair_colors = {}
            for i, j in combinations(range(k), 2):
                u = min(node.children[i].vertex_set)
                v = min(node.children[j].vertex_set)
                pair_colors[(i, j)] = b.colors.color_of(u, v)
            assert len(set(pair_colors.values())) == len(pair_colors), (
                f"{b}: series quotient at {path} is not a simplex"
            )
            if m.rank >= 2:
                spans = {
                    c: b.colors.colors[c].span for c in m.colors
                }
                inters = set()
                for c1, c2 in combinations(sorted(m.colors), 2):
                    inter = spans[c1] & spans[c2]
                    if inter:
                        inters.add(inter)
                children_sets = {c.vertex_set for c in node.children}
                assert inters == children_sets, (
                    f"{b}: pairwise span intersections differ from children at {path}"
                )
        else:
            assert not empty and not complete, f"{b}: prime node degenerate at {path}"
            assert k >= 4, f"{b}: prime node with only {k} children"
            assert m.rank == 1 and len(m.colors) == 1, (
                f"{b}: prime node at {path} holds colors {sorted(m.colors)}"
            )
            assert len(connected_components(q)) == 1, f"{b}: prime quotient disconnected"
            assert len(connected_components(complement(q))) == 1, (
                f"{b}: prime quotient co-disconnected"
            )
            if q.vertex_count <= MAX_ORACLE_VERTICES:
                nontrivial = {
                    x for x in brute_force_modules(q) if 1 < len(x) < q.vertex_count
                }
                assert not nontrivial, f"{b}: prime quotient decomposable at {path}"
            qmap = color_classes(q)
            assert len(qmap.colors) == 1, f"{b}: prime quotient with several colors"
            assert qmap.colors[0].span == frozenset(q.vertices), (
                f"{b}: prime quotient color does not span it"
            )
            lifted = {b.g.edge_key(u, v) for u, v in q.edges}
            assert lifted <= m.edges, f"{b}: quotient edges escape the multiplex"


def check_trichotomy(b: Bundle):
    if b.tree is None:
        return
    for path, node in b.tree.walk_with_paths():
        if node.kind == "leaf":
            continue
        k = len(node.children)
        q = induced_subgraph(b.g, node.representatives)
        empty = q.edge_count == 0
        complete = q.edge_count == k * (k - 1) // 2
        indecomposable = False
        if not empty and not complete and q.vertex_count <= MAX_ORACLE_VERTICES:
            indecomposable = all(
                len(x) in (1, q.vertex_count) for x in brute_force_modules(q)
            )
        assert [empty, complete, not empty and not complete].count(True) == 1
        if not empty and not complete and q.vertex_count <= MAX_ORACLE_VERTICES:
            assert indecomposable, f"{b}: middle case quotient decomposable at {path}"


def check_spanning_color_gives_nontrivial_strong(b: Bundle):
    if b.oracle_modules is None or b.oracle_strong is None:
        return
    n = b.g.vertex_count
    if n <= 2:
        return
    decomposable = any(1 < len(x) < n for x in b.oracle_modules)
    has_spanning_color = any(len(c.span) == n for c in b.colors.colors)
    if decomposable and has_spanning_color:
        proper = [x for x in b.oracle_strong if len(x) < n]
        maximal = [
            x for x in proper if not any(x < y for y in proper)
        ]
        assert any(len(x) > 1 for x in maximal), (
            f"{b}: no non-trivial maximal strong module"
        )


# ---------------------------------------------------------------------------
# Orientations.


def check_count_matches_oracle(b: Bundle):
    if b.oracle_orientations is None:
        return
    assert b.count == len(b.oracle_orientations), (
        f"{b}: count {b.count} != oracle {len(b.oracle_orientations)}"
    )


def check_enumeration_matches_oracle(b: Bundle):
    if b.oracle_orientations is None or b.emitted is None or b.g.edge_count > 16:
        return
    assert set(b.emitted) == set(b.oracle_orientations), (
        f"{b}: enumerated orientations differ from the oracle's"
    )


def check_emitted_are_transitive(b: Bundle):
    if b.emitted is None:
        return
    assert len(b.emitted) == b.count, f"{b}: stream length != count"
    for o in b.emitted:
        assert is_transitive(b.g, o), f"{b}: emitted orientation not transitive"


def check_orientations_use_whole_classes(b: Bundle):
    if b.emitted is None:
        return
    for o in b.emitted:
        for c in b.colors.colors:
            chosen = frozenset(
                e for e in o.directed if b.g.edge_key(*e) in c.undirected
            )
            assert chosen == c.forward or chosen == c.reverse, (
                f"{b}: orientation splits color {c.id}"
            )


def check_orientation_strong_modules(b: Bundle):
    if b.oracle_strong is None or b.emitted is None or b.g.vertex_count > 8:
        return
    for o in b.emitted:
        assert strong_modules_of_order(b.g, o) == b.oracle_strong, (
            f"{b}: strong modules changed under orientation {o.to_json()}"
        )


def check_directed_modules_contained(b: Bundle):
    if b.oracle_modules is None or b.emitted is None or b.g.vertex_count > 8:
        return
    for o in b.emitted:
        assert _directed_modules(b.g, o) <= b.oracle_modules, (
            f"{b}: an orientation has a module the graph lacks"
        )


def check_enumeration_deterministic(b: Bundle):
    if b.emitted is None or b.count > 400:
        first = list(enumerate_orientations(b.g, limit=50))
        second = list(enumerate_orientations(b.g, limit=50))
    else:
        first = b.emitted
        second = list(enumerate_orientations(b.g))
    assert first == second, f"{b}: two runs enumerated differently"


PROPERTY_CHECKS = [
    check_colors_partition_edges,
    check_color_respects_modules,
    check_color_span_is_module,
    check_span_determines_color,
    check_module_in_span_witness,
    check_triangle_consistency,
    check_class_halves_transitive,
    check_comparability_agreement,
    check_tree_nodes_are_strong_modules,
    check_partition_shuffle_invariance,
    check_quotient_module_correspondence,
    check_crossing_span_intersections_strong,
    check_disjoint_strong_cross_single_color,
    check_uniform_color_to_strong_module,
    check_subtree_matches_induced_tree,
    check_quotient_choice_preserves_colors,
    check_multiplex_edges_partition,
    check_multiplices_are_color_unions,
    check_maximal_multiplices_pairwise_disjoint,
    check_at_most_one_spanning_multiplex,
    check_connected_iff_spanning_multiplex,
    check_multiplex_within_strong_module,
    check_maximality_via_span,
    check_extension_characterizes_maximality,
    check_node_shapes,
    check_trichotomy,
    check_spanning_color_gives_nontrivial_strong,
    check_count_matches_oracle,
    check_enumeration_matches_oracle,
    check_emitted_are_transitive,
    check_orientations_use_whole_classes,
    check_orientation_strong_modules,
    check_directed_modules_contained,
]
