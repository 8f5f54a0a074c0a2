from __future__ import annotations

import copy
import json
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from math import factorial, prod

import pytest

from transor import (
    DomainError,
    Graph,
    InvariantError,
    count_orientations,
    decomposition_tree,
    enumerate_orientations,
    induced_subgraph,
    is_comparability,
    is_module,
    is_strong_module,
    maximal_strong_partition,
    multiplex_partition,
    quotient,
    smallest_module,
)
from transor import cli, decomposition, forcing
from transor.decomposition import LEAF, PARALLEL, PRIME, SERIES
from transor.forcing import color_classes
from transor.oracle import closure_strong_partition, complete_graph, fixtures, path_graph, random_graph, six_vertex_graph_classes

import checks


@pytest.fixture(scope="module")
def fx():
    return fixtures()


def test_is_module_examples(fx):
    paw = fx["paw"]
    assert is_module(paw, "bc")
    assert not is_module(paw, "ab")
    assert is_module(paw, "a")
    assert is_module(paw, paw.vertices)
    assert is_module(paw, ())


def test_smallest_module_traces(fx):
    assert smallest_module(fx["paw"], "bd") == frozenset("bcd")
    assert smallest_module(fx["c4"], "ac") == frozenset("ac")
    assert smallest_module(fx["p4"], "ab") == frozenset("abcd")
    with pytest.raises(DomainError):
        smallest_module(fx["paw"], ())


def test_is_strong_module_examples(fx):
    assert is_strong_module(fx["paw"], "bc")
    assert not is_strong_module(fx["k2_join_2k1"], ["a1", "a2"])
    assert is_strong_module(fx["p4"], "a")
    assert not is_strong_module(fx["k3"], "ab")


def test_maximal_strong_partition_branches(fx):
    assert set(maximal_strong_partition(fx["paw"])) == {
        frozenset("a"),
        frozenset("bcd"),
    }
    assert set(maximal_strong_partition(fx["p4"])) == {
        frozenset(v) for v in "abcd"
    }
    assert set(maximal_strong_partition(fx["c4"])) == {
        frozenset("ac"),
        frozenset("bd"),
    }
    assert set(maximal_strong_partition(fx["two_k2"])) == {
        frozenset("ab"),
        frozenset("cd"),
    }
    with pytest.raises(DomainError):
        maximal_strong_partition(Graph("a"))


def test_partition_parts_are_ordered_by_smallest_vertex(fx):
    parts = list(maximal_strong_partition(fx["c4"]))
    assert [min(p) for p in parts] == ["a", "b"]


def test_tree_shapes(fx):
    paw_tree = decomposition_tree(fx["paw"])
    assert paw_tree.kind == SERIES
    assert [c.kind for c in paw_tree.children] == [LEAF, PARALLEL]
    inner = paw_tree.children[1]
    assert [sorted(c.vertex_set) for c in inner.children] == [["b", "c"], ["d"]]
    assert inner.children[0].kind == SERIES

    k3_tree = decomposition_tree(fx["k3"])
    assert k3_tree.kind == SERIES and len(k3_tree.children) == 3

    p4_tree = decomposition_tree(fx["p4"])
    assert p4_tree.kind == PRIME
    assert all(c.kind == LEAF for c in p4_tree.children)


def test_a_deep_tree_pickles_and_copies_at_any_depth():
    # threshold_graph(1000)'s tree is a chain 999 nodes deep.
    tree = decomposition_tree(checks.threshold_graph(1000))
    for other in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree), copy.copy(tree)):
        assert other == tree and other is not tree


def test_tree_of_single_vertex_and_empty_input():
    leaf = decomposition_tree(Graph("a"))
    assert leaf.kind == LEAF and leaf.children == ()
    with pytest.raises(DomainError):
        decomposition_tree(Graph(()))


def test_quotient_examples(fx):
    paw = fx["paw"]
    q = quotient(paw, maximal_strong_partition(paw))
    assert q.vertices == ("a", "b") and q.edge_count == 1
    c4 = fx["c4"]
    assert quotient(c4, maximal_strong_partition(c4)).edge_count == 1
    singletons = [frozenset((v,)) for v in paw.vertices]
    assert quotient(paw, singletons) == paw


def test_quotient_rejects_non_module_partitions(fx):
    paw = fx["paw"]
    with pytest.raises(DomainError):
        quotient(paw, [frozenset("ab"), frozenset("cd")])
    with pytest.raises(DomainError):
        quotient(paw, [frozenset("bc")])


def test_representatives_are_quotient_vertices(fx):
    tree = decomposition_tree(fx["paw"])
    assert tree.representatives == ["a", "b"]
    assert tuple(tree.representatives) == quotient(fx["paw"], [c.vertex_set for c in tree.children]).vertices


def test_representatives_stay_out_of_equality(fx):
    fresh, used = decomposition_tree(fx["paw"]), decomposition_tree(fx["paw"])
    for node in used.walk():
        assert node.representatives == [min(c.vertex_set) for c in node.children]
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert "representatives" not in repr(used)


def test_tree_json_schema(fx):
    tree = decomposition_tree(fx["paw"])
    data = json.loads(json.dumps(tree.to_json_dict()))
    assert data["kind"] == "series"
    assert data["vertices"] == ["a", "b", "c", "d"]
    assert data["children"][0] == {"vertices": ["a"], "kind": "leaf", "children": []}


def test_partition_is_invariant_under_shuffled_scans(fx):
    for g in fx.values():
        if g.vertex_count < 2:
            continue
        base = maximal_strong_partition(g)
        for seed in range(5):
            assert maximal_strong_partition(g, shuffle=random.Random(seed)) == base
        assert decomposition_tree(g, shuffle=random.Random(3)) == decomposition_tree(g)


def test_decomposition_properties_on_small_corpus(small_bundles):
    for b in small_bundles:
        checks.check_tree_nodes_are_strong_modules(b)
        checks.check_partition_shuffle_invariance(b)
        checks.check_crossing_span_intersections_strong(b)
        checks.check_disjoint_strong_cross_single_color(b)
        checks.check_uniform_color_to_strong_module(b)
        checks.check_subtree_matches_induced_tree(b)
        checks.check_quotient_choice_preserves_colors(b)
        checks.check_trichotomy(b)


def test_quotient_module_correspondence_small(small_bundles):
    for b in small_bundles:
        if b.g.vertex_count <= 6:
            checks.check_quotient_module_correspondence(b)


def test_partition_matches_the_pair_closure_reference_past_subset_scale():
    # 13-60 vertices: too many for the subset oracle, within the pair-closure
    # reference.  Every internal node's children are checked, so prime nodes
    # below the root (common in poset graphs) are covered too.
    graphs = [Graph(range(n), [(i, i + 1) for i in range(n - 1)]) for n in (13, 21, 34, 60)]
    graphs += [random_graph(n, p, n) for n in (13, 19, 26, 33, 41, 52, 60) for p in (Fraction(1, 10), Fraction(1, 3), Fraction(7, 10))]
    graphs += [checks.random_poset_graph(n, p, n) for n in (13, 22, 31, 45, 60) for p in (Fraction(1, 12), Fraction(1, 5), Fraction(1, 3))]
    for g in graphs:
        base = maximal_strong_partition(g)
        assert set(base) == closure_strong_partition(g)
        for seed in range(3):
            assert maximal_strong_partition(g, shuffle=random.Random(seed)) == base
        tree = decomposition_tree(g, shuffle=random.Random(7))
        for node in tree.walk():
            if not node.children:
                continue
            q, k = induced_subgraph(g, node.representatives), len(node.children)
            shape = PARALLEL if q.edge_count == 0 else SERIES if q.edge_count == k * (k - 1) // 2 else PRIME
            assert node.kind == shape
            if node is not tree:
                expected = closure_strong_partition(induced_subgraph(g, node.vertex_set))
                assert {c.vertex_set for c in node.children} == expected


def test_long_path_is_one_prime_node_built_fast():
    g = Graph(range(300), [(i, i + 1) for i in range(299)])
    start = time.perf_counter()
    tree = decomposition_tree(g)
    elapsed = time.perf_counter() - start
    assert tree.kind == PRIME and len(tree.children) == 300
    assert all(c.kind == LEAF for c in tree.children)
    assert elapsed < 5.0
    assert count_orientations(g) == 2


def test_a_sparse_prime_node_refines_from_the_smaller_side():
    # Each refinement task first cuts its pivots to the vertices that tell
    # two vertices of its target apart when the target is the smaller side,
    # so a random tree reads about a few masks per vertex, not ~n^2/8.
    class Counted(list):
        reads = 0

        def __getitem__(self, i):
            self.reads += 1
            return super().__getitem__(i)

    g = checks.random_tree(3000)
    masks = Counted(g.adjacency_masks())
    parts = decomposition._prime_parts(masks, (1 << g.vertex_count) - 1, None)
    assert parts == decomposition._split(g)[0][2]
    assert masks.reads < 10 * g.vertex_count


def test_a_random_tree_of_eight_thousand_vertices_is_split_fast():
    g = checks.random_tree(8000)
    start = time.perf_counter()
    tree = decomposition_tree(g)
    assert time.perf_counter() - start < 2.0
    assert tree.kind == PRIME
    start = time.perf_counter()
    assert count_orientations(g) == 2
    assert time.perf_counter() - start < 2.0


def _label_graphs() -> list:
    graphs = six_vertex_graph_classes()
    graphs += [random_graph(3 + i % 42, Fraction(1 + i % 9, 10), i) for i in range(300)]
    graphs += [checks.random_poset_graph(20 + 7 * i, Fraction(1, 10), i) for i in range(20)]
    graphs += [checks.substitution_graph(n, seed, c5)[0] for n, seed in ((500, 1), (2000, 3), (500, 6)) for c5 in (False, True)]
    return graphs + [checks.random_tree(n) for n in (50, 300, 2000)]


def test_prime_nodes_split_by_color_as_by_refinement():
    # With the labels of each topmost prime node, every prime node below it
    # is split by its spanning color; the split list is the refinement's,
    # entry by entry, also under shuffled reading orders, and the count is
    # the one its nodes give.  The colors read off that full list are the
    # ones ``color_classes`` reads off the list that stops at the topmost
    # prime nodes.
    graphs = _label_graphs()
    assert len(graphs) == 485
    for g in graphs:
        masks = g.adjacency_masks()
        upper = decomposition._upper(g)
        labels = {x: forcing._edge_classes(masks, x) for x, kind, _ in upper if kind == PRIME}
        refined = decomposition._split(g)
        for seed in (None, 0, 1, 2):
            assert decomposition._color_split(masks, upper, labels, seed if seed is None else random.Random(seed)) == refined
        comparable = not any(c == r for found in labels.values() for c, r in found.inverse.items())
        radices = [factorial(len(parts)) if kind == SERIES else 2 for _, kind, parts in refined if kind != PARALLEL]
        assert count_orientations(g) == comparable * prod(radices)
        read, cmap = forcing._color_map(g, refined), color_classes(g)
        assert read.colors == cmap.colors and read.edge_to_color == cmap.edge_to_color


# Every verb that splits the graph: the split is proved on each path.  The
# verbs that label the topmost prime nodes split prime nodes by color, the
# others by refinement.
REFINING = (
    decomposition_tree,
    maximal_strong_partition,
    lambda g: multiplex_partition(g, decomposition_tree(g)),
)
LABELLING = (
    is_comparability,
    count_orientations,
    lambda g: next(enumerate_orientations(g)),
)
SPLITTING = REFINING + LABELLING
PRIME_SPLITTERS = [("_prime_parts", REFINING, LABELLING), ("_color_parts", LABELLING, REFINING)]


def _corrupt_scans(monkeypatch, fault):
    # Let the component scans return ``fault(parts)`` instead of a split.
    real = decomposition.mask_components

    def scans(masks, x, co=False):
        parts = real(masks, x, co)
        return fault(parts) if len(parts) > 1 else parts

    monkeypatch.setattr(decomposition, "mask_components", scans)


def _shrink(parts):
    # The largest part loses its lowest vertex.
    i = max(range(len(parts)), key=lambda i: parts[i].bit_count())
    return parts[:i] + [parts[i] & (parts[i] - 1)] + parts[i + 1:]


def _swap(parts):
    # The lowest vertices of the first and the last part trade places.
    a, b = parts[0] & -parts[0], parts[-1] & -parts[-1]
    return [parts[0] ^ a | b] + parts[1:-1] + [parts[-1] ^ b | a]


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda parts: parts + parts[:1], "strong parts overlap"),
        (_shrink, "strong parts do not cover the node"),
        (_swap, "a quotient edge lifts to a non-edge"),
    ],
)
def test_a_faulty_series_or_parallel_split_is_an_invariant_error(fx, monkeypatch, fault, message):
    # A scan whose parts overlap, miss a vertex, or trade vertices (so that
    # they are no modules) is refused by the cover walk on every path.  The
    # threshold graph's root is a series node over 0..10 and the dominating
    # vertex 11, and vertex 0 misses the other even vertices; the paw's root
    # is a series node over a and {b, c, d}.
    _corrupt_scans(monkeypatch, fault)
    for verb in SPLITTING:
        for g in (checks.threshold_graph(12), fx["paw"]):
            with pytest.raises(InvariantError, match=message):
                verb(g)


def test_a_faulty_series_split_past_the_cover_walk_fails_the_witness(fx, monkeypatch):
    # With the cover walk accepting any split, the paw's root splits into
    # {b} and {a, c, d}, which are no modules.  The first orientation,
    # proved from the series node's child list alone (b before the rest),
    # then gives b the non-edge bd: the witness refuses it.
    _corrupt_scans(monkeypatch, _swap)
    monkeypatch.setattr(decomposition, "_below", lambda masks, x, kind, parts, want: [(p, want) for p in parts if p & (p - 1)])
    for verb in LABELLING:
        with pytest.raises(InvariantError, match="orientation does not cover each edge exactly once"):
            verb(fx["paw"])


@pytest.mark.parametrize(
    "parts, message",
    [
        (("ab", "c", "d"), "a quotient non-edge lifts to an edge"),  # c sees b but not a
        (("a", "bc", "d"), "a quotient edge lifts to a non-edge"),  # a sees b but not c
        (("ab", "bcd"), "strong parts overlap"),
        (("a", "b"), "strong parts do not cover the node"),
        (("a", "b", "c", "d", ""), "a strong part is empty"),
    ],
)
@pytest.mark.parametrize("splitter, faulty, sound", PRIME_SPLITTERS, ids=[name for name, _, _ in PRIME_SPLITTERS])
def test_faulty_prime_parts_are_an_invariant_error(fx, monkeypatch, parts, message, splitter, faulty, sound):
    # P4 a-b-c-d is one prime node; one prime splitter's split is replaced
    # by the parts given, which the verbs that take it must refuse and the
    # verbs that take the other one never read.
    p4 = fx["p4"]
    masks = [p4.mask_of(p) for p in parts]
    monkeypatch.setattr(decomposition, splitter, lambda *args: masks)
    for verb in faulty:
        with pytest.raises(InvariantError, match=message):
            verb(p4)
    for verb in sound:
        verb(p4)


def test_a_pivot_module_that_closes_to_the_node_is_an_invariant_error(fx, monkeypatch):
    # With a closure that never reaches the whole node, every part merges
    # with the pivot's, which leaves P4 no proper strong module to split by.
    # Only the refinement closes modules: a prime node split by color is not.
    monkeypatch.setattr(decomposition, "_close_seed", lambda masks, full, x, stop=0: x)
    for verb in REFINING:
        with pytest.raises(InvariantError, match="the strong module holding the pivot is the whole node"):
            verb(fx["p4"])
    assert count_orientations(fx["p4"]) == 2
    assert is_comparability(fx["p4"])


@pytest.mark.parametrize("kind, parts", [(SERIES, [0b11]), (PRIME, [0b01, 0b10])], ids=[SERIES, PRIME])
def test_a_node_with_no_joined_blocks_is_an_invariant_error(kind, parts):
    # An edgeless pair: one part holding both vertices under a series node,
    # two parts with non-adjacent representatives under a prime node.
    with pytest.raises(InvariantError, match=f"{kind} node received no crossing edges"):
        decomposition._blocks(Graph("ab").adjacency_masks(), kind, parts)


@pytest.mark.parametrize("g", [checks.threshold_graph(200), checks.balanced_cograph(6)], ids=["threshold-200", "cograph-64"])
def test_one_scan_per_node_and_no_module_closure(g, monkeypatch):
    # Gallai's alternation: a child of a parallel node is connected and a
    # child of a series node co-connected, so each node below the root runs
    # one component scan, and the cover walk proves the parts modules
    # without closing any of them.
    internal = sum(1 for node in decomposition_tree(g).walk() if node.children)
    real = decomposition.mask_components
    scans = []
    monkeypatch.setattr(decomposition, "mask_components", lambda *args, **kw: scans.append(1) or real(*args, **kw))
    monkeypatch.setattr(decomposition, "_close_seed", None)  # any call fails
    for verb in (count_orientations, decomposition_tree, color_classes, lambda g: multiplex_partition(g, decomposition_tree(g))):
        scans.clear()
        verb(g)
        assert 0 < len(scans) <= internal + 1, verb


@pytest.mark.parametrize("bad", [3, "x", 7, 0.5])
def test_a_shuffle_that_is_no_random_generator_is_a_domain_error(fx, bad):
    # P5 is one prime node, whose split would use the shuffle; the paw is a
    # cograph, whose tree never does.  Both refuse it up front.
    for g in (path_graph(5), fx["paw"]):
        for verb in (decomposition_tree, maximal_strong_partition, lambda g, shuffle: list(enumerate_orientations(g, shuffle=shuffle))):
            with pytest.raises(DomainError, match="is not a random.Random"):
                verb(g, shuffle=bad)
        assert decomposition_tree(g, shuffle=random.Random(1)) == decomposition_tree(g)


_HELD_GRAPHS = [
    fixtures()["paw"],
    fixtures()["p4"],
    complete_graph(24),
    checks.threshold_graph(40),
    checks.balanced_cograph(6),
    checks.random_poset_graph(40, Fraction(1, 10), 1),
    checks.substitution_graph(300, 5)[0],
]


def _written(tree) -> tuple:
    return tree.to_json_dict(), cli._tree_to_json(tree), cli._tree_to_dot(tree)


def test_decompose_decodes_no_node(monkeypatch):
    # The tree is held as its split list: building it, writing its JSON and
    # DOT and reading its multiplices decode no child of the root.
    expected = []
    for g in _HELD_GRAPHS:
        tree = decomposition_tree(g)
        expected.append((_written(pickle.loads(pickle.dumps(tree))), multiplex_partition(g, tree)))

    def refuse(*args):
        raise AssertionError("a node was decoded")

    monkeypatch.setattr(decomposition, "_decode", refuse)
    for g, (written, multiplices) in zip(_HELD_GRAPHS, expected):
        tree = decomposition_tree(g)
        assert _written(tree) == written
        assert cli._tree_to_json(tree) == cli._dump(written[0])
        assert multiplex_partition(g, tree) == multiplices
        assert tree._children is None
    with pytest.raises(AssertionError, match="a node was decoded"):
        tree.children


def test_a_held_tree_is_seen_as_the_tree_built_by_hand():
    # Decoding on first read cannot be seen: a held tree and the tree the
    # construction built agree on every output, whole or a subtree at a
    # time, before and after the nodes are decoded, and so do their pickle
    # round trips (which rebuild each set from its items, so their repr
    # and pickle may differ from the trees they came from).
    g, built, _ = checks.substitution_graph(300, 5)
    fresh, held = decomposition_tree(g), decomposition_tree(g)
    written = _written(fresh)
    assert _written(built) == written
    assert repr(held) == repr(built) and hash(held) == hash(built) and held == built
    assert pickle.dumps(held) == pickle.dumps(built)
    copies = [pickle.loads(pickle.dumps(tree)) for tree in (held, built)]
    assert repr(copies[0]) == repr(copies[1]) and pickle.dumps(copies[0]) == pickle.dumps(copies[1])
    for other in copies:
        assert _written(other) == written and hash(other) == hash(held) and other == held
    assert _written(held) == written
    for mine, theirs in zip(held.walk(), built.walk()):
        assert _written(mine) == _written(theirs)
        assert mine.representatives == theirs.representatives
    assert [c.kind for c in fresh.children[0].children] == [c.kind for c in built.children[0].children]
    assert _written(fresh) == written  # a tree decoded in part


def test_a_held_tree_of_any_depth_is_read_without_recursion():
    # threshold_graph(3000)'s tree is a chain 2999 nodes deep.
    tree = decomposition_tree(checks.threshold_graph(3000))
    deep = tree
    for _ in range(2000):
        deep = next(c for c in deep.children if c.children)
    twin = pickle.loads(pickle.dumps(deep))
    assert len(deep.vertex_set) == 1000
    assert deep == twin and hash(deep) == hash(twin) and repr(deep).count("DecompositionNode(") == 1999
    assert cli._tree_to_json(deep) == cli._tree_to_json(twin)
    assert deep.to_json_dict()["vertices"] == [str(v) for v in sorted(deep.vertex_set)]
    assert len(tree.to_json_dict()["vertices"]) == 3000
    assert cli._tree_to_json(tree).count('"kind"') == 5999
    assert len(tree.vertex_set) == 3000 and hash(tree) == hash((frozenset(range(3000)), tree.kind))


def test_a_held_tree_retains_its_split_list_alone():
    # threshold-500's tree is a chain 499 nodes deep: node objects with a
    # vertex set each retained 5.6 MB; the split list retains 0.13 MB.
    g = checks.threshold_graph(500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = decomposition_tree(g)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tree.kind == SERIES
    assert retained < 2**20
