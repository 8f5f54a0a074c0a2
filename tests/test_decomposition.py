from __future__ import annotations

import json
import random
import time
from fractions import Fraction

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
from transor import decomposition
from transor.decomposition import LEAF, PARALLEL, PRIME, SERIES, DecompositionNode
from transor.oracle import closure_strong_partition, fixtures, random_graph

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


# Every verb that splits the graph: the split is proved on each path.
SPLITTING = (
    decomposition_tree,
    maximal_strong_partition,
    is_comparability,
    count_orientations,
    lambda g: next(enumerate_orientations(g)),
    lambda g: multiplex_partition(g, decomposition_tree(g)),
)


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
def test_faulty_prime_parts_are_an_invariant_error(fx, monkeypatch, parts, message):
    # P4 a-b-c-d is one prime node; its split is replaced by the parts given.
    p4 = fx["p4"]
    masks = [p4.mask_of(p) for p in parts]
    monkeypatch.setattr(decomposition, "_prime_parts", lambda *args: masks)
    for verb in SPLITTING:
        with pytest.raises(InvariantError, match=message):
            verb(p4)


def test_a_pivot_module_that_closes_to_the_node_is_an_invariant_error(fx, monkeypatch):
    # With a closure that never reaches the whole node, every part merges
    # with the pivot's, which leaves P4 no proper strong module to split by.
    monkeypatch.setattr(decomposition, "_close_seed", lambda masks, full, x, stop=0: x)
    for verb in SPLITTING:
        with pytest.raises(InvariantError, match="the strong module holding the pivot is the whole node"):
            verb(fx["p4"])


def _leaf(v) -> DecompositionNode:
    return DecompositionNode(frozenset((v,)), LEAF, ())


def _node(kind: str, *children: DecompositionNode) -> DecompositionNode:
    return DecompositionNode(frozenset().union(*(c.vertex_set for c in children)), kind, children)


def test_hand_built_trees_that_do_not_fit_the_graph_are_refused():
    # ``multiplex_partition`` takes any tree; the cover walk that proves a
    # split refuses the ones whose nodes are no modules of the kind they say.
    p3 = Graph("abc", [("a", "b"), ("b", "c")])
    a, b, c, d = map(_leaf, "abcd")
    cases = [
        (p3, _node(PARALLEL, a, _node(SERIES, b, c)), "a quotient non-edge lifts to an edge"),  # a-b crosses
        (p3, _node(SERIES, a, _node(SERIES, b, c)), "a quotient edge lifts to a non-edge"),  # a-c missing
        (fixtures()["p4"], _node(PRIME, a, _node(SERIES, b, c), d), "a quotient edge lifts to a non-edge"),  # a-c missing
        (p3, _node(SERIES, _node(SERIES, a, b), a, c), "strong parts overlap"),
        (Graph("ab"), _node(PRIME, a, b), "prime node received no crossing edges"),
        (Graph("ab", [("a", "b")]), _node(SERIES, _node(SERIES, a, b)), "series node received no crossing edges"),
        (p3, _node(SERIES, b, _node(PARALLEL, _node(SERIES, a), c)), "a node of one vertex has children"),
    ]
    for g, tree, message in cases:
        with pytest.raises(InvariantError, match=message):
            multiplex_partition(g, tree)
    assert [m.rank for m in multiplex_partition(p3, _node(SERIES, b, _node(PARALLEL, a, c)))] == [1]


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
    for verb in (count_orientations, decomposition_tree):
        scans.clear()
        verb(g)
        assert 0 < len(scans) <= internal + 1, verb
