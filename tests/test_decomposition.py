from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from transor import (
    DomainError,
    Graph,
    count_orientations,
    decomposition_tree,
    induced_subgraph,
    is_module,
    is_strong_module,
    maximal_strong_partition,
    quotient,
    smallest_module,
)
from transor.decomposition import LEAF, PARALLEL, PRIME, SERIES
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
