from __future__ import annotations

import pytest

from transor import (
    DomainError,
    Graph,
    color_classes,
    color_multiplex,
    decomposition_tree,
    is_maximal_multiplex,
    multiplex_partition,
    simplex_extension_exists,
)
from transor.decomposition import LEAF, PRIME, SERIES, DecompositionNode
from transor.oracle import fixtures

import checks


@pytest.fixture(scope="module")
def fx():
    return fixtures()


def test_paw_partition(fx):
    paw = fx["paw"]
    parts = multiplex_partition(paw, decomposition_tree(paw))
    assert [sorted(m.edges) for m in parts] == [
        [("a", "b"), ("a", "c"), ("a", "d")],
        [("b", "c")],
    ]
    assert [m.rank for m in parts] == [1, 1]
    assert parts[0].span == frozenset("abcd")
    assert parts[1].node_path == (1, 0)


def test_k3_partition_is_one_rank2_multiplex(fx):
    k3 = fx["k3"]
    parts = multiplex_partition(k3, decomposition_tree(k3))
    assert len(parts) == 1
    m = parts[0]
    assert m.rank == 2 and len(m.colors) == 3 and len(m.edges) == 3


def test_edgeless_graph_has_no_multiplices():
    g = Graph("abc")
    assert multiplex_partition(g, decomposition_tree(g)) == []


def test_rank_examples(fx):
    for name, rank in (("k4", 3), ("c4", 1), ("p4", 1)):
        g = fx[name]
        parts = multiplex_partition(g, decomposition_tree(g))
        assert [m.rank for m in parts] == [rank]


def test_maximality_examples(fx):
    k3 = fx["k3"]
    tree_parts = multiplex_partition(k3, decomposition_tree(k3))
    assert all(is_maximal_multiplex(k3, m) for m in tree_parts)
    cmap = color_classes(k3)
    single = color_multiplex(k3, cmap, cmap.color_of("a", "b"))
    assert not is_maximal_multiplex(k3, single)

    k2 = Graph("ab", [("a", "b")])
    cm2 = color_classes(k2)
    assert is_maximal_multiplex(k2, color_multiplex(k2, cm2, 0))


def test_extension_examples(fx):
    k4 = fx["k4"]
    cmap = color_classes(k4)
    single = color_multiplex(k4, cmap, cmap.color_of("a", "b"))
    assert simplex_extension_exists(k4, single, "c", cmap)

    paw = fx["paw"]
    pmap = color_classes(paw)
    bc = color_multiplex(paw, pmap, pmap.color_of("b", "c"))
    assert not simplex_extension_exists(paw, bc, "a", pmap)

    spanning = color_multiplex(paw, pmap, pmap.color_of("a", "b"))
    with pytest.raises(DomainError):
        simplex_extension_exists(paw, spanning, "a", pmap)


def test_multiplex_json_schema(fx):
    paw = fx["paw"]
    m = multiplex_partition(paw, decomposition_tree(paw))[0]
    data = m.to_json_dict()
    assert data == {
        "node_path": [],
        "rank": 1,
        "colors": [0],
        "edges": [["a", "b"], ["a", "c"], ["a", "d"]],
    }


def test_multiplex_properties_on_small_corpus(small_bundles):
    for b in small_bundles:
        checks.check_multiplex_edges_partition(b)
        checks.check_multiplices_are_color_unions(b)
        checks.check_at_most_one_spanning_multiplex(b)
        checks.check_connected_iff_spanning_multiplex(b)
        checks.check_multiplex_within_strong_module(b)
        checks.check_maximality_via_span(b)
        checks.check_extension_characterizes_maximality(b)
        checks.check_node_shapes(b)
        checks.check_spanning_color_gives_nontrivial_strong(b)


def test_a_color_id_outside_the_map_is_a_domain_error(fx):
    # The paw has colors 0 and 1: -1 would index from the end, True would be
    # read as 1, and 5 would be a bare IndexError.
    paw = fx["paw"]
    cmap = color_classes(paw)
    for bad in (-1, True, 5, 2, 1.0, "0"):
        with pytest.raises(DomainError, match="color id"):
            color_multiplex(paw, cmap, bad)
    assert color_multiplex(paw, cmap, 1).edges == {("b", "c")}


def test_the_color_of_a_non_edge_is_a_domain_error(fx):
    cmap = color_classes(fx["paw"])
    for u, v in (("a", "z"), ("a", "a"), ("b", "d")):
        with pytest.raises(DomainError, match=rf"\('{u}', '{v}'\) is not an edge"):
            cmap.color_of(u, v)
    assert cmap.color_of("c", "b") == cmap.color_of(("b", "c")) == 1


def test_a_color_map_of_another_graph_is_a_domain_error(fx):
    # Read one edge per block, the paw's partition under K4's map would
    # carry K4's ids, and K4's under the paw's map would miss ('b', 'd').
    paw, k4 = fx["paw"], fx["k4"]
    pmap, kmap = color_classes(paw), color_classes(k4)
    for g, cmap in ((paw, kmap), (k4, pmap)):
        with pytest.raises(DomainError, match="another graph"):
            multiplex_partition(g, decomposition_tree(g), cmap)
        with pytest.raises(DomainError, match="another graph"):
            color_multiplex(g, cmap, 0)
    with pytest.raises(DomainError, match="another graph"):
        simplex_extension_exists(k4, color_multiplex(k4, kmap, 0), "c", pmap)
    twin = Graph(paw.vertices, paw.sorted_edges())  # equal, built apart
    assert multiplex_partition(twin, decomposition_tree(twin), pmap) == multiplex_partition(paw, decomposition_tree(paw))


def _node(kind, *children):
    return DecompositionNode(frozenset().union(*(c.vertex_set for c in children)), kind, children)


def test_a_hand_built_tree_whose_blocks_hold_several_colors_reads_every_edge(fx):
    # The cover walk accepts these trees, whose inner nodes are modules but
    # not strong: K3's block ({a}, {b, c}) and K4's ({a}, {b, c, d}) hold a
    # color per edge, and each multiplex lists them all.
    a, b, c, d = (DecompositionNode(frozenset(v), LEAF, ()) for v in "abcd")
    cases = [
        (fx["k3"], _node(SERIES, a, _node(SERIES, b, c)), [("ab", "ac"), ("bc",)]),
        (fx["k4"], _node(PRIME, a, _node(SERIES, b, c, d)), [("ab", "ac", "ad"), ("bc", "bd", "cd")]),
    ]
    for g, tree, edges in cases:
        cmap = color_classes(g)
        parts = multiplex_partition(g, tree, cmap)
        assert [m.colors for m in parts] == [{cmap.color_of(tuple(e)) for e in node} for node in edges]
