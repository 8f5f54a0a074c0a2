from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from transor import (
    DomainError,
    Graph,
    InvariantError,
    Multiplex,
    color_classes,
    color_multiplex,
    decomposition_tree,
    is_maximal_multiplex,
    multiplex_partition,
    simplex_extension_exists,
)
from transor import decomposition, forcing, multiplex
from transor.decomposition import LEAF, PARALLEL, PRIME, SERIES, DecompositionNode
from transor.oracle import acceptance_corpus, complete_graph, fixtures, random_graph

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


def test_extension_without_a_map_reads_the_graphs_own_colors(fx):
    # With no color map given, each answer is the one ``color_classes(g)`` gives.
    answers = []
    for g in fx.values():
        cmap = color_classes(g)
        for color in cmap.colors:
            m = color_multiplex(g, cmap, color.id)
            for a in g.vertices:
                if a not in m.span:
                    answers.append(simplex_extension_exists(g, m, a, cmap))
                    assert simplex_extension_exists(g, m, a) == answers[-1]
    assert True in answers and False in answers


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


def _leaf(v) -> DecompositionNode:
    return DecompositionNode(frozenset((v,)), LEAF, ())


def _node(kind, *children):
    return DecompositionNode(frozenset().union(*(c.vertex_set for c in children)), kind, children)


def _refused_trees() -> list:
    # Trees that ``decomposition_tree`` did not return for the graph given
    # with them.  The first eight are hand-built trees of which the cover
    # walk refused seven and accepted the last; K3's and K4's nodes are
    # modules but not strong.  The substitution tree equals the graph's own.
    fx = fixtures()
    p3, paw = Graph("abc", [("a", "b"), ("b", "c")]), fx["paw"]
    a, b, c, d = map(_leaf, "abcd")
    sub, built, _ = checks.substitution_graph(300, 5)
    cases = {
        "p3-parallel-root": (p3, _node(PARALLEL, a, _node(SERIES, b, c))),
        "p3-series-a-bc": (p3, _node(SERIES, a, _node(SERIES, b, c))),
        "p4-prime-a-bc-d": (fx["p4"], _node(PRIME, a, _node(SERIES, b, c), d)),
        "p3-overlapping": (p3, _node(SERIES, _node(SERIES, a, b), a, c)),
        "edgeless-pair-prime": (Graph("ab"), _node(PRIME, a, b)),
        "edge-series-one-child": (Graph("ab", [("a", "b")]), _node(SERIES, _node(SERIES, a, b))),
        "p3-one-vertex-node": (p3, _node(SERIES, b, _node(PARALLEL, _node(SERIES, a), c))),
        "p3-fitting": (p3, _node(SERIES, b, _node(PARALLEL, a, c))),
        "k3-series-a-bc": (fx["k3"], _node(SERIES, a, _node(SERIES, b, c))),
        "k4-prime-a-bcd": (fx["k4"], _node(PRIME, a, _node(SERIES, b, c, d))),
        "substitution-by-construction": (sub, built),
        "paw-subtree": (paw, decomposition_tree(paw).children[1]),
        "another-graph": (p3, decomposition_tree(Graph("abcd", [("a", "b"), ("b", "c")]))),
        "an-int": (paw, 5),
    }
    return [pytest.param(g, tree, id=name) for name, (g, tree) in cases.items()]


@pytest.mark.parametrize("g, tree", _refused_trees())
def test_a_tree_that_decomposition_tree_did_not_return_for_the_graph_is_a_domain_error(g, tree):
    with pytest.raises(DomainError, match="not one that decomposition_tree returned for this graph"):
        multiplex_partition(g, tree)


def test_a_copy_equal_to_the_tree_is_refused_and_pickles_as_the_tree_does():
    # The split list the root keeps is no field: equality, hashing, repr and
    # pickling see the tree alone, and a copy or an unpickled tree has none.
    g, built, _ = checks.substitution_graph(300, 5)
    tree = decomposition_tree(g)
    assert built == tree and hash(built) == hash(tree) and repr(built) == repr(tree)
    assert pickle.dumps(built) == pickle.dumps(tree)
    for other in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
        assert other == tree
        with pytest.raises(DomainError, match="decomposition_tree returned"):
            multiplex_partition(g, other)
    twin = Graph(g.vertices, g.sorted_edges())  # equal, built apart
    assert multiplex_partition(twin, tree) == multiplex_partition(g, tree)


_READ_GRAPHS = [g for _, g in acceptance_corpus() if g.vertex_count] + [
    complete_graph(24),
    checks.threshold_graph(40),
    checks.balanced_cograph(5),
    checks.random_poset_graph(40, Fraction(1, 10), 1),
]


def test_the_partition_reads_the_split_the_tree_was_built_from(monkeypatch):
    # Once the tree is built, no scan, prime split or cover walk runs again,
    # with a color map or without one: then the colors come off the same
    # split list.
    cases = [(g, decomposition_tree(g), color_classes(g)) for g in _READ_GRAPHS]
    expected = [multiplex_partition(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the graph was split again")

    for name in ("_below", "mask_components", "_prime_parts", "_color_parts"):
        monkeypatch.setattr(decomposition, name, refuse)
    assert [multiplex_partition(*case) for case in cases] == expected
    assert [multiplex_partition(g, tree) for g, tree, _ in cases] == expected


def test_node_paths_follow_the_tree_pre_order():
    for _, g in acceptance_corpus():
        if g.vertex_count:
            tree = decomposition_tree(g)
            paths = [path for path, node in tree.walk_with_paths() if node.kind in (SERIES, PRIME)]
            assert [m.node_path for m in multiplex_partition(g, tree)] == paths


def test_colors_that_do_not_add_up_to_a_nodes_edges_are_an_invariant_error(fx, monkeypatch):
    # The paw's root joins {a} to {b, c, d}: one color of three edges.  P4
    # and C5 are one prime node of single vertices, whose one color (C5's
    # self-inverse) is checked against the node's edges as well.
    monkeypatch.setattr(multiplex, "_size", lambda color: 0)
    for g in (fx["paw"], fx["p4"], fx["c5"]):
        tree = decomposition_tree(g)
        for cmap in (color_classes(g), None):
            with pytest.raises(InvariantError, match="the colors of a node's blocks do not add up to its edges"):
                multiplex_partition(g, tree, cmap)


@pytest.fixture(scope="module")
def past_oracle_scale():
    # Nested prime nodes (with a self-inverse color three prime levels down
    # in the C5 substitution), sparse and dense random graphs, posets and a
    # tree: one sparse prime node over parallel nodes of leaves.
    graphs = [checks.substitution_graph(300, 5)[0]] + [checks.substitution_graph(2000, 3, c5)[0] for c5 in (False, True)]
    graphs += [random_graph(n, Fraction(1, 10), n) for n in (40, 80, 120, 160, 200)]
    graphs += [checks.random_poset_graph(n, Fraction(1, n // 10), 1) for n in (100, 200, 300)]
    graphs += [checks.random_poset_graph(400, Fraction(1, 40), 2), checks.random_tree(2000)]
    return graphs


def test_each_multiplex_holds_the_colors_of_its_edges_past_oracle_scale(past_oracle_scale):
    # A prime node's color is read at its smallest crossing edge alone:
    # checked here against every edge's color in a decoded map, with no map,
    # the library's map and one rebuilt by hand (whose index holds every edge).
    for g in past_oracle_scale:
        tree, cmap = decomposition_tree(g), color_classes(g)
        colors = tuple(forcing.ColorClass(c.id, c.forward) for c in cmap.colors)
        plain = forcing.ColorMap(g, colors, dict(cmap.edge_to_color))
        for other in (None, color_classes(g), plain):
            parts = multiplex_partition(g, tree, other)
            assert sum(len(m.edges) for m in parts) == g.edge_count
            for m in parts:
                assert m.colors == {cmap.color_of(u, v) for u, v in m.edges}


def test_the_color_index_holds_one_entry_per_color(past_oracle_scale):
    # The map of ``color_classes``, and the table ``multiplex_partition``
    # builds with no map (off the tree's full split list), key each color by
    # its smallest edge alone.
    for g in past_oracle_scale:
        cmap = color_classes(g)
        assert len(cmap._table.ids) == len(cmap.colors)
        splits = decomposition._splits_of(g, decomposition_tree(g))
        assert len(multiplex._color_table(g, splits).ids) == len(cmap.colors)


_LAZY_GRAPHS = [
    fixtures()["paw"],
    fixtures()["p4"],
    complete_graph(24),
    checks.threshold_graph(40),
    checks.balanced_cograph(6),
    checks.random_poset_graph(40, Fraction(1, 10), 1),
]


def test_colors_and_multiplices_decode_no_color(monkeypatch):
    # ``color_classes`` and ``multiplex_partition``, with a color map or
    # without, read each color as mask blocks and the code index: no forward
    # half is decoded and no edge index built, nor when the multiplices are
    # written.
    def refuse(*args):
        raise AssertionError("a color was decoded")

    cases = [(g, decomposition_tree(g)) for g in _LAZY_GRAPHS]
    expected = [[m.to_json_dict() for m in multiplex_partition(g, tree)] for g, tree in cases]
    monkeypatch.setattr(forcing, "_decode", refuse)
    for (g, tree), want in zip(cases, expected):
        cmap = color_classes(g)
        assert [m.to_json_dict() for m in multiplex_partition(g, tree, cmap)] == want
        assert [m.to_json_dict() for m in multiplex_partition(g, tree)] == want
    with pytest.raises(AssertionError, match="a color was decoded"):
        cmap.colors[0].forward
    with pytest.raises(AssertionError, match="a color was decoded"):
        cmap.edge_to_color


def test_a_multiplex_pickles_copies_and_compares_as_its_fields():
    # The sorted code run a multiplex of ``multiplex_partition`` keeps is no
    # field: a pickle or copy leaves it behind and writes the same JSON from
    # its edge set.
    for g in _LAZY_GRAPHS:
        parts = multiplex_partition(g, decomposition_tree(g))
        data = [pickle.dumps(m) for m in parts]  # before anything is written
        for m, blob in zip(parts, data):
            plain = Multiplex(m.span, m.colors, m.edges, m.rank, m.node_path)
            assert len(blob) <= len(pickle.dumps(plain))
            assert m == plain and hash(m) == hash(plain) and repr(m) == repr(plain)
            for again in (pickle.loads(blob), copy.copy(m), copy.deepcopy(m)):
                assert again == m and hash(again) == hash(m)
                assert repr(again) == repr(Multiplex(again.span, again.colors, again.edges, again.rank, again.node_path))
                assert again.to_json_dict() == m.to_json_dict() == plain.to_json_dict()


def test_a_color_map_built_by_hand_is_read_as_the_library_one():
    # A map rebuilt from public fields, or unpickled or copied, holds no
    # mask blocks: it is converted once into the same blocks and code
    # index.  C5 with a false twin has a self-inverse color across a prime
    # node with a two-vertex child, so its size is checked halved.
    twin_c5 = Graph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("f", "b"), ("f", "e")])
    for g in _LAZY_GRAPHS + [twin_c5]:
        tree, cmap = decomposition_tree(g), color_classes(g)
        expected = [m.to_json_dict() for m in multiplex_partition(g, tree)]
        colors = tuple(forcing.ColorClass(c.id, c.forward) for c in cmap.colors)
        for other in (forcing.ColorMap(g, colors, dict(cmap.edge_to_color)), pickle.loads(pickle.dumps(cmap)), copy.copy(cmap)):
            assert [m.to_json_dict() for m in multiplex_partition(g, tree, other)] == expected
    assert any(c.self_inverse for c in color_classes(twin_c5).colors)
