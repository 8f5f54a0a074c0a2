from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import factorial
from typing import Iterator

import pytest

from transor import (
    DomainError,
    Graph,
    InvariantError,
    Orientation,
    color_classes,
    count_orientations,
    decomposition_tree,
    enumerate_orientations,
    is_comparability,
    is_transitive,
    multiplex_partition,
    orientation_at,
    strong_modules_of_order,
)
from transor import decomposition, forcing, orientation
from transor.decomposition import LEAF, PRIME, SERIES, DecompositionNode, _split, _tree_splits
from transor.errors import OracleScaleError
from transor.oracle import acceptance_corpus, complete_graph, fixtures, random_graph

import checks


@pytest.fixture(scope="module")
def fx():
    return fixtures()


def test_fixture_counts(fx):
    expected = {
        "paw": 4,
        "p4": 2,
        "c4": 2,
        "c5": 0,
        "k3": 6,
        "k4": 24,
        "claw": 2,
        "k2_join_2k1": 6,
        "two_k2": 4,
    }
    for name, want in expected.items():
        assert count_orientations(fx[name]) == want, name


def test_complete_graph_counts_are_factorials():
    for n in (1, 2, 5, 8):
        assert count_orientations(complete_graph(n)) == factorial(n)


def test_count_of_trivial_graphs():
    assert count_orientations(Graph(())) == 1
    assert is_comparability(Graph(()))
    assert count_orientations(Graph("a")) == 1
    assert count_orientations(Graph("abc")) == 1


def test_paw_stream(fx):
    stream = list(enumerate_orientations(fx["paw"]))
    assert len(stream) == 4
    assert stream[0].to_json() == [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"]]
    assert len(set(stream)) == 4


def test_c5_stream_is_empty(fx):
    assert list(enumerate_orientations(fx["c5"])) == []


def test_k2_stream_order():
    k2 = Graph("ab", [("a", "b")])
    assert [o.to_json() for o in enumerate_orientations(k2)] == [
        [["a", "b"]],
        [["b", "a"]],
    ]


def test_limit_truncates_stream(fx):
    k4 = fx["k4"]
    assert len(list(enumerate_orientations(k4, limit=5))) == 5
    assert list(enumerate_orientations(k4, limit=0)) == []


def test_enumerate_huge_space_is_lazy():
    k20 = complete_graph(20)
    first = next(iter(enumerate_orientations(k20, limit=1)))
    assert is_transitive(k20, first)


def test_rank_zero_of_a_series_node_is_the_child_order(fx):
    o = orientation_at(fx["k3"], 0)
    assert o.sorted_pairs() == [("a", "b"), ("a", "c"), ("b", "c")]


def test_a_rank_lifts_blockwise(fx):
    c4 = fx["c4"]
    o = orientation_at(c4, 0)
    assert o.sorted_pairs() == [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")]
    assert is_transitive(c4, o)


def test_the_ranks_of_a_prime_node_are_its_two_halves(fx):
    p4 = fx["p4"]
    assert orientation_at(p4, 0).directed == {("a", "b"), ("c", "b"), ("c", "d")}
    assert orientation_at(p4, 1).directed == {("b", "a"), ("b", "c"), ("d", "c")}


def test_the_last_rank_of_a_complete_graph_reverses_the_first():
    for n in (2, 3, 6):
        k = complete_graph(n)
        first = orientation_at(k, 0).directed
        assert orientation_at(k, factorial(n) - 1).directed == {(h, t) for t, h in first}


def test_ranks_outside_the_stream_are_a_domain_error(fx):
    p4 = fx["p4"]
    for bad in (-1, 2, 2**70, True, False, 1.0, "0", None):
        with pytest.raises(DomainError, match="rank"):
            orientation_at(p4, bad)
    assert orientation_at(Graph(()), 0) == orientation_at(Graph("ab"), 0) == Orientation(frozenset())
    with pytest.raises(DomainError, match="rank"):
        orientation_at(Graph("ab"), 1)


def test_is_transitive_examples(fx):
    paw = fx["paw"]
    good = Orientation(frozenset([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")]))
    assert is_transitive(paw, good)
    bad = Orientation(frozenset([("a", "b"), ("b", "c"), ("a", "d"), ("c", "a")]))
    assert not is_transitive(paw, bad)
    assert is_transitive(Graph("ab"), Orientation(frozenset()))


def test_is_transitive_rejects_domain_mismatch(fx):
    paw = fx["paw"]
    with pytest.raises(DomainError):
        is_transitive(paw, Orientation(frozenset([("a", "b")])))
    with pytest.raises(DomainError):
        is_transitive(
            paw,
            Orientation(frozenset([("a", "b"), ("b", "a"), ("a", "c"), ("a", "d")])),
        )


# check, count and enumerate, each run to its first answer
VERBS = (is_comparability, count_orientations, lambda g: next(enumerate_orientations(g)))


@pytest.mark.parametrize(
    "fault, message",
    [("reversed block", "transitivity"), ("dropped edge", "exactly once"), ("both directions", "exactly once")],
)
def test_faulty_first_orientation_is_an_invariant_error(fx, monkeypatch, fault, message):
    # The witness must catch wrong block directions in the first
    # orientation: on P4 (one prime node, whose blocks are its three edges)
    # reversing the block a-b leaves c->b->a open, dropping it leaves an edge
    # unoriented, and listing it both ways orients an edge twice.
    verify = orientation._verify

    def faulty(masks, splits, nodes):
        (kind, parts, arcs), *rest = nodes
        (i, j), *others = arcs
        arcs = {"reversed block": [(j, i)], "dropped edge": [], "both directions": [(i, j), (j, i)]}[fault] + others
        return verify(masks, splits, [(kind, parts, arcs), *rest])

    monkeypatch.setattr(orientation, "_verify", faulty)
    for verb in VERBS:
        with pytest.raises(InvariantError, match=message):
            verb(fx["p4"])


def test_a_first_selector_off_the_verified_arcs_is_an_invariant_error(fx, monkeypatch):
    # The enumeration prints only a stream whose first selector picks the
    # arcs that ``_verify`` proved: a lifter that starts elsewhere (here with
    # every run flipped, the reverse orientation) is refused, not printed.
    selectors = orientation._selectors
    flip = bytes.maketrans(b"\0\1", b"\1\0")
    monkeypatch.setattr(orientation, "_selectors", lambda plan: (s.translate(flip) for s in selectors(plan)))
    for g in (fx["p4"], fx["paw"], complete_graph(4)):
        with pytest.raises(InvariantError, match="first selector"):
            next(enumerate_orientations(g))


def test_a_class_reversing_into_two_classes_is_an_invariant_error(fx, monkeypatch):
    # Relabel one union-find node: its class's reverses then lie in two
    # classes, which every verb must refuse rather than answer.  The verbs
    # label only inside prime nodes, so they meet it on P4; the paw is a
    # cograph, and only its color map runs the union-find.
    original = forcing._reverse_classes
    monkeypatch.setattr(forcing, "_reverse_classes", lambda root: original([-1] + root[1:]))
    with pytest.raises(InvariantError, match="reverses into two classes"):
        color_classes(fx["paw"])
    for verb in VERBS:
        with pytest.raises(InvariantError, match="reverses into two classes"):
            verb(fx["p4"])
    assert count_orientations(fx["paw"]) == 4


def test_prime_blocks_in_two_colors_are_an_invariant_error(fx, monkeypatch):
    # Labels from a union-find that joined nothing: P4's three prime blocks
    # then lie in three colors, which the analysis must refuse.
    def unjoined(masks, x):
        group, root, _ = forcing._edge_classes(masks, x)
        root = list(range(len(root)))
        return group, root, forcing._reverse_classes(root)

    monkeypatch.setattr(orientation, "_edge_classes", unjoined)
    for verb in VERBS:
        with pytest.raises(InvariantError, match="single color"):
            verb(fx["p4"])


def _joins(depth: int) -> int:
    # The series nodes of ``checks.balanced_cograph(depth)``: one per join.
    return sum(2 ** (depth - level) for level in range(1, depth + 1) if (depth - level) % 2 == 0)


def test_a_tree_with_no_prime_node_runs_no_union_find(monkeypatch):
    # A series node's orientations are its child orders whatever the colors
    # are, so K_n, balanced cographs and threshold graphs are answered from
    # the tree and the witness alone.
    def refuse(masks, x):
        raise AssertionError("union-find ran")

    monkeypatch.setattr(orientation, "_edge_classes", refuse)
    cases = [(complete_graph(n), factorial(n)) for n in (1, 2, 5, 12)]
    cases += [(checks.balanced_cograph(d), 2 ** _joins(d)) for d in (2, 3, 6)]
    cases += [(checks.threshold_graph(n), 2 ** (n // 2)) for n in (2, 9, 40)]
    for g, count in cases:
        assert count_orientations(g) == count
        assert is_comparability(g)
        first = next(enumerate_orientations(g))
        assert is_transitive(g, first)
        assert orientation_at(g, 0) == first
        assert orientation_at(g, count - 1).directed == {(h, t) for t, h in first.directed}


def test_a_prime_node_says_false_before_its_prime_split(fx, monkeypatch):
    # The labels of each topmost prime node G[x] run once the scans have found
    # every such x connected and co-connected, so a self-inverse class there
    # answers before any prime split, also one in a node late in pre-order.
    def refuse(masks, x, shuffle):
        raise AssertionError("prime split ran")

    monkeypatch.setattr(decomposition, "_prime_parts", refuse)
    late = checks.substitution_graph(500, 6, c5=True)[0]  # its C5 lies under a late topmost prime node
    for g in (fx["c5"], random_graph(40, Fraction(1, 10), 1), late):
        assert not is_comparability(g)
        assert count_orientations(g) == 0
        assert list(enumerate_orientations(g)) == []


def test_only_the_edges_inside_prime_nodes_are_labelled(monkeypatch):
    # The join of two P4s: a series root over two prime nodes.  Its 16
    # crossing edges are oriented by the root's child order, unlabelled.
    g = Graph("abcdwxyz", [("a", "b"), ("b", "c"), ("c", "d"), ("w", "x"), ("x", "y"), ("y", "z")]
              + [(u, v) for u in "abcd" for v in "wxyz"])
    labelled = []
    real = orientation._edge_classes

    def counted(masks, x):
        labelled.append(sum((masks[t] & x).bit_count() for t in range(len(masks)) if x >> t & 1) // 2)
        return real(masks, x)

    monkeypatch.setattr(orientation, "_edge_classes", counted)
    assert g.edge_count == 22
    assert count_orientations(g) == 2 * 2 * 2
    assert labelled == [3, 3]
    labelled.clear()
    assert is_comparability(g)
    assert labelled == [3, 3]


def test_a_graph_with_a_self_inverse_color_has_no_rank(fx):
    with pytest.raises(DomainError, match="not a comparability graph"):
        orientation_at(fx["c5"], 0)


def test_orientation_round_trip(fx):
    paw = fx["paw"]
    o = next(iter(enumerate_orientations(paw)))
    again = Orientation.from_pairs(paw, o.to_json())
    assert again == o
    with pytest.raises(DomainError):
        Orientation.from_pairs(paw, [["a", "z"]])


def test_a_repeated_pair_is_a_domain_error(fx):
    pairs = [("a", "b"), ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")]
    with pytest.raises(DomainError, match="listed twice"):
        Orientation.from_pairs(fx["paw"], pairs)


def test_json_pairs_are_no_constructor_argument():
    with pytest.raises(TypeError):
        Orientation(frozenset({("a", "b")}), [("x", "y")])
    assert Orientation(frozenset({("a", "b")})).to_json() == [["a", "b"]]


def test_malformed_pairs_are_a_domain_error(fx):
    paw = fx["paw"]
    for bad in (("a", "b", "c"), ("a",), 5, "ab", b"ab"):  # unpacked, "ab" would read as (a, b)
        with pytest.raises(DomainError, match="tail, head"):
            Orientation.from_pairs(paw, [bad])
        with pytest.raises(DomainError, match="tail, head"):
            is_transitive(paw, Orientation(frozenset([bad])))


def test_strong_modules_of_order_examples(fx):
    paw = fx["paw"]
    o = Orientation(frozenset([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")]))
    assert strong_modules_of_order(paw, o) == {
        frozenset("a"),
        frozenset("b"),
        frozenset("c"),
        frozenset("d"),
        frozenset("bc"),
        frozenset("bcd"),
        frozenset("abcd"),
    }
    k2 = Graph("ab", [("a", "b")])
    assert strong_modules_of_order(k2, Orientation(frozenset([("a", "b")]))) == {
        frozenset("a"),
        frozenset("b"),
        frozenset("ab"),
    }
    c4 = fx["c4"]
    lifted = Orientation(frozenset([("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")]))
    assert strong_modules_of_order(c4, lifted) == {
        frozenset("a"),
        frozenset("b"),
        frozenset("c"),
        frozenset("d"),
        frozenset("ac"),
        frozenset("bd"),
        frozenset("abcd"),
    }


def test_strong_modules_of_order_guards(fx):
    paw = fx["paw"]
    bad = Orientation(frozenset([("a", "b"), ("b", "c"), ("a", "d"), ("c", "a")]))
    with pytest.raises(DomainError):
        strong_modules_of_order(paw, bad)
    big = complete_graph(11)
    o = next(iter(enumerate_orientations(big, limit=1)))
    with pytest.raises(OracleScaleError):
        strong_modules_of_order(big, o)


def test_stream_prefix_matches_full_stream(fx):
    k4 = fx["k4"]
    full = list(enumerate_orientations(k4))
    assert full[:7] == list(islice(enumerate_orientations(k4, limit=7), 7))
    assert len(full) == count_orientations(k4)


def test_prime_node_with_composite_children_lifts_blockwise():
    # A path quotient whose middle vertex is blown up into a two-vertex
    # module: the prime root has a non-leaf child, so the binary choice
    # must orient whole blocks at once.
    g = Graph(
        ["a", "b1", "b2", "c", "d"],
        [("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c"), ("c", "d")],
    )
    tree = decomposition_tree(g)
    assert tree.kind == "prime"
    assert frozenset(["b1", "b2"]) in {c.vertex_set for c in tree.children}
    stream = list(enumerate_orientations(g))
    assert count_orientations(g) == len(stream)
    from transor.oracle import brute_force_orientations

    assert set(stream) == set(brute_force_orientations(g))
    for o in stream:
        outward = o.direction_of("a", "b1")[0] == "a"
        assert (o.direction_of("a", "b2")[0] == "a") == outward


def test_orientation_properties_on_small_corpus(small_bundles):
    for b in small_bundles:
        checks.check_count_matches_oracle(b)
        checks.check_enumeration_matches_oracle(b)
        checks.check_emitted_are_transitive(b)
        checks.check_orientations_use_whole_classes(b)
        checks.check_enumeration_deterministic(b)


def test_strong_module_preservation_on_small_corpus(small_bundles):
    for b in small_bundles:
        checks.check_orientation_strong_modules(b)
        checks.check_directed_modules_contained(b)


def test_deep_tree_needs_no_recursion():
    # A threshold graph (vertex i dominates 0..i-1 when i is odd) has a
    # chain-shaped tree of depth n - 1 with n // 2 two-child series nodes.
    n = 200
    g = Graph(range(n), [(j, i) for i in range(1, n, 2) for j in range(i)])
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        tree = decomposition_tree(g)
        nodes = list(tree.walk())
        paths = [path for path, _ in tree.walk_with_paths()]
        data = tree.to_json_dict()
        count = count_orientations(g)
        first = next(iter(enumerate_orientations(g)))
    finally:
        sys.setrecursionlimit(limit)
    assert len(nodes) == 2 * n - 1
    assert max(map(len, paths)) == n - 1
    levels = 0
    while data["children"]:
        data = data["children"][0]
        levels += 1
    assert levels == n - 1
    assert count == 2 ** (n // 2)
    assert is_transitive(g, first)


def test_threshold_500_counts_within_one_and_a_half_seconds():
    # 62,500 edges, a tree of depth 499, and 250 two-child series nodes.
    g = checks.threshold_graph(500)
    start = time.perf_counter()
    assert count_orientations(g) == 2**250
    assert time.perf_counter() - start < 1.5


def test_deep_tree_equality_hash_and_repr_need_no_recursion():
    n = 600
    g = checks.threshold_graph(n)
    a, b = decomposition_tree(g), decomposition_tree(g)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert max(len(path) for path, _ in a.walk_with_paths()) == n - 1
        assert a == b and hash(a) == hash(b)
        assert a != a.children[0] and a != decomposition_tree(checks.threshold_graph(n - 1))
        text = repr(a)
    finally:
        sys.setrecursionlimit(limit)
    assert text == repr(b)
    assert text.startswith("DecompositionNode(vertex_set=frozenset({") and text.count("DecompositionNode(") == 2 * n - 1


def _lifted(g: Graph, limit: int | None) -> Iterator[frozenset]:
    # The README's order, lifted from the tree and the color map alone:
    # nodes in tree pre-order, a series node's child orders in lexicographic
    # order, each crossing edge directed from the child placed earlier to
    # the later one; a prime node's crossing edges as the forward half of
    # their color, then reversed.
    cmap = color_classes(g)
    nodes, pools = [], []
    for _, node in decomposition_tree(g).walk_with_paths():
        if node.kind == SERIES:
            pools.append(list(permutations(range(len(node.children)))))
        elif node.kind == PRIME:
            pools.append([False, True])
        else:
            continue
        nodes.append(node)
    for choices in islice(product(*pools), limit):
        directed = set()
        for node, choice in zip(nodes, choices):
            if node.kind == SERIES:
                place = {child: p for p, child in enumerate(choice)}
            for i, j in combinations(range(len(node.children)), 2):
                for u in node.children[i].vertex_set:
                    for v in node.children[j].vertex_set:
                        if not g.has_edge(u, v):
                            continue
                        if node.kind == SERIES:
                            directed.add((u, v) if place[i] < place[j] else (v, u))
                        else:
                            e = (u, v) if (u, v) in cmap.colors[cmap.color_of(u, v)].forward else (v, u)
                            directed.add(e[::-1] if choice else e)
        yield frozenset(directed)


def _stream_matches_the_lifter(g: Graph, limit: int | None, seed: int) -> int:
    # Each streamed orientation, with and without shuffled scans, carries
    # its sorted directed edges as pairs, its edges are what the test's
    # lifter makes of the same choices, and the k-th is orientation_at(g, k).
    if not is_comparability(g):
        assert list(enumerate_orientations(g, limit)) == []
        with pytest.raises(DomainError):
            orientation_at(g, 0)
        return 0
    expected = list(_lifted(g, limit))
    for shuffle in (None, random.Random(seed)):
        stream = list(enumerate_orientations(g, limit, shuffle=shuffle))
        assert [o.directed for o in stream] == expected
        for o in stream:
            assert (o.json_pairs is None) == (g.edge_count == 0)
            assert o.to_json() == [[str(t), str(h)] for t, h in sorted(o.directed)]
            plain = Orientation(o.directed)
            assert plain == o and hash(plain) == hash(o) and repr(plain) == repr(o)
    assert [orientation_at(g, k) for k in range(len(stream))] == stream
    return len(expected)


def test_streamed_pairs_match_sorting_on_the_acceptance_corpus():
    emitted = sum(_stream_matches_the_lifter(g, None, i) for i, (_, g) in enumerate(acceptance_corpus()) if g.vertex_count)
    assert emitted > 3000


@pytest.mark.parametrize("n", [20, 60, 120])
def test_streamed_pairs_match_sorting_past_oracle_scale(n):
    graphs = [
        checks.random_poset_graph(n, Fraction(1, 6), n),
        checks.threshold_graph(n),
        checks.balanced_cograph(n.bit_length() - 1),  # 16, 32 and 64 vertices
    ]
    for g in graphs:
        assert _stream_matches_the_lifter(g, 40, n) == min(40, count_orientations(g))


def test_to_json_returns_fresh_lists(fx):
    o = next(enumerate_orientations(fx["paw"]))
    first = o.to_json()
    first[0][0] = "z"
    first.pop()
    assert o.to_json() == [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"]]


def test_first_orientation_is_built_once(fx, monkeypatch):
    # The analysis verifies the first orientation's arcs and the stream
    # checks its first selector against them, neither building it; the
    # stream builds it once.
    build = orientation.Orientation
    calls = []

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(orientation, "Orientation", counted)
    first = next(enumerate_orientations(fx["paw"]))
    assert len(calls) == 1
    assert first.to_json() == [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"]]
    assert len(list(enumerate_orientations(fx["paw"]))) == 4 and len(calls) == 1 + 4


def test_count_and_check_build_no_output_tables(fx, monkeypatch):
    def refuse(g, slots):
        raise AssertionError("output tables built")

    monkeypatch.setattr(orientation, "_output_tables", refuse)
    for g in (fx["paw"], fx["p4"], fx["k4"], checks.threshold_graph(30)):
        count_orientations(g)
        is_comparability(g)
    with pytest.raises(AssertionError, match="output tables built"):
        next(enumerate_orientations(fx["paw"]))


def test_count_and_check_build_no_orientation(fx, monkeypatch):
    def refuse(*args):
        raise AssertionError("orientation built")

    graphs = [fx["paw"], fx["p4"], fx["k4"], fx["c5"], checks.threshold_graph(30), checks.balanced_cograph(4)]
    expected = [(count_orientations(g), is_comparability(g)) for g in graphs]
    monkeypatch.setattr(orientation, "Orientation", refuse)
    assert [(count_orientations(g), is_comparability(g)) for g in graphs] == expected
    with pytest.raises(AssertionError, match="orientation built"):
        next(enumerate_orientations(fx["paw"]))


def test_a_series_child_that_is_not_a_module_is_an_invariant_error():
    # P3 a-b-c under a hand-built series root with children {a} and {b, c}:
    # the representatives a and b are adjacent, but a and c are not.
    p3 = Graph("abc", [("a", "b"), ("b", "c")])

    def leaf(v):
        return DecompositionNode(frozenset(v), LEAF, ())

    bc = DecompositionNode(frozenset("bc"), SERIES, (leaf("b"), leaf("c")))
    tree = DecompositionNode(frozenset("abc"), SERIES, (leaf("a"), bc))
    with pytest.raises(InvariantError, match="a quotient edge lifts to a non-edge"):
        _tree_splits(p3, tree)
    with pytest.raises(InvariantError, match="a quotient edge lifts to a non-edge"):
        multiplex_partition(p3, tree)


def test_the_tree_adaptor_refuses_a_tree_that_does_not_fit_the_graph():
    p3 = Graph("abc", [("a", "b"), ("b", "c")])
    for other in (Graph("ab", [("a", "b")]), Graph("abcd", [("a", "b"), ("b", "c")])):
        with pytest.raises(InvariantError, match="edge endpoint missing from the tree"):
            _tree_splits(p3, decomposition_tree(other))
    a, bc = (DecompositionNode(frozenset(v), LEAF, ()) for v in ("a", "bc"))
    with pytest.raises(InvariantError, match="a leaf is not one vertex"):
        _tree_splits(p3, DecompositionNode(frozenset("abc"), SERIES, (a, bc)))


def test_the_tree_adaptor_gives_the_split_list():
    for _, g in acceptance_corpus():
        if g.vertex_count:
            splits = _tree_splits(g, decomposition_tree(g))
            assert splits == _split(g)
            paths = [path for path, node in decomposition_tree(g).walk_with_paths() if node.kind in ("series", "prime")]
            assert [m.node_path for m in multiplex_partition(g, decomposition_tree(g))] == paths


def test_check_count_and_enumerate_build_no_tree_nodes(fx, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("DecompositionNode built")

    graphs = [fx["paw"], fx["p4"], fx["k4"], fx["c5"], checks.threshold_graph(30), checks.balanced_cograph(4)]
    expected = [(is_comparability(g), count_orientations(g), list(enumerate_orientations(g, 50))) for g in graphs]
    monkeypatch.setattr(DecompositionNode, "__init__", refuse)
    for g, (verdict, count, stream) in zip(graphs, expected):
        assert is_comparability(g) == verdict
        assert count_orientations(g) == count
        assert list(enumerate_orientations(g, 50)) == stream
    with pytest.raises(AssertionError, match="DecompositionNode built"):
        decomposition_tree(fx["paw"])
