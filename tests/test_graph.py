from __future__ import annotations

import inspect
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from transor import (
    DomainError,
    Graph,
    Orientation,
    color_classes,
    color_multiplex,
    complement,
    connected_components,
    decomposition_tree,
    directly_forces,
    enumerate_orientations,
    induced_subgraph,
    is_maximal_multiplex,
    is_module,
    is_strong_module,
    is_transitive,
    multiplex_partition,
    quotient,
    simplex_extension_exists,
    smallest_module,
    spanned_vertices,
)
import transor
from transor import oracle
from transor.graph import _bits
from transor.oracle import cycle_graph, complete_graph, fixtures, random_graph

import checks


def graphs(max_n=8):
    return st.builds(
        random_graph,
        st.integers(1, max_n),
        st.sampled_from([0, "1/5", "1/2", "4/5", 1]),
        st.integers(0, 2**32),
    )


def test_construction_rejects_self_loops():
    with pytest.raises(DomainError):
        Graph("ab", [("a", "a")])


def test_construction_rejects_unknown_endpoints():
    with pytest.raises(DomainError):
        Graph("ab", [("a", "c")])


def test_duplicate_edges_collapse():
    g = Graph("ab", [("a", "b"), ("b", "a")])
    assert g.edge_count == 1


def test_vertex_order_is_sorted_and_stable():
    g = Graph("dcba", [("b", "a")])
    assert g.vertices == ("a", "b", "c", "d")
    assert g.index["a"] == 0
    assert g.sorted_edges() == [("a", "b")]


def test_has_edge_rejects_unknown_vertices():
    g = Graph("ab", [("a", "b")])
    for call in (lambda: g.has_edge("a", "z"), lambda: g.has_edge("z", "a"), lambda: g.neighbors("z")):
        with pytest.raises(DomainError, match=r"^unknown vertex 'z'$"):
            call()
    with pytest.raises(DomainError, match=r"^unknown vertex 'y'$"):
        g.has_edge("y", "z")


@pytest.mark.parametrize("seed", range(6))
def test_masks_has_edge_and_neighbors_agree_with_the_edge_set(seed):
    # String tokens make the index order differ from the numeric order.
    base = random_graph(12 + seed, "2/5", seed)
    g = Graph(map(str, base.vertices), [(str(u), str(v)) for u, v in base.edges])
    vs, masks = g.vertices, g.adjacency_masks()
    for i, u in enumerate(vs):
        for j, v in enumerate(vs):
            linked = i != j and g.edge_key(u, v) in g.edges
            assert (masks[i] >> j & 1 == 1) == linked == g.has_edge(u, v)
        assert g.neighbors(u) == {v for v in vs if g.has_edge(u, v)}


def test_edge_order_and_duplicates_do_not_change_the_graph():
    # String tokens: "10" sorts before "2", so index order is not numeric order.
    rng = random.Random(7)
    names = [str(i) for i in range(15)]
    edges = sorted((u, v) for u, v in combinations(names, 2) if rng.random() < 0.5)
    canonical = {(min(e), max(e)) for e in edges}
    base = Graph(names, edges)
    shuffled = edges[:]
    random.Random(3).shuffle(shuffled)
    variants = [
        edges,
        edges[::-1],
        shuffled,
        [(v, u) for u, v in edges],
        edges + [(v, u) for u, v in shuffled],
    ]
    graphs = [Graph(base.vertices, es) for es in variants]
    for g in graphs:
        assert g == base and hash(g) == hash(base)
        assert g.adjacency_masks() == base.adjacency_masks()
        assert g.sorted_edges() == sorted(canonical)
        assert g.edges == canonical and g.edge_count == len(canonical)


def test_bits_lists_a_mask_as_one_step_per_bit_does():
    # _bits walks a sparse mask bit by bit and reads a dense one off its
    # binary digits; either way it must list the set bits in ascending order.
    def stepwise(x):
        return [i for i in range(x.bit_length()) if x >> i & 1]

    draw = random.Random(7)
    assert _bits(0) == []
    for width in (1, 2, 3, 7, 16, 24, 63, 64, 65, 200, 1000, 4097, 40000):
        for count in sorted({1, 2, 9, 12, width // 64, width // 10, width // 8, width // 2, width - 1, width}):
            if 1 <= count <= width:
                x = sum(1 << i for i in draw.sample(range(width - 1), count - 1)) | 1 << width - 1
                assert _bits(x) == stepwise(x), (width, count)


def test_graph_state_is_built_once():
    g = random_graph(10, "1/2", 1)
    before = [getattr(g, name) for name in Graph.__slots__]
    assert Graph.__slots__ == ("vertices", "index", "_masks")
    g.has_edge(0, 1), g.neighbors(0), hash(g), g.adjacency_masks(), g.sorted_edges()
    assert all(getattr(g, name) is value for name, value in zip(Graph.__slots__, before))
    assert g.adjacency_masks() is g.adjacency_masks()


def test_a_graph_retains_only_its_index_and_masks():
    # Threshold-400 has 40000 edges; a frozenset of edge pairs alone took 4 MB.
    edges = checks.threshold_graph(400).sorted_edges()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = Graph(range(400), edges)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.edge_count == len(edges)
    assert retained < 0.5 * 2**20


def test_induced_subgraph_on_paw():
    paw = fixtures()["paw"]
    sub = induced_subgraph(paw, "abc")
    assert set(sub.edges) == {("a", "b"), ("a", "c"), ("b", "c")}


def test_induced_subgraph_identity_and_empty():
    paw = fixtures()["paw"]
    assert induced_subgraph(paw, paw.vertices) == paw
    empty = induced_subgraph(paw, ())
    assert empty.vertex_count == 0 and empty.edge_count == 0


def test_induced_subgraph_rejects_foreign_vertices():
    with pytest.raises(DomainError):
        induced_subgraph(fixtures()["paw"], "az")


def test_complement_examples():
    assert complement(complete_graph(3)).edge_count == 0
    c4 = cycle_graph(4)
    assert set(complement(c4).edges) == {("a", "c"), ("b", "d")}
    assert set(complement(Graph("ab")).edges) == {("a", "b")}


@given(graphs())
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@given(graphs(), st.integers(0, 2**16))
def test_induced_edge_count(g, salt):
    sub = [v for i, v in enumerate(g.vertices) if (salt >> (i % 16)) & 1]
    xs = frozenset(sub)
    expected = sum(1 for e in g.edges if e[0] in xs and e[1] in xs)
    assert induced_subgraph(g, xs).edge_count == expected


def test_components_examples():
    assert connected_components(cycle_graph(4)) == [frozenset("abcd")]
    two = fixtures()["two_k2"]
    assert connected_components(two) == [frozenset("ab"), frozenset("cd")]
    assert connected_components(Graph("a")) == [frozenset("a")]


@given(graphs())
def test_components_partition_and_isolate(g):
    comps = connected_components(g)
    union = set()
    for comp in comps:
        assert not (comp & union)
        union |= comp
    assert union == set(g.vertices)
    for u, v in g.edges:
        assert any(u in comp and v in comp for comp in comps)


def test_spanned_vertices():
    assert spanned_vertices([("a", "b"), ("a", "c")]) == frozenset("abc")
    assert spanned_vertices([]) == frozenset()


def test_spanned_vertices_of_paw_color():
    from transor import color_classes

    paw = fixtures()["paw"]
    big = color_classes(paw).colors[0]
    assert spanned_vertices(big.undirected) == frozenset("abcd")


def _entry_points() -> dict:
    # Each public call that takes vertices or pairs from its caller, on the
    # paw, as a function of the one argument a probe replaces.
    paw = fixtures()["paw"]
    cmap = color_classes(paw)
    bc = color_multiplex(paw, cmap, cmap.color_of("b", "c"))
    first = next(enumerate_orientations(paw))
    return {
        "Graph": lambda e: Graph("abcd", [e]),
        "mask_of": paw.mask_of,
        "edge_key": lambda v: paw.edge_key(v, "a"),
        "has_vertex": paw.has_vertex,
        "has_edge": lambda v: paw.has_edge(v, "a"),
        "neighbors": paw.neighbors,
        "is_module": lambda s: is_module(paw, s),
        "smallest_module": lambda s: smallest_module(paw, s),
        "is_strong_module": lambda s: is_strong_module(paw, s),
        "induced_subgraph": lambda s: induced_subgraph(paw, s),
        "quotient": lambda s: quotient(paw, [s]),
        "quotient partition": lambda p: quotient(paw, p),
        "color_of": cmap.color_of,
        "directly_forces": lambda e: directly_forces(e, ("a", "c"), paw),
        "direction_of": lambda v: first.direction_of(v, "a"),
        "simplex_extension_exists": lambda v: simplex_extension_exists(paw, bc, v, cmap),
        "from_pairs": lambda e: Orientation.from_pairs(paw, [e]),
    }


_TOKENS = ["z", ["a"]]
_SETS = [["z"], [["a"]], 5]
_PAIRS = ["ab", ("a",), ("a", "b", "c"), 5, (["a"], "b")]
_PROBES = (
    [("Graph", e) for e in _PAIRS]
    + [("mask_of", s) for s in _SETS]
    + [(name, v) for name in ("edge_key", "has_vertex", "has_edge", "neighbors") for v in _TOKENS]
    + [(name, s) for name in ("is_module", "smallest_module", "is_strong_module", "induced_subgraph") for s in _SETS]
    + [("quotient", s) for s in _SETS]
    + [("quotient partition", 5)]
    + [(name, e) for name in ("color_of", "directly_forces", "from_pairs") for e in _PAIRS]
    + [(name, v) for name in ("direction_of", "simplex_extension_exists") for v in _TOKENS]
)
_ANSWERS = {  # the probes that are no error; every other one is a DomainError
    ("Graph", "'ab'"): Graph("abcd", [("a", "b")]),  # a two-character string is an edge
    ("has_vertex", "'z'"): False,
    ("has_vertex", "['a']"): False,
}


@pytest.mark.parametrize("name, arg", _PROBES, ids=[f"{name}-{arg!r}" for name, arg in _PROBES])
def test_bad_input_is_a_domain_error_at_every_entry_point(name, arg):
    call = _entry_points()[name]
    key = (name, repr(arg))
    if key in _ANSWERS:
        assert call(arg) == _ANSWERS[key]
    else:
        with pytest.raises(DomainError):
            call(arg)


def _wrong_types() -> list:
    # Each library object a call takes, replaced by an int.
    paw = fixtures()["paw"]
    cmap = color_classes(paw)
    bc = color_multiplex(paw, cmap, cmap.color_of("b", "c"))
    not_a_map, not_a_multiplex = r"^color map 5 is not a ColorMap$", r"^multiplex 5 is not a Multiplex$"
    cases = {
        "multiplex_partition-cmap": (lambda: multiplex_partition(paw, decomposition_tree(paw), 5), not_a_map),
        "color_multiplex-cmap": (lambda: color_multiplex(paw, 5, 0), not_a_map),
        "simplex_extension_exists-cmap": (lambda: simplex_extension_exists(paw, bc, "a", 5), not_a_map),
        "simplex_extension_exists-m": (lambda: simplex_extension_exists(paw, 5, "a"), not_a_multiplex),
        "is_maximal_multiplex-m": (lambda: is_maximal_multiplex(paw, 5), not_a_multiplex),
        "is_transitive-o": (lambda: is_transitive(paw, 5), r"^orientation 5 is not an Orientation$"),
        "Graph-vertices": (lambda: Graph(5), r"^5 is not a collection of vertices$"),
        "multiplex_partition-tree": (lambda: multiplex_partition(paw, 5), r"^the tree is not one that decomposition_tree"),
    }
    return [pytest.param(call, message, id=name) for name, (call, message) in cases.items()]


@pytest.mark.parametrize("call, message", _wrong_types())
def test_a_library_object_of_the_wrong_type_is_a_domain_error_that_names_it(call, message):
    with pytest.raises(DomainError, match=message):
        call()


_NOT_A_PAW_EDGE = Orientation(frozenset([("a", "z"), ("a", "b"), ("a", "c"), ("b", "c")]))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda paw: quotient(paw, [(), "a", "bcd"]), r"^empty part in partition$", id="quotient-empty-part"),
        pytest.param(lambda paw: quotient(paw, ["bc", "bcd", "a"]), r"^parts are not disjoint$", id="quotient-overlap"),
        pytest.param(lambda paw: Graph([1, "a"]), r"^vertex tokens must share a total order$", id="Graph-no-common-order"),
        pytest.param(lambda paw: is_transitive(paw, _NOT_A_PAW_EDGE), r"^\('a','z'\) is not an edge of the graph$", id="is_transitive-non-vertex"),
    ],
)
def test_a_faulty_partition_vertex_order_or_pair_is_a_domain_error(call, message):
    # {b, c} and {b, c, d} are both modules of the paw: only their overlap is at fault.
    with pytest.raises(DomainError, match=message):
        call(fixtures()["paw"])


def _no_graph_calls() -> dict:
    # Each public function that takes a graph, called with 5 for the graph
    # and fitting values for the rest.
    paw = fixtures()["paw"]
    cmap = color_classes(paw)
    m = color_multiplex(paw, cmap, 0)
    o = next(enumerate_orientations(paw))
    return {
        transor.induced_subgraph: lambda g: transor.induced_subgraph(g, "a"),
        transor.complement: transor.complement,
        transor.connected_components: transor.connected_components,
        transor.directly_forces: lambda g: transor.directly_forces(("a", "b"), ("a", "c"), g),
        transor.color_classes: transor.color_classes,
        transor.is_comparability: transor.is_comparability,
        transor.check_triangle_lemma: transor.check_triangle_lemma,
        transor.is_module: lambda g: transor.is_module(g, "a"),
        transor.smallest_module: lambda g: transor.smallest_module(g, "a"),
        transor.maximal_strong_partition: transor.maximal_strong_partition,
        transor.quotient: lambda g: transor.quotient(g, ["abcd"]),
        transor.decomposition_tree: transor.decomposition_tree,
        transor.is_strong_module: lambda g: transor.is_strong_module(g, "a"),
        transor.multiplex_partition: lambda g: transor.multiplex_partition(g, decomposition_tree(paw), cmap),
        transor.color_multiplex: lambda g: transor.color_multiplex(g, cmap, 0),
        transor.is_maximal_multiplex: lambda g: transor.is_maximal_multiplex(g, m),
        transor.simplex_extension_exists: lambda g: transor.simplex_extension_exists(g, m, "d", cmap),
        transor.count_orientations: transor.count_orientations,
        transor.enumerate_orientations: lambda g: list(transor.enumerate_orientations(g)),
        transor.orientation_at: lambda g: transor.orientation_at(g, 0),
        transor.is_transitive: lambda g: transor.is_transitive(g, o),
        Orientation.from_pairs: lambda g: Orientation.from_pairs(g, []),
        oracle.brute_force_orientations: oracle.brute_force_orientations,
        oracle.implication_classes: oracle.implication_classes,
        oracle.brute_force_modules: oracle.brute_force_modules,
        oracle.brute_force_strong_modules: oracle.brute_force_strong_modules,
        oracle.strong_modules_of_order: lambda g: oracle.strong_modules_of_order(g, o),
        oracle.closure_strong_partition: oracle.closure_strong_partition,
    }


def test_every_public_function_that_takes_a_graph_is_called_below():
    public = [getattr(transor, name) for name in transor.__all__] + [getattr(oracle, n) for n in dir(oracle) if not n.startswith("_")]
    public += [Orientation.from_pairs]
    functions = {f for f in public if inspect.isfunction(f) or inspect.ismethod(f)}
    assert {f for f in functions if "g" in inspect.signature(f).parameters} == set(_no_graph_calls())


@pytest.mark.parametrize("call", list(_no_graph_calls().values()), ids=[f.__name__ for f in _no_graph_calls()])
def test_a_graph_argument_that_is_no_graph_is_a_domain_error(call):
    with pytest.raises(DomainError, match=r"^graph 5 is not a Graph$"):
        call(5)


def test_an_unknown_vertex_has_one_message():
    paw = fixtures()["paw"]
    for call in (paw.mask_of, lambda v: is_module(paw, v), lambda v: quotient(paw, [v, "abcd"])):
        with pytest.raises(DomainError, match=r"^unknown vertex 'z'$"):
            call(["z"])
        with pytest.raises(DomainError, match=r"^unknown vertex \['a'\]$"):
            call([["a"]])
