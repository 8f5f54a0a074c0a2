from __future__ import annotations

from itertools import product

import pytest

from transor import DomainError, Graph, is_transitive, Orientation
from transor.errors import OracleScaleError
from transor.oracle import (
    all_labeled_graphs,
    brute_force_modules,
    brute_force_orientations,
    brute_force_strong_modules,
    closure_strong_partition,
    complete_graph,
    fixtures,
    random_family,
    random_graph,
    six_vertex_graph_classes,
    splitmix64,
)


@pytest.fixture(scope="module")
def fx():
    return fixtures()


def _orientations_by_naive_filter(g):
    # The textbook route: try every assignment, keep the transitive ones.
    edges = g.sorted_edges()
    out = []
    for flips in product((False, True), repeat=len(edges)):
        directed = frozenset(
            (v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)
        )
        o = Orientation(directed)
        if is_transitive(g, o):
            out.append(o)
    return out


def test_oracle_fixture_counts(fx):
    assert len(brute_force_orientations(fx["paw"])) == 4
    assert len(brute_force_orientations(fx["c5"])) == 0
    assert len(brute_force_orientations(fx["k3"])) == 6


def test_oracle_matches_naive_filter(fx):
    for g in list(fx.values()) + list(random_family(12, sizes=(4, 5), seed=11)):
        if g.edge_count > 10:
            continue
        assert set(brute_force_orientations(g)) == set(_orientations_by_naive_filter(g))


def test_oracle_output_is_sorted(fx):
    out = brute_force_orientations(fx["k3"])
    keys = [o.sorted_pairs() for o in out]
    assert keys == sorted(keys)


def test_oracle_refuses_large_edge_sets():
    with pytest.raises(OracleScaleError):
        brute_force_orientations(complete_graph(7))


def test_module_oracle_examples(fx):
    paw = fx["paw"]
    nontrivial = {m for m in brute_force_modules(paw) if 1 < len(m) < 4}
    assert nontrivial == {frozenset("bc"), frozenset("bcd")}
    p4 = fx["p4"]
    assert all(len(m) in (1, 4) for m in brute_force_modules(p4))
    k3 = fx["k3"]
    assert len(brute_force_modules(k3)) == 7


def test_strong_module_oracle_examples(fx):
    paw = fx["paw"]
    assert brute_force_strong_modules(paw) == {
        frozenset("a"),
        frozenset("b"),
        frozenset("c"),
        frozenset("d"),
        frozenset("bc"),
        frozenset("bcd"),
        frozenset("abcd"),
    }
    k3 = fx["k3"]
    assert all(len(m) in (1, 3) for m in brute_force_strong_modules(k3))
    join = fx["k2_join_2k1"]
    nontrivial = {m for m in brute_force_strong_modules(join) if 1 < len(m) < 4}
    assert nontrivial == {frozenset(("b", "c"))}


def test_module_oracle_guard():
    with pytest.raises(OracleScaleError):
        brute_force_modules(Graph(range(13)))
    with pytest.raises(OracleScaleError):
        closure_strong_partition(Graph(range(61)))
    with pytest.raises(DomainError):
        closure_strong_partition(Graph("a"))


def test_closure_partition_is_the_maximal_proper_strong_modules(fx):
    # Checked against the subset scan, so it can stand in for it past 12 vertices.
    graphs = list(fx.values()) + list(all_labeled_graphs(4))
    graphs += random_family(60, sizes=(5, 7, 9, 11), max_edges=None)
    for g in graphs:
        if g.vertex_count < 2:
            continue
        strong = brute_force_strong_modules(g) - {frozenset(g.vertices)}
        maximal = {m for m in strong if not any(m < o for o in strong)}
        assert closure_strong_partition(g) == maximal, g


def test_random_graph_determinism():
    a = random_graph(9, "1/2", 1234)
    b = random_graph(9, "1/2", 1234)
    assert a == b
    assert random_graph(9, "1/2", 1235) != a


def test_random_graph_extremes():
    assert random_graph(1, "1/2", 0).vertex_count == 1
    assert random_graph(4, 1, 7) == complete_graph_onto_ints(4)
    assert random_graph(4, 0, 7).edge_count == 0


def complete_graph_onto_ints(n):
    from itertools import combinations

    return Graph(range(n), combinations(range(n), 2))


def test_random_graph_rejects_bad_p():
    with pytest.raises(DomainError):
        random_graph(3, "3/2", 0)
    with pytest.raises(DomainError):
        random_graph(3, -0.5, 0)
    with pytest.raises(DomainError):
        random_graph(0, 0.5, 0)


def test_splitmix64_reference_values():
    # First outputs for seed 0 of the standard splitmix64 stream.
    stream = splitmix64(0)
    assert [next(stream) for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_six_vertex_classes_count_and_shape():
    classes = six_vertex_graph_classes()
    assert len(classes) == 156
    assert all(g.vertex_count == 6 for g in classes)
    assert len({g.edges for g in classes}) == 156
    sizes = sorted(g.edge_count for g in classes)
    assert sizes[0] == 0 and sizes[-1] == 15


def test_all_labeled_graphs_family_size():
    assert sum(1 for _ in all_labeled_graphs(3)) == 8
    assert sum(1 for _ in all_labeled_graphs(4)) == 64


def test_random_family_is_deterministic_and_oracle_sized():
    fam1 = random_family(40)
    fam2 = random_family(40)
    assert fam1 == fam2
    assert all(g.edge_count <= 20 for g in fam1)
    assert all(1 <= g.vertex_count <= 8 for g in fam1)
