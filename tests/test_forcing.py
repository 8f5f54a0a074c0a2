from __future__ import annotations

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from transor import (
    DomainError,
    check_triangle_lemma,
    color_classes,
    decomposition_tree,
    directly_forces,
    is_comparability,
)
from transor import forcing
from transor.decomposition import PRIME, SERIES
from transor.orientation import _analyze
from transor.oracle import (
    acceptance_corpus,
    brute_force_orientations,
    complete_graph,
    fixtures,
    implication_classes,
    random_family,
    random_graph,
)

import checks


@pytest.fixture(scope="module")
def fx():
    return fixtures()


def test_paw_forcing_facts(fx):
    paw = fx["paw"]
    assert directly_forces(("a", "d"), ("a", "b"), paw)
    assert directly_forces(("a", "d"), ("a", "c"), paw)
    all_directed = [d for u, v in paw.edges for d in ((u, v), (v, u))]
    forcers = [
        e
        for e in all_directed
        if e != ("b", "c") and directly_forces(e, ("b", "c"), paw)
    ]
    assert forcers == []


def test_forcing_is_reflexive(fx):
    p4 = fx["p4"]
    assert directly_forces(("a", "b"), ("a", "b"), p4)


def test_forcing_shared_head(fx):
    p4 = fx["p4"]
    assert directly_forces(("a", "b"), ("c", "b"), p4)
    assert not directly_forces(("a", "b"), ("b", "c"), p4)


def test_forcing_requires_real_edges(fx):
    with pytest.raises(DomainError):
        directly_forces(("a", "c"), ("a", "b"), fx["p4"])


def test_paw_colors(fx):
    cmap = color_classes(fx["paw"])
    assert len(cmap.colors) == 2
    big, small = cmap.colors
    assert big.forward == {("a", "b"), ("a", "c"), ("a", "d")}
    assert big.undirected == {("a", "b"), ("a", "c"), ("a", "d")}
    assert big.span == frozenset("abcd")
    assert small.undirected == {("b", "c")}
    assert not big.self_inverse and not small.self_inverse


def test_k3_colors_are_singletons(fx):
    cmap = color_classes(fx["k3"])
    assert len(cmap.colors) == 3
    assert all(len(c.undirected) == 1 for c in cmap.colors)


def test_c5_single_self_inverse_color(fx):
    cmap = color_classes(fx["c5"])
    assert len(cmap.colors) == 1
    assert cmap.colors[0].self_inverse
    assert cmap.colors[0].forward == cmap.colors[0].reverse


def test_color_ids_follow_smallest_directed_edge(fx):
    cmap = color_classes(fx["paw"])
    firsts = [min(c.forward | c.reverse) for c in cmap.colors]
    assert firsts == sorted(firsts)
    for c in cmap.colors:
        assert min(c.forward | c.reverse) in c.forward


def past_oracle_scale_graphs() -> list:
    # The acceptance corpus plus seeded random and poset graphs, n = 20-200.
    graphs = [g for _, g in acceptance_corpus()]
    for i, n in enumerate((20, 50, 90, 140, 200)):
        p = Fraction(1, 2 + 3 * i)
        graphs += [random_graph(n, p, i), random_graph(n, Fraction(3, n), i)]
        graphs.append(checks.random_poset_graph(n, p, i))
    return graphs


def test_colors_are_the_forcing_closure_past_oracle_scale():
    # The union-find over neighbourhood co-components against the
    # definitional BFS, on graphs up to 200 vertices; plus the id rule: each
    # forward half holds its color's smallest directed edge by vertex index,
    # and those edges increase with the id.
    for g in past_oracle_scale_graphs():
        colors = color_classes(g).colors
        assert {h for c in colors for h in (c.forward, c.reverse)} == implication_classes(g)
        idx = g.index
        firsts = [min((idx[t], idx[h]) for t, h in c.forward | c.reverse) for c in colors]
        assert all((g.vertices[t], g.vertices[h]) in c.forward for (t, h), c in zip(firsts, colors))
        assert all(a < b for a, b in zip(firsts, firsts[1:]))


def test_analysis_labels_agree_with_the_color_map():
    # The verdict, count and enumeration read union-find labels, not the
    # ColorMap: the verdict must be "no self-inverse color", and a prime
    # node's arcs (its first orientation, tail child first) the forward half
    # of its representatives' color.
    primes = 0
    for g in past_oracle_scale_graphs():
        cmap = color_classes(g)
        found = _analyze(g) if g.vertex_count else None
        assert (found is None) == any(c.self_inverse for c in cmap.colors)
        if found is None:
            continue
        nodes = [node for _, node in decomposition_tree(g).walk_with_paths() if node.kind in (SERIES, PRIME)]
        for (kind, parts, arcs), node in zip(found, nodes, strict=True):
            assert kind == node.kind
            reps = [g.vertices[(p & -p).bit_length() - 1] for p in parts]  # each child's lowest vertex
            assert reps == node.representatives
            if kind != PRIME:
                continue
            primes += 1
            for i, j in arcs:
                u, v = reps[i], reps[j]
                assert (u, v) in cmap.colors[cmap.color_of(u, v)].forward
    assert primes > 100


def test_comparability_fixtures(fx):
    assert is_comparability(fx["paw"])
    assert not is_comparability(fx["c5"])
    assert is_comparability(fx["k4"])


def test_comparability_agrees_with_oracle():
    for g in random_family(30, sizes=(4, 5, 6), seed=5):
        assert is_comparability(g) == (len(brute_force_orientations(g)) > 0)


def test_triangle_checker_clean_fixtures(fx):
    assert check_triangle_lemma(fx["k3"]) == []
    assert check_triangle_lemma(fx["paw"]) == []
    assert check_triangle_lemma(fx["c4"]) == []
    assert check_triangle_lemma(checks.threshold_graph(60)) == []
    assert check_triangle_lemma(checks.random_poset_graph(60, Fraction(1, 6), 60)) == []


def test_triangle_checker_reports_merged_colors(fx, monkeypatch):
    # K4 has one color per edge; a color map that merges the first two
    # (ab and ac) breaks clauses i and ii on the triangles abd and acd.
    real = forcing.color_classes

    def merged(g):
        a, b, *rest = real(g).colors
        ab = forcing.ColorClass(0, a.forward | b.forward)
        colors = (ab, *(replace(c, id=i) for i, c in enumerate(rest, 1)))
        return forcing.ColorMap(g, colors, {e: c.id for c in colors for e in c.undirected})

    monkeypatch.setattr(forcing, "color_classes", merged)
    violations = check_triangle_lemma(fx["k4"])
    assert len(violations) == 8
    assert {v.clause for v in violations} == {"i", "ii"}
    assert {v.triangle for v in violations} == {("a", "b", "d"), ("a", "c", "d")}


def test_a_color_map_retains_one_half_per_color_and_its_edge_index():
    # K120 has 7140 edges and a color per edge; four edge sets per color took 8 MB.
    g = complete_graph(120)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cmap = color_classes(g)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cmap.colors) == g.edge_count
    assert retained < 5 * 2**20


def test_forcing_properties_on_small_corpus(small_bundles):
    for b in small_bundles:
        checks.check_colors_partition_edges(b)
        checks.check_color_respects_modules(b)
        checks.check_color_span_is_module(b)
        checks.check_span_determines_color(b)
        checks.check_module_in_span_witness(b)
        checks.check_triangle_consistency(b)
        checks.check_class_halves_transitive(b)
        checks.check_comparability_agreement(b)
