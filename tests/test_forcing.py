from __future__ import annotations

import copy
import pickle
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from transor import (
    ColorClass,
    ColorMap,
    DomainError,
    check_triangle_lemma,
    color_classes,
    decomposition_tree,
    directly_forces,
    is_comparability,
)
from transor import decomposition, forcing
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
    six_vertex_graph_classes,
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


def test_an_edge_that_is_no_pair_is_a_domain_error(fx):
    # A string unpacks as its characters, so "ab" would read as the edge ab.
    paw = fx["paw"]
    cmap = color_classes(paw)
    for bad in ("ab", b"ab", 5, ("a", "b", "c"), ("a",)):
        with pytest.raises(DomainError, match="is not a pair of vertices"):
            cmap.color_of(bad)
        with pytest.raises(DomainError, match="is not a pair of vertices"):
            directly_forces(bad, ("a", "c"), paw)
        with pytest.raises(DomainError, match="is not a pair of vertices"):
            directly_forces(("a", "c"), bad, paw)
    assert cmap.color_of(("a", "b")) == cmap.color_of("a", "b") == cmap.color_of(("b", "a"))


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


def _gallai_colors(g) -> None:
    # Gallai (1967): every edge of a joined child block of a series node has
    # one color, all crossing edges of a prime node have one color, and
    # there are no other colors.  Each edge is read once, at the node whose
    # children separate its endpoints.
    color = color_classes(g).edge_to_color
    masks = g.adjacency_masks()
    expected = 0
    for node in decomposition_tree(g).walk() if g.vertex_count else ():
        if node.kind not in (SERIES, PRIME):
            continue
        parts = [g.mask_of(c.vertex_set) for c in node.children]
        child = {u: i for i, c in enumerate(node.children) for u in c.vertex_set}
        x = g.mask_of(node.vertex_set)
        blocks: dict = {}  # (i, j) -> the colors of its edges
        for i, p in enumerate(parts):
            for u in g.vertex_list(p):
                for v in g.vertex_list(masks[g.index[u]] & x & ~p):
                    if u < v:
                        blocks.setdefault(tuple(sorted((i, child[v]))), set()).add(color[u, v])
        if node.kind == SERIES:
            assert len(blocks) == len(parts) * (len(parts) - 1) // 2
            assert all(len(colors) == 1 for colors in blocks.values())
            expected += len(blocks)
        else:
            assert len(set().union(*blocks.values())) == 1
            expected += 1
    assert sorted(set(color.values())) == list(range(expected))


def test_colors_are_series_blocks_and_prime_nodes():
    graphs = six_vertex_graph_classes() + past_oracle_scale_graphs()
    graphs += [checks.substitution_graph(500, 1)[0], checks.substitution_graph(2000, 3)[0]]
    graphs.append(checks.substitution_graph(2000, 3, c5=True)[0])
    for g in graphs:
        _gallai_colors(g)


def test_color_classes_split_no_prime_node(monkeypatch):
    # The colors lie in the series blocks above the topmost prime nodes and
    # in those nodes' own labels, so no prime node is split, however deep
    # the prime nodes nest or whatever the verdict.
    def refuse(*args):
        raise AssertionError("prime split ran")

    monkeypatch.setattr(decomposition, "_prime_parts", refuse)
    monkeypatch.setattr(decomposition, "_color_parts", refuse)
    cases = [(checks.substitution_graph(500, 1)[0], False), (checks.substitution_graph(2000, 3)[0], False)]
    cases += [(checks.substitution_graph(2000, 3, c5=True)[0], True), (checks.random_poset_graph(150, Fraction(1, 10), 1), False)]
    for g, c5 in cases:
        cmap = color_classes(g)
        assert len(cmap.edge_to_color) == g.edge_count
        assert any(c.self_inverse for c in cmap.colors) == c5


def test_color_classes_label_no_cograph(monkeypatch):
    # A cograph's colors are its series nodes' blocks: no labelling runs.
    labelled = []
    real = forcing._edge_classes
    monkeypatch.setattr(forcing, "_edge_classes", lambda masks, x: labelled.append(x) or real(masks, x))
    for g in (checks.threshold_graph(200), checks.balanced_cograph(6), complete_graph(30)):
        assert len(color_classes(g).colors) == sum(
            len(node.children) * (len(node.children) - 1) // 2 for node in decomposition_tree(g).walk() if node.kind == SERIES
        )
    assert labelled == []
    assert len(color_classes(fixtures()["p4"]).colors) == 1
    assert len(labelled) == 1


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
    # K120 has 7140 edges and a color per edge; four edge sets per color took
    # 8 MB.  Unread, the map holds a block pair, a color and a code index
    # entry per color: 1.64 MB measured, bounded at 2 MB (a 20 % margin).
    # With every forward half and the edge index read, 3.95 MB measured.
    g = complete_graph(120)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cmap = color_classes(g)
        unread = tracemalloc.get_traced_memory()[0] - before
        for c in cmap.colors:
            c.forward  # decoded and kept
        cmap.edge_to_color  # built and kept
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cmap.colors) == len(cmap.edge_to_color) == g.edge_count
    assert unread < 2 * 2**20
    assert retained < 5 * 2**20


_LAZY_GRAPHS = [
    fixtures()["paw"],
    fixtures()["p4"],
    fixtures()["c5"],
    complete_graph(24),
    checks.threshold_graph(40),
    checks.balanced_cograph(6),
    checks.random_poset_graph(40, Fraction(1, 10), 1),
]


def _plain(cmap: ColorMap) -> ColorMap:
    # The map rebuilt from its decoded public fields.
    return ColorMap(cmap.graph, tuple(ColorClass(c.id, c.forward) for c in cmap.colors), dict(cmap.edge_to_color))


def test_a_color_map_pickles_copies_and_compares_as_its_decoded_fields():
    # The mask blocks a map of ``color_classes`` and its colors hold are no
    # field: equality, hashing, ``repr``, pickling and copying read the
    # decoded fields, and a pickle leaves the blocks behind.  (A frozenset's
    # repr may list its items in another order once rebuilt, so each copy's
    # repr is compared with its own rebuilt map.)
    for g in _LAZY_GRAPHS:
        cmap, unread = color_classes(g), color_classes(g)
        data = [pickle.dumps(cmap)] + [pickle.dumps(c) for c in color_classes(g).colors]  # before any read
        plain = _plain(cmap)
        assert len(data[0]) <= len(pickle.dumps(plain))
        assert repr(unread) == repr(cmap) == repr(plain)
        for again in (pickle.loads(data[0]), copy.copy(cmap), copy.deepcopy(cmap)):
            assert again == cmap == plain == unread and repr(again) == repr(_plain(again))
            with pytest.raises(TypeError):  # the edge index is a dict, as the plain map's is
                hash(again)
        for c, plain_c, blob in zip(cmap.colors, plain.colors, data[1:]):
            assert len(blob) <= len(pickle.dumps(plain_c))
            for again in (pickle.loads(blob), copy.copy(c), copy.deepcopy(c)):
                assert again == c == plain_c and hash(again) == hash(plain_c)
                assert repr(again) == repr(ColorClass(again.id, again.forward))
                assert again.self_inverse == c.self_inverse and again.span == c.span


def test_a_color_is_decoded_on_its_first_read_and_then_kept(monkeypatch):
    calls = []
    decode = forcing._decode
    monkeypatch.setattr(forcing, "_decode", lambda *args: calls.append(args) or decode(*args))
    cmap = color_classes(complete_graph(24))
    assert calls == []
    first = cmap.colors[0]
    assert first.forward is first.forward and len(calls) == 1
    assert cmap.edge_to_color is cmap.edge_to_color and len(calls) == len(cmap.colors)


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
