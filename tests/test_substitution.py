"""Graphs built by substitution, whose tree, count and verdict are known by construction."""
from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from transor import Graph, count_orientations, decomposition_tree, enumerate_orientations, is_comparability, orientation_at
from transor import orientation
from transor.decomposition import PRIME, SERIES

import checks

CASES = [(500, 1), (2000, 3)]


def prime_nesting(tree) -> int:
    # The most prime nodes on one root-to-leaf path.
    deepest = 0
    stack = [(tree, 0)]
    while stack:
        node, above = stack.pop()
        above += node.kind == PRIME
        deepest = max(deepest, above)
        stack.extend((child, above) for child in node.children)
    return deepest


def topmost_primes(tree) -> list:
    # The vertex sets of the prime nodes with no prime ancestor.
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.kind == PRIME:
            out.append(node.vertex_set)
        else:
            stack.extend(node.children)
    return out


@pytest.mark.parametrize("n, seed", CASES)
def test_a_substitution_graph_matches_its_construction(n, seed, monkeypatch):
    g, tree, count = checks.substitution_graph(n, seed)
    assert g.vertex_count == n
    assert prime_nesting(tree) >= 3
    assert decomposition_tree(g) == tree
    # The union-find runs once per topmost prime node, on that node alone.
    labelled = []
    real = orientation._edge_classes
    monkeypatch.setattr(orientation, "_edge_classes", lambda masks, x: labelled.append(x) or real(masks, x))
    assert count_orientations(g) == count
    assert sorted(labelled) == sorted(g.mask_of(s) for s in topmost_primes(tree))
    assert is_comparability(g)
    first = list(enumerate_orientations(g, 3))
    assert [orientation_at(g, k) for k in range(3)] == first
    assert orientation_at(g, count - 1).directed == {(h, t) for t, h in first[0].directed}
    for s in range(3):
        assert prod(orientation._radices(orientation._analyze(g, random.Random(s)))) == count
        assert list(enumerate_orientations(g, 3, shuffle=random.Random(s))) == first


@pytest.mark.parametrize("n, seed", CASES)
def test_the_c5_variant_of_a_substitution_graph_is_no_comparability_graph(n, seed):
    g, tree, count = checks.substitution_graph(n, seed, c5=True)
    assert count == 0
    assert decomposition_tree(g) == tree
    assert not is_comparability(g)
    assert count_orientations(g) == 0
    assert list(enumerate_orientations(g)) == []


def _relabel(pieces, join: bool, seed: int):
    # The disjoint union of the pieces (with ``join``, every vertex of one
    # piece also adjacent to every vertex of the others), its vertex names a
    # seeded permutation so that no piece is a run of consecutive names.
    offsets, n = [], 0
    for g in pieces:
        offsets.append(n)
        n += g.vertex_count
    names = list(range(n))
    random.Random(seed).shuffle(names)
    edges = []
    for g, base in zip(pieces, offsets):
        index = g.index
        edges += [(names[base + index[u]], names[base + index[v]]) for u, v in g.sorted_edges()]
    if join:
        bounds = offsets + [n]
        edges += [(names[i], names[j]) for k in range(len(pieces)) for i in range(bounds[k], bounds[k + 1]) for j in range(bounds[k + 1], n)]
    return Graph(names, edges)


METAMORPHIC = [
    ("poset-150 + threshold-201", lambda: checks.random_poset_graph(150, Fraction(1, 12), 4), lambda: checks.threshold_graph(201)),
    ("substitution-300 + poset-200", lambda: checks.substitution_graph(300, 5)[0], lambda: checks.random_poset_graph(200, Fraction(1, 30), 6)),
    ("threshold-151 + substitution-250", lambda: checks.threshold_graph(151), lambda: checks.substitution_graph(250, 7)[0]),
    ("substitution-200 c5 + threshold-101", lambda: checks.substitution_graph(200, 2, c5=True)[0], lambda: checks.threshold_graph(101)),
]


@pytest.mark.parametrize("name, make_g, make_h", METAMORPHIC, ids=[case[0] for case in METAMORPHIC])
def test_counts_multiply_over_disjoint_unions_and_joins(name, make_g, make_h):
    # count(G + H) = count(G) count(H); and when neither piece is a join,
    # G join H has a series root over two children, so its count is
    # 2 count(G) count(H).  Checked under shuffled names and scan orders.
    g, h = make_g(), make_h()
    assert decomposition_tree(g).kind != SERIES and decomposition_tree(h).kind != SERIES
    assert g.vertex_count + h.vertex_count >= 300
    product = count_orientations(g) * count_orientations(h)
    for seed in range(2):
        union, join = _relabel([g, h], False, seed), _relabel([g, h], True, seed)
        assert join.edge_count == union.edge_count + g.vertex_count * h.vertex_count
        assert count_orientations(union) == product
        assert count_orientations(join) == 2 * product
        assert is_comparability(join) == (product > 0)
        if product:
            shuffled = orientation._analyze(join, random.Random(seed))
            assert prod(orientation._radices(shuffled)) == 2 * product
