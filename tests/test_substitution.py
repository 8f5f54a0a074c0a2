"""Graphs built by substitution, whose tree, count and verdict are known by construction."""
from __future__ import annotations

import random
from math import prod

import pytest

from transor import count_orientations, decomposition_tree, enumerate_orientations, is_comparability, orientation_at
from transor import orientation
from transor.decomposition import PRIME

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
