"""Graphs built by substitution, whose tree, count and verdict are known by construction."""
from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from transor import (
    Graph,
    color_classes,
    count_orientations,
    decomposition_tree,
    enumerate_orientations,
    is_comparability,
    multiplex_partition,
    orientation_at,
)
from transor import cli, forcing, orientation
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
def test_the_color_map_labels_each_topmost_prime_node_once(n, seed, monkeypatch):
    # Gallai (1967): the colors above the topmost prime nodes are series
    # blocks, so only those nodes are labelled, each once and alone, also
    # when the multiplices read the colors off the tree's split list.
    labelled = []
    real = forcing._edge_classes
    monkeypatch.setattr(forcing, "_edge_classes", lambda masks, x: labelled.append(x) or real(masks, x))
    for c5 in (False, True):
        g, tree, _ = checks.substitution_graph(n, seed, c5)
        topmost = sorted(g.mask_of(s) for s in topmost_primes(tree))
        labelled.clear()
        colors = color_classes(g).colors
        assert sorted(labelled) == topmost
        assert any(c.self_inverse for c in colors) == c5
        built = decomposition_tree(g)
        labelled.clear()
        assert multiplex_partition(g, built) == multiplex_partition(g, built, color_classes(g))
        assert sorted(labelled[: len(topmost)]) == topmost == sorted(labelled[len(topmost):])


@pytest.mark.parametrize("n, seed", CASES)
def test_decompose_prints_the_construction_s_tree(n, seed):
    # The JSON ``transor decompose`` prints, byte for byte: the stack
    # renderer on the computed tree, on the construction's tree, and
    # json.dumps on the construction's ``to_json_dict``.
    g, tree, _ = checks.substitution_graph(n, seed)
    printed = cli._tree_to_json(decomposition_tree(g))
    assert printed == cli._tree_to_json(tree) == cli._dump(tree.to_json_dict())


@pytest.mark.parametrize("n, seed", CASES)
def test_the_c5_variant_of_a_substitution_graph_is_no_comparability_graph(n, seed):
    g, tree, count = checks.substitution_graph(n, seed, c5=True)
    assert count == 0
    assert decomposition_tree(g) == tree
    assert not is_comparability(g)
    assert count_orientations(g) == 0
    assert list(enumerate_orientations(g)) == []


def substituted(host: Graph, pieces: dict) -> Graph:
    # Each vertex v of the host replaced by the graph ``pieces[v]`` (kept as
    # one vertex when it has none): the pieces' own edges, and every pair
    # across the pieces of two adjacent host vertices.  The vertices are
    # 0..n-1, piece by piece in host vertex order.
    members, n = {}, 0
    for v in host.vertices:
        k = pieces[v].vertex_count if v in pieces else 1
        members[v], n = range(n, n + k), n + k
    edges = [(members[v][p.index[a]], members[v][p.index[b]]) for v, p in pieces.items() for a, b in p.sorted_edges()]
    edges += [(a, b) for u, v in host.sorted_edges() for a in members[u] for b in members[v]]
    return Graph(range(n), edges)


def tree_of_trees(n: int, every: int, levels: int, seed: int) -> tuple[Graph, int]:
    # A seeded random tree of n vertices whose every ``every``-th vertex
    # receives a seeded random tree of 1 to 30 vertices, and with ``levels``
    # above 1, whose vertex 1 receives a tree of trees one level less; and
    # its count by construction.  A tree with an edge has two orientations.
    # A piece is a connected module, so it is a strong module of its own
    # below the receiving tree's prime root or below a parallel node of its
    # twin leaves, and the count is 2 per tree with an edge.  A K2 or star
    # receiver would have a series root, which a K2 or star piece's series
    # root would merge with, so every receiver must have a prime root.
    host = checks.random_tree(n, seed)
    assert decomposition_tree(host).kind == PRIME
    draw = random.Random(seed)
    pieces = {v: checks.random_tree(1 + draw.randrange(30), seed + v) for v in host.vertices[::every]}
    counts = {v: 2 if piece.edge_count else 1 for v, piece in pieces.items()}
    if levels > 1:
        pieces[1], counts[1] = tree_of_trees(60, 3, levels - 1, seed + 1)
    return substituted(host, pieces), 2 * prod(counts.values())


TREES_OF_TREES = [(300, 5, 1, 11), (320, 2, 1, 12), (300, 4, 2, 13)]


@pytest.mark.parametrize("n, every, levels, seed", TREES_OF_TREES)
def test_trees_substituted_into_a_tree_have_two_orientations_per_tree(n, every, levels, seed):
    g, count = tree_of_trees(n, every, levels, seed)
    assert g.vertex_count >= 1000 and count > 2**40
    assert prime_nesting(decomposition_tree(g)) == levels + 1
    assert count_orientations(g) == count
    assert is_comparability(g)
    first = next(enumerate_orientations(g))
    assert orientation_at(g, 0) == first
    assert orientation_at(g, count - 1).directed == {(h, t) for t, h in first.directed}


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
        union, join = checks.relabelled_union([g, h], False, seed), checks.relabelled_union([g, h], True, seed)
        assert join.edge_count == union.edge_count + g.vertex_count * h.vertex_count
        assert count_orientations(union) == product
        assert count_orientations(join) == 2 * product
        assert is_comparability(join) == (product > 0)
        if product:
            shuffled = orientation._analyze(join, random.Random(seed))
            assert prod(orientation._radices(shuffled)) == 2 * product
