"""Seeded input families for the benchmark.

Each family is a fixed base graph on vertices 0..n-1 whose answer is known
by construction or pinned.  The workload seed only draws the vertex names
(a splitmix64 permutation written as zero-padded tokens), so every seed
gives different input files with the same structure and cost: the timed
work differs from seed to seed in scan order, not in size.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from transor.oracle import random_graph, splitmix64


class Family:
    """A base graph plus what is known about it without running the program.

    ``count`` is the orientation count when known by construction (None
    otherwise); ``comparability`` is the expected ``check`` verdict.
    """

    def __init__(self, name, n, edges, *, comparability, count=None, order=None):
        self.name = name
        self.n = n
        self.edges = sorted(edges)
        self.edge_set = set(self.edges)
        self.comparability = comparability
        self.count = count
        # A transitive orientation known by construction, if any.
        self.order = order


def path(n: int) -> Family:
    # A path on more than 3 vertices is prime: one prime node, two orientations.
    return Family(f"path{n}", n, [(i, i + 1) for i in range(n - 1)], comparability=True, count=2)


def complete(n: int) -> Family:
    # One series node with n leaf children.
    return Family(f"K{n}", n, combinations(range(n), 2), comparability=True, count=factorial(n))


def balanced_cograph(depth: int) -> Family:
    """2^depth vertices; levels alternate union and join, the root is a join.

    Every join is a series node with exactly two children, so the count is
    2^(number of joins).
    """
    edges = []
    joins = 0
    width = 1
    for level in range(1, depth + 1):
        width *= 2
        if (depth - level) % 2 == 0:
            joins += 2 ** (depth - level)
            half = width // 2
            for lo in range(0, 2 ** depth, width):
                edges += [(a, b) for a in range(lo, lo + half) for b in range(lo + half, lo + width)]
    return Family(f"cograph{2 ** depth}", 2 ** depth, edges, comparability=True, count=2 ** joins)


def threshold(n: int) -> Family:
    """Vertex i > 0 is added dominating when i is odd, isolated when even.

    The tree is a chain of depth n - 1 whose series nodes (one per
    dominating vertex) each have two children: the count is 2^(n // 2).
    """
    edges = [(j, i) for i in range(1, n, 2) for j in range(i)]
    return Family(f"threshold{n}", n, edges, comparability=True, count=2 ** (n // 2))


def random_p10(n: int, seed: int) -> Family:
    # Not a comparability graph: run.py finds an induced 5-cycle in it before
    # it runs anything.
    g = random_graph(n, Fraction(1, 10), seed)
    return Family(f"random{n}", n, g.edges, comparability=False, count=0)


def random_poset(n: int, p: Fraction, seed: int) -> Family:
    """Comparability graph of a random order: a splitmix64 DAG on 0..n-1
    (arc i->j for i < j with probability p) plus its transitive closure."""
    threshold_ = (p.numerator << 64) // p.denominator
    draws = splitmix64(seed)
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if next(draws) < threshold_:
                succ[i] |= 1 << j
    for i in reversed(range(n)):
        reach = succ[i]
        m = succ[i]
        while m:
            b = m & -m
            reach |= succ[b.bit_length() - 1]
            m ^= b
        succ[i] = reach
    order = [(i, j) for i in range(n) for j in range(i + 1, n) if succ[i] >> j & 1]
    return Family(f"poset{n}", n, order, comparability=True, order=order)


def permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates over splitmix64 draws: the seed's vertex relabelling."""
    perm = list(range(n))
    draws = splitmix64(seed)
    for i in range(n - 1, 0, -1):
        j = next(draws) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def names(n: int, seed: int) -> list[str]:
    """Token of each base vertex under the seed's relabelling."""
    width = len(str(max(n - 1, 0)))
    return [f"v{k:0{width}d}" for k in permutation(n, seed)]


def edge_list(n: int, edges, label: list[str]) -> str:
    """Edge-list text; isolated vertices are declared with ``vertex``."""
    touched = set()
    lines = []
    for u, v in edges:
        touched.update((u, v))
        lines.append(f"{label[u]} {label[v]}")
    lines += [f"vertex {label[v]}" for v in range(n) if v not in touched]
    return "\n".join(lines) + "\n"
