"""Exhaustive fast-path/oracle agreement over every labeled 6-vertex graph.

About a quarter of a minute of work; deselect with ``-m "not slow"`` for quick loops.
"""
from __future__ import annotations

import pytest

from transor import count_orientations, decomposition_tree, enumerate_orientations
from transor.oracle import (
    all_labeled_graphs,
    brute_force_orientations,
    brute_force_strong_modules,
)


@pytest.mark.slow
def test_all_labeled_six_vertex_graphs_agree_with_the_oracle():
    seen = 0
    for i, g in enumerate(all_labeled_graphs(6)):
        truth = brute_force_orientations(g)
        assert count_orientations(g) == len(truth), f"graph #{i}"
        tree_sets = {node.vertex_set for node in decomposition_tree(g).walk()}
        assert tree_sets == brute_force_strong_modules(g), f"graph #{i}"
        if truth and i % 7 == 0:
            assert set(enumerate_orientations(g)) == set(truth), f"graph #{i}"
        seen += 1
    assert seen == 1 << 15
