"""Exact counting and deterministic enumeration of all transitive orientations.

Orientations decompose along the tree: a series node contributes one choice
of child order (k! options, edges point from earlier to later blocks), a
prime node contributes a binary choice between the two halves of its
quotient's single color class, and the choices at different nodes never
interact.  The count is therefore a product, and enumeration is the cartesian
product of per-node choices in a fixed lexicographic order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, permutations
from math import factorial, prod
from typing import Iterable, Iterator

from .decomposition import DecompositionNode, PRIME, SERIES, _charge_edges, decomposition_tree
from .errors import DomainError, InvariantError
from .forcing import ColorMap, color_classes
from .graph import Graph


@dataclass(frozen=True)
class Orientation:
    """A full assignment of one direction per edge of a host graph."""

    directed: frozenset

    def direction_of(self, u, v) -> tuple:
        if (u, v) in self.directed:
            return (u, v)
        if (v, u) in self.directed:
            return (v, u)
        raise DomainError(f"edge {u!r},{v!r} is not oriented here")

    def sorted_pairs(self) -> list[tuple]:
        return sorted(self.directed)

    def to_json(self) -> list[list[str]]:
        return [[str(t), str(h)] for t, h in self.sorted_pairs()]

    @classmethod
    def from_pairs(cls, g: Graph, pairs: Iterable) -> "Orientation":
        """Build from (tail, head) pairs whose tokens may be strings of g's vertices."""
        by_name = {str(v): v for v in g.vertices}
        if len(by_name) != g.vertex_count:
            raise DomainError("vertex names are ambiguous under str()")
        directed = set()
        for pair in pairs:
            t, h = pair
            tail = by_name.get(str(t))
            head = by_name.get(str(h))
            if tail is None or head is None:
                raise DomainError(f"unknown vertex in pair {pair!r}")
            if not g.has_edge(tail, head):
                raise DomainError(f"{pair!r} is not an edge of the graph")
            directed.add((tail, head))
        o = cls(frozenset(directed))
        _validate_domain(g, o)
        return o


@dataclass(frozen=True)
class NodeChoice:
    """The local decision at one tree node.

    Series nodes carry a permutation of child indices (position in the tuple
    is the block's place in the linear order); prime nodes carry a flag that
    selects the reverse half of the quotient color instead of the canonical
    forward half.
    """

    path: tuple[int, ...]
    permutation: tuple[int, ...] | None = None
    use_reverse: bool | None = None


def _validate_domain(g: Graph, o: Orientation) -> None:
    undirected = set()
    for t, h in o.directed:
        if not g.has_edge(t, h):
            raise DomainError(f"({t!r},{h!r}) is not an edge of the graph")
        undirected.add(g.edge_key(t, h))
    if len(o.directed) != g.edge_count or undirected != set(g.edges):
        raise DomainError("orientation does not cover each edge exactly once")


def is_transitive(g: Graph, o: Orientation) -> bool:
    """True iff every directed path x->y->z closes with the edge x->z."""
    _validate_domain(g, o)
    succ: dict = {v: set() for v in g.vertices}
    for t, h in o.directed:
        succ[t].add(h)
    for t, h in o.directed:
        if not succ[h] <= succ[t]:
            return False
    return True


class _LiftPlan:
    """Per-node cross-edge blocks, precomputed once per tree for fast lifting.

    A prime node's crossing edges are one host color; on the representatives,
    its forward half is the canonical half of the quotient's single color."""

    __slots__ = ("entries",)

    def __init__(self, g: Graph, tree: DecompositionNode, cmap: ColorMap):
        # entries: path -> (kind, child count, block map, prime edge directions)
        self.entries: dict[tuple[int, ...], tuple] = {}
        for path, node, blocks in _charge_edges(g, tree):
            dirs = None
            if node.kind == PRIME:
                reps = node.representatives
                ids = {cmap.color_of(reps[i], reps[j]) for i, j in blocks}
                if len(ids) != 1:
                    raise InvariantError("prime quotient does not have a single color")
                color = cmap.colors[ids.pop()]
                if color.self_inverse:
                    raise DomainError("prime quotient is not transitively orientable")
                dirs = {(i, j): (reps[i], reps[j]) in color.forward for i, j in blocks}
            self.entries[path] = (node.kind, len(node.children), blocks, dirs)

    def apply(self, choices: Iterable[NodeChoice]) -> Orientation:
        chosen = {c.path: c for c in choices}
        if set(chosen) != set(self.entries):
            missing = set(self.entries) - set(chosen)
            extra = set(chosen) - set(self.entries)
            raise DomainError(
                f"choices do not match the tree (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        directed = []
        for path, (kind, k, pair_blocks, dirs) in self.entries.items():
            choice = chosen[path]
            if kind == SERIES:
                perm = choice.permutation
                if perm is None or sorted(perm) != list(range(k)):
                    raise DomainError(f"series node {path} needs a permutation of {k} children")
                pos = {child: rank for rank, child in enumerate(perm)}
                for (i, j), es in pair_blocks.items():
                    if pos[i] < pos[j]:
                        directed.extend(es)
                    else:
                        directed.extend((v, u) for u, v in es)
            else:
                if choice.use_reverse is None:
                    raise DomainError(f"prime node {path} needs a direction flag")
                flip = choice.use_reverse
                for (i, j), es in pair_blocks.items():
                    forward = dirs[(i, j)] != flip
                    if forward:
                        directed.extend(es)
                    else:
                        directed.extend((v, u) for u, v in es)
        return Orientation(frozenset(directed))


def default_choices(tree: DecompositionNode) -> list[NodeChoice]:
    """The lexicographically first choice at every series/prime node."""
    out = []
    for path, node in tree.walk_with_paths():
        if node.kind == SERIES:
            out.append(NodeChoice(path, permutation=tuple(range(len(node.children)))))
        elif node.kind == PRIME:
            out.append(NodeChoice(path, use_reverse=False))
    return out


def materialize(g: Graph, tree: DecompositionNode, choices: Iterable[NodeChoice]) -> Orientation:
    """Turn one choice per series/prime node into a concrete orientation.

    Series blocks are directed from earlier to later children in the chosen
    permutation; prime blocks copy the direction their quotient edge takes in
    the chosen half of the quotient's color class.
    """
    return _LiftPlan(g, tree, color_classes(g)).apply(choices)


def _analyze(g: Graph, shuffle: random.Random | None = None) -> _LiftPlan | None:
    """The one analysis behind the verdict, the count and the enumeration:
    None when a color class meets its reverse, else the lift plan of one tree,
    whose first orientation is verified transitive.  Needs a vertex."""
    cmap = color_classes(g)
    if any(c.self_inverse for c in cmap.colors):
        return None
    tree = decomposition_tree(g, shuffle=shuffle)
    plan = _LiftPlan(g, tree, cmap)
    if not is_transitive(g, plan.apply(next(_choice_product(plan)))):
        raise InvariantError("constructed orientation failed the transitivity check")
    return plan


def count_orientations(g: Graph) -> int:
    """Exact number of transitive orientations, as an arbitrary-precision int."""
    if g.vertex_count == 0:
        return 1
    plan = _analyze(g)
    if plan is None:
        return 0
    return prod(factorial(k) if kind == SERIES else 2 for kind, k, _, _ in plan.entries.values())


def _choice_product(plan: _LiftPlan) -> Iterator[tuple[NodeChoice, ...]]:
    # Odometer over the per-node options: the first node is the most
    # significant digit, and an exhausted digit restarts its options.
    def options(path, kind, k) -> Iterator[NodeChoice]:
        if kind == SERIES:
            return (NodeChoice(path, permutation=perm) for perm in permutations(range(k)))
        return (NodeChoice(path, use_reverse=flag) for flag in (False, True))

    space = [(path, kind, k) for path, (kind, k, _, _) in plan.entries.items()]
    digits = [options(*node) for node in space]
    combo = [next(d) for d in digits]
    while True:
        yield tuple(combo)
        for i in range(len(digits) - 1, -1, -1):
            combo[i] = next(digits[i], None)
            if combo[i] is not None:
                break
            digits[i] = options(*space[i])
            combo[i] = next(digits[i])
        else:
            return


def enumerate_orientations(
    g: Graph,
    limit: int | None = None,
    *,
    shuffle: random.Random | None = None,
) -> Iterator[Orientation]:
    """Stream every transitive orientation in a fixed lexicographic order.

    Nodes are visited in tree pre-order; series permutations run in
    lexicographic order of child representatives and prime nodes emit the
    canonical half before its reverse.  A non-comparability graph yields an
    empty stream.  The cartesian product is generated lazily, so a ``limit``
    makes even astronomically large spaces cheap.
    """
    if limit is not None and limit <= 0:
        return
    if g.vertex_count == 0:
        yield Orientation(frozenset())
        return
    plan = _analyze(g, shuffle)
    if plan is None:
        return
    yield from islice(map(plan.apply, _choice_product(plan)), limit)

