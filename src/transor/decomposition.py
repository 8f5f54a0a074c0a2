"""Modules (partitive sets), strong modules, and the recursive decomposition tree.

A module is a vertex set whose members look identical from outside: every
external vertex is adjacent to all of it or none of it.  A strong module
overlaps no other module, so the strong modules form a laminar family; the
tree below records it, with each internal node tagged by the shape of its
quotient (edgeless, complete, or indecomposable).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import DomainError, InvariantError
from .graph import Graph, mask_components

LEAF = "leaf"
PARALLEL = "parallel"
SERIES = "series"
PRIME = "prime"


@dataclass(frozen=True, eq=False, repr=False)
class DecompositionNode:
    """One node of the decomposition tree: a strong module and its split.

    ``children`` partition ``vertex_set`` and are ordered by smallest vertex.
    No quotient is stored: ``induced_subgraph(g, node.representatives)`` is
    one.  Equality is the tree as printed (vertex sets, kinds, children), so
    trees of two graphs with the same strong modules and kinds compare equal;
    it, hashing and ``repr`` walk the tree on a stack, so any depth works.
    """

    vertex_set: frozenset
    kind: str
    children: tuple["DecompositionNode", ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecompositionNode):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a.vertex_set, a.kind, len(a.children)) != (b.vertex_set, b.kind, len(b.children)):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return hash((self.vertex_set, self.kind))  # equal nodes agree on both

    def __repr__(self) -> str:
        # The dataclass-generated format, without one nested call per level.
        return self._render(
            lambda n: f"DecompositionNode(vertex_set={n.vertex_set!r}, kind={n.kind!r}, children=(",
            ", ",
            lambda n: ("," if len(n.children) == 1 else "") + "))",
        )

    def _render(self, head, sep: str, tail) -> str:
        # Each node as ``head(node)``, its children joined by ``sep``, then
        # ``tail(node)``, from a stack of nodes and literal pieces: any depth.
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(head(item))
            stack.append(tail(item))
            for i in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[i])
                if i:
                    stack.append(sep)
        return "".join(out)

    def walk(self) -> Iterator["DecompositionNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_with_paths(self, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], "DecompositionNode"]]:
        """Pre-order (path, node) pairs; a path lists child indices from this node."""
        stack = [(path, self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for i in range(len(node.children) - 1, -1, -1):
                stack.append((path + (i,), node.children[i]))

    @property
    def representatives(self) -> list:
        """The smallest vertex of each child (the quotient's vertices)."""
        return [min(child.vertex_set) for child in self.children]

    def to_json_dict(self) -> dict:
        done: dict = {}
        for node in reversed(list(self.walk())):  # every child before its parent
            done[id(node)] = {
                "vertices": [str(v) for v in sorted(node.vertex_set)],
                "kind": node.kind,
                "children": [done[id(c)] for c in node.children],
            }
        return done[id(self)]


def is_module(g: Graph, sub: Iterable) -> bool:
    """True iff every external vertex is adjacent to all of the set or none of it."""
    xs = frozenset(sub)
    for v in xs:
        if not g.has_vertex(v):
            raise DomainError(f"vertex {v!r} is not in the graph")
    if len(xs) <= 1 or len(xs) == g.vertex_count:
        return True
    x = g.mask_of(xs)
    return _close_seed(g.adjacency_masks(), (1 << g.vertex_count) - 1, x) == x


def _close_seed(masks: list[int], full: int, x: int, stop: int = 0) -> int:
    # Grow a vertex mask to the smallest module within ``full`` containing
    # it.  Any outside vertex adjacent to some but not all members must join;
    # ``some`` and ``every`` (the vertices adjacent to some, resp. every,
    # member) are folded in only for members that just joined.  Once a vertex
    # of ``stop`` joins, the caller knows the closure is ``full``: return it.
    some, every, new = 0, -1, x
    while new:
        while new:
            b = new & -new
            m = masks[b.bit_length() - 1]
            some |= m
            every &= m
            new ^= b
        new = some & ~every & full & ~x
        if new & stop:
            return full
        x |= new
    return x


def smallest_module(g: Graph, seed: Iterable) -> frozenset:
    """The inclusion-minimal module containing the seed vertices."""
    xs = frozenset(seed)
    if not xs:
        raise DomainError("seed must contain at least one vertex")
    for v in xs:
        if not g.has_vertex(v):
            raise DomainError(f"vertex {v!r} is not in the graph")
    full = (1 << g.vertex_count) - 1
    return g.unmask(_close_seed(g.adjacency_masks(), full, g.mask_of(xs)))


def _prime_parts(masks: list[int], x: int, shuffle: random.Random | None) -> list[int]:
    # x induces a connected, co-connected subgraph.  Refine {v}, x - v until
    # every part is a module of G[x]; the parts are then P(G[x], v), the
    # maximal modules not containing v (Ehrenfeucht, Gabow, McConnell &
    # Sullivan 1994; Habib, Paul & Viennot 1999).  When a part splits in two,
    # each half's vertices must still split the parts inside the other half.
    # Every proper module lies inside one child, so the child M_v holding v
    # is v plus the parts that close with v to less than x, and every other
    # part is a child of its own; a closure that reaches such a part is x.
    # ``owner`` maps each vertex to its part's id, and a split gives the
    # smaller half a new id, so a task jumps over its target one part at a
    # time.  About k^2 mask steps for k = |x|.
    if shuffle is None:
        vb = x & -x
    else:
        vb = 1 << shuffle.choice([u for u in range(x.bit_length()) if x >> u & 1])
    parts = [x ^ vb]  # by id
    owner = [0] * x.bit_length()
    tasks = [(vb, x ^ vb)]  # each vertex of the first mask splits the parts inside the second
    while tasks:
        pivots, target = tasks.pop(-1 if shuffle is None else shuffle.randrange(len(tasks)))
        inside, rest = [], target  # a target is a union of parts; singletons never split
        while rest:
            pid = owner[(rest & -rest).bit_length() - 1]
            p = parts[pid]
            rest ^= p
            if p & (p - 1):
                inside.append(pid)
        while pivots and inside:
            b = pivots & -pivots
            pivots ^= b
            seen = masks[b.bit_length() - 1] & target
            if not seen or seen == target:
                continue
            kept = []
            for pid in inside:
                p = parts[pid]
                a = p & seen
                if a and a != p:
                    tasks += [(a, p ^ a), (p ^ a, a)]
                    if 2 * a.bit_count() > p.bit_count():
                        a ^= p  # the smaller half takes the new id
                    parts[pid] = p ^ a
                    kept += (pid, len(parts))
                    m = a
                    while m:
                        c = m & -m
                        owner[c.bit_length() - 1] = len(parts)
                        m ^= c
                    parts.append(a)
                else:
                    kept.append(pid)
            inside = kept
    mv, out = vb, 0
    for p in parts:
        if not p & mv:
            closed = _close_seed(masks, x, vb | (p & -p), out)
            if closed == x:
                out |= p
                continue
            mv |= closed
        mv |= p
    if mv == x:
        raise InvariantError("the strong module holding the pivot is the whole node")
    family = [mv] + [p for p in parts if not p & mv]
    family.sort(key=lambda m: m & -m)
    return family


def _scan(masks: list[int], x: int, above: str | None) -> tuple[str, list[int] | None]:
    # The node kind of x (two or more vertices) by the component scans, and
    # its components or co-components; None for the parts of a prime node,
    # which is connected and co-connected.  ``above`` is the kind of x's
    # parent: by Gallai's alternation (1967) a child of a parallel node is a
    # component, so connected, and a child of a series node a co-component,
    # so co-connected, and the scan that would only say so is skipped.  It
    # is PRIME for a node already scanned prime, and None when nothing is
    # known (the root, and a prime node's children).
    if above != PARALLEL and above != PRIME:
        parts = mask_components(masks, x)
        if len(parts) > 1:
            return PARALLEL, parts
    if above != SERIES and above != PRIME:
        parts = mask_components(masks, x, co=True)
        if len(parts) > 1:
            return SERIES, parts
    return PRIME, None


def _below(masks: list[int], x: int, kind: str, parts: list[int], want: int) -> list[tuple[int, int]]:
    # One step of the cover walk that proves a split, top-down.  The parts
    # must be disjoint and cover x.  ``want`` is the neighbourhood outside x
    # that every vertex of x must have.  A part's want adds what its members
    # see of the rest of x: all of it at a series node, none at a parallel
    # node, what its representative (lowest bit) sees at a prime node.  Each
    # one-vertex part's mask must equal its want: checked for all at once from
    # what some and what every one of them sees.  Once every leaf passes, each
    # part is a module and each node's quotient is what its kind says.
    # Returns (part, want) for the parts of two or more vertices.
    covered, some, every, out = 0, 0, -1, []
    for p in parts:
        if p & covered or not p:
            raise InvariantError("strong parts overlap" if p else "a strong part is empty")
        covered |= p
        if not p & (p - 1):
            m = masks[p.bit_length() - 1]
            some |= m
            every &= m | p
        else:
            sees = x if kind == SERIES else 0 if kind == PARALLEL else masks[(p & -p).bit_length() - 1]
            out.append((p, want | (sees & (x ^ p))))
    if covered != x:
        raise InvariantError("strong parts do not cover the node")
    if (want | x if kind == SERIES else want) & ~every:
        raise InvariantError("a quotient edge lifts to a non-edge")
    if some & ~(want if kind == PARALLEL else want | x):
        raise InvariantError("a quotient non-edge lifts to an edge")
    return out


def maximal_strong_partition(g: Graph, *, shuffle: random.Random | None = None) -> tuple[frozenset, ...]:
    """The unique partition of V into maximal strong modules different from V.

    Three exclusive cases: a disconnected graph splits into its connected
    components; a graph with disconnected complement splits into the
    co-components; otherwise vertex-partition refinement from one vertex v
    yields the maximal modules not containing v, and those that close with v
    to a proper module merge with v into one part, the rest being parts as
    they are.  ``shuffle`` picks v and the pivot order; the result is
    order-independent and tests rely on that.
    """
    if g.vertex_count < 2:
        raise DomainError("partition needs at least two vertices")
    masks = g.adjacency_masks()
    full = (1 << g.vertex_count) - 1
    kind, parts = _scan(masks, full, None)
    if parts is None:
        parts = _prime_parts(masks, full, shuffle)
    for p, want in _below(masks, full, kind, parts, 0):  # each part proved a module as a flat node
        _below(masks, p, PRIME, [1 << g.index[v] for v in g.vertex_list(p)], want)
    return tuple(g.unmask(p) for p in parts)


def quotient(g: Graph, partition) -> Graph:
    """Graph on one representative (smallest vertex) per part of a module partition."""
    parts = [frozenset(p) for p in partition]
    seen: set = set()
    for p in parts:
        if not p:
            raise DomainError("empty part in partition")
        if p & seen:
            raise DomainError("parts are not disjoint")
        seen |= p
        if not is_module(g, p):
            raise DomainError(f"part {sorted(p)!r} is not a module")
    if len(seen) != g.vertex_count:
        raise DomainError("parts do not cover the vertex set")
    reps = [min(p) for p in parts]
    edges = [
        (u, v)
        for u, v in combinations(reps, 2)
        if g.has_edge(u, v)
    ]
    return Graph(reps, edges)


def _split(g: Graph, shuffle: random.Random | None = None, before_prime=None) -> list[tuple[int, str, list[int]]] | None:
    # The one place the graph is split: ``(x, kind, parts)`` host masks per
    # internal node of the tree, in pre-order (children in order), proved by
    # ``_below``'s cover walk.  A singleton part is a leaf and has no entry.
    # ``before_prime`` sees each topmost prime node's mask (one with no prime
    # ancestor), in pre-order, before any prime split: the nodes above them
    # are split first, and each topmost prime node's subtree is spliced in
    # after.  None when it answers false for one.
    masks = g.adjacency_masks()
    full = (1 << g.vertex_count) - 1
    splits = _walk(masks, [(full, 0, None)] if full & (full - 1) else [], shuffle, before_prime)
    if splits is None or before_prime is None:
        return splits
    spliced = []
    for entry in splits:  # a topmost prime node is (x, want), already scanned
        spliced += [entry] if len(entry) == 3 else _walk(masks, [(*entry, PRIME)], shuffle)
    return spliced


def _walk(masks: list[int], stack: list, shuffle: random.Random | None, before_prime=None) -> list | None:
    # ``_split``'s entries for the subtrees on ``stack``, the top first:
    # ``(x, want, above)`` per node of two or more vertices, with the want
    # ``_below`` gave it and what ``_scan`` may skip.  With ``before_prime``, a
    # prime node is handed to it instead of split and listed as
    # ``(x, want)``; None when it answers false.
    splits = []
    while stack:
        x, want, above = stack.pop()
        kind, parts = _scan(masks, x, above)
        if parts is None:
            if before_prime is not None:
                if not before_prime(x):
                    return None
                splits.append((x, want))
                continue
            parts = _prime_parts(masks, x, shuffle)
        splits.append((x, kind, parts))
        stack += [(p, w, None if kind == PRIME else kind) for p, w in reversed(_below(masks, x, kind, parts, want))]
    return splits


def decomposition_tree(g: Graph, *, shuffle: random.Random | None = None) -> DecompositionNode:
    """Decomposition into strong modules, deterministic child order.

    Assembles the nodes bottom-up from ``_split``'s pre-order masks: no
    recursion and no graph per level."""
    if g.vertex_count == 0:
        raise DomainError("cannot decompose an empty vertex set")
    vs = g.vertices

    def node(p: int) -> DecompositionNode:
        if p & (p - 1):
            return built.pop(p)
        return DecompositionNode(frozenset((vs[p.bit_length() - 1],)), LEAF, ())

    built: dict[int, DecompositionNode] = {}
    for x, kind, parts in reversed(_split(g, shuffle)):
        children = tuple(map(node, parts))
        built[x] = DecompositionNode(frozenset().union(*(c.vertex_set for c in children)), kind, children)
    return node((1 << g.vertex_count) - 1)  # the root: split first, assembled last


def _tree_splits(g: Graph, tree: DecompositionNode) -> list:
    """``_split``'s list for a given tree, proved by the same cover walk.

    Each node's mask is built bottom-up from its leaves, then ``_below``
    checks the nodes top-down, so a hand-built tree that does not fit the
    graph is refused as a faulty split would be."""
    index = g.index
    mask: dict = {}  # id(node) -> its vertex mask
    splits = []
    for node in reversed(list(tree.walk())):  # every child before its parent
        if node.children:
            parts = [mask[id(c)] for c in node.children]
            x = 0
            for p in parts:
                x |= p
            if not x & (x - 1):
                raise InvariantError("a node of one vertex has children")
            splits.append((x, node.kind, parts))
        elif len(node.vertex_set) != 1:
            raise InvariantError("a leaf is not one vertex")
        else:
            (v,) = node.vertex_set
            if v not in index:
                raise InvariantError("edge endpoint missing from the tree")
            x = 1 << index[v]
        mask[id(node)] = x
    if x != (1 << g.vertex_count) - 1:  # x is the root's mask
        raise InvariantError("edge endpoint missing from the tree")
    splits.reverse()
    masks = g.adjacency_masks()
    wants = {x: 0}
    for x, kind, parts in splits:
        wants.update(_below(masks, x, kind, parts, wants.pop(x)))
    return splits


def _blocks(masks: list[int], kind: str, parts: list[int]) -> list[tuple[int, int]]:
    # The child index pairs (i, j) of a series or prime node whose parts are
    # joined: every pair i < j at a series node, and at a prime node the
    # pairs whose representatives (each part's lowest bit) are adjacent,
    # i's the lower.  After the cover walk every member of part i is
    # adjacent to every member of part j exactly for these pairs.
    if kind == SERIES:
        blocks = list(combinations(range(len(parts)), 2))
    else:
        reps = [(p & -p).bit_length() - 1 for p in parts]
        child_of = {r: i for i, r in enumerate(reps)}
        rep_mask = sum(1 << r for r in reps)  # distinct bits: their sum is their union
        blocks = []
        for i, r in enumerate(reps):
            joined = masks[r] & (rep_mask >> (r + 1) << (r + 1))  # representatives past r
            while joined:
                b = joined & -joined
                joined ^= b
                blocks.append((i, child_of[b.bit_length() - 1]))
    if not blocks:
        raise InvariantError(f"{kind} node received no crossing edges")
    return blocks


def is_strong_module(g: Graph, sub: Iterable) -> bool:
    """True iff the set is a module overlapped by no other module.

    Implemented as membership among the masks of the tree's internal nodes
    (plus the trivial sets); tests verify this against the brute-force
    definition.
    """
    xs = frozenset(sub)
    if not is_module(g, xs):  # also refuses vertices outside the graph
        return False
    if len(xs) <= 1 or len(xs) == g.vertex_count:
        return True
    x = g.mask_of(xs)
    return any(split[0] == x for split in _split(g))
