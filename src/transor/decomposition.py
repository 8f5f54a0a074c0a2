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


def _scan(masks: list[int], x: int) -> tuple[str, list[int] | None]:
    # The node kind of x (two or more vertices) by the component scans, and
    # its components or co-components; None for the parts of a prime node,
    # which is connected and co-connected (Gallai 1967).
    kind, parts = PARALLEL, mask_components(masks, x)
    if len(parts) == 1:
        kind, parts = SERIES, mask_components(masks, x, co=True)
    if len(parts) == 1:
        return PRIME, None
    return kind, parts


def _strong_parts(masks: list[int], x: int, shuffle: random.Random | None,
                  scanned: tuple | None = None) -> tuple[str, list[int]]:
    # The maximal strong modules of the subgraph induced on x (two or more
    # vertices), as masks by lowest vertex, checked to be modules (their own
    # closures), pairwise disjoint and covering x; and the node kind, which is
    # the case that split x.  ``scanned`` is ``_scan``'s answer when known.
    kind, parts = scanned or _scan(masks, x)
    if parts is None:
        parts = _prime_parts(masks, x, shuffle)
    covered = 0
    for p in parts:
        if p & covered:
            raise InvariantError("strong parts overlap")
        covered |= p
        if p & (p - 1) and _close_seed(masks, x, p) != p:
            raise InvariantError("strong part is not a module")
    if covered != x:
        raise InvariantError("strong parts do not cover the node")
    return kind, parts


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
    n = g.vertex_count
    if n < 2:
        raise DomainError("partition needs at least two vertices")
    _, parts = _strong_parts(g.adjacency_masks(), (1 << n) - 1, shuffle)
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
    # internal node of the tree, in pre-order (children in order).  A
    # singleton part is a leaf and has no entry.  ``before_prime`` sees each
    # topmost prime node's mask (one with no prime ancestor), in pre-order,
    # before any prime split: the nodes above them are split first, and each
    # topmost prime node's subtree is spliced in after.  None when it
    # answers false for one.
    masks = g.adjacency_masks()
    splits = _walk(masks, (1 << g.vertex_count) - 1, None, shuffle, before_prime)
    if splits is None or before_prime is None:
        return splits
    spliced = []
    for entry in splits:
        if type(entry) is int:  # a topmost prime node, already scanned
            spliced += _walk(masks, entry, (PRIME, None), shuffle)
        else:
            spliced.append(entry)
    return spliced


def _walk(masks: list[int], x: int, scanned: tuple | None, shuffle: random.Random | None,
          before_prime=None) -> list | None:
    # ``_split``'s entries for the subtree of x, from an explicit stack;
    # ``scanned`` is ``_scan``'s answer for x when known.  With
    # ``before_prime``, a prime node is handed to it instead of split and
    # listed as its bare mask; None when it answers false.
    splits = []
    stack = [x]
    while stack:
        x = stack.pop()
        if x & (x - 1):
            kind, parts = scanned or _scan(masks, x)
            scanned = None
            if parts is None and before_prime is not None:
                if not before_prime(x):
                    return None
                splits.append(x)
                continue
            kind, parts = _strong_parts(masks, x, shuffle, (kind, parts))
            splits.append((x, kind, parts))
            stack.extend(reversed(parts))
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
    """``_split``'s list for a given tree.

    Each node's mask is built bottom-up from its leaves, so a hand-built
    tree reaches the same charge walk as a split one."""
    index = g.index
    mask: dict = {}  # id(node) -> its vertex mask
    splits = []
    for node in reversed(list(tree.walk())):  # every child before its parent
        if node.children:
            parts = [mask[id(c)] for c in node.children]
            x = 0
            for p in parts:
                x |= p
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
    return splits


def _charge_edges(g: Graph, splits: list[tuple[int, str, list[int]]]) -> list[tuple]:
    """Charge every edge to the one node whose children separate its ends.

    ``(path, split, members, blocks)`` per series and prime node of
    ``_split``'s list, in its pre-order; ``path`` lists child indices from
    the root, as ``walk_with_paths`` gives them, ``members[i]`` the vertices
    of child ``i`` in index order, and ``blocks`` the child index pairs
    ``(i, j)``, ``i < j``, whose representatives (each child's lowest bit)
    are adjacent: every member of child ``i`` is adjacent to every member of
    child ``j``, as the host masks prove.  The charges must partition E, and
    a parallel node's representatives must be pairwise non-adjacent."""
    vs = g.vertices
    masks = g.adjacency_masks()
    charged = 0
    out = []
    paths = [()]  # the paths of the internal nodes still to come, next on top
    for split in splits:
        _, kind, parts = split
        path = paths.pop()
        paths.extend(path + (i,) for i in range(len(parts) - 1, -1, -1) if parts[i] & (parts[i] - 1))
        reps = [(p & -p).bit_length() - 1 for p in parts]
        rep_mask = seen = 0
        for r in reps:
            rep_mask |= 1 << r
            seen |= masks[r]
        if kind == PARALLEL:
            if seen & rep_mask:
                raise InvariantError("parallel node received crossing edges")
            continue
        members = []
        common = []  # the vertices adjacent to every member of each child
        for p in parts:
            vs_p, every = [], -1
            while p:
                b = p & -p
                u = b.bit_length() - 1
                vs_p.append(vs[u])
                every &= masks[u]
                p ^= b
            members.append(vs_p)
            common.append(every)
        child_of = {r: i for i, r in enumerate(reps)}
        blocks = []
        for i, r in enumerate(reps):
            joined = masks[r] & (rep_mask >> (r + 1) << (r + 1))  # representatives of later children
            while joined:
                b = joined & -joined
                joined ^= b
                j = child_of[b.bit_length() - 1]
                if common[i] & parts[j] != parts[j]:
                    raise InvariantError("a quotient edge lifts to a non-edge")
                blocks.append((i, j))
                charged += len(members[i]) * len(members[j])
        if not blocks:
            raise InvariantError(f"{kind} node received no crossing edges")
        out.append((path, split, members, blocks))
    if charged != g.edge_count:
        raise InvariantError("charged edges do not cover E")
    return out


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
