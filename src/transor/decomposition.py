"""Modules (partitive sets), strong modules, and the recursive decomposition tree.

A module is a vertex set whose members look identical from outside: every
external vertex is adjacent to all of it or none of it.  A strong module
overlaps no other module, so the strong modules form a laminar family; the
tree below records it, with each internal node tagged by the shape of its
quotient (edgeless, complete, or indecomposable).  A prime node is split by
vertex-partition refinement, or, where the forcing labels of its topmost
prime ancestor are at hand, by the one color that spans it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from operator import eq
from typing import Callable, Iterable, Iterator

from .errors import DomainError, InvariantError
from .graph import Graph, _bits, _check_graph, mask_components

LEAF = "leaf"
PARALLEL = "parallel"
SERIES = "series"
PRIME = "prime"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class DecompositionNode:
    """One node of the decomposition tree: a strong module and its split.

    ``children`` partition ``vertex_set`` and are ordered by smallest vertex.
    No quotient is stored: ``induced_subgraph(g, node.representatives)`` is
    one.  Equality is the tree as printed (vertex sets, kinds, children), so
    trees of two graphs with the same strong modules and kinds compare equal.
    Equality, ``repr`` and pickling (so copying) read the tree's pre-order
    records (see ``_preorder``), with each set in vertex order: any depth
    works, and no text or byte follows set order.  Two trees not from
    ``decomposition_tree`` compare their sets as sets, and a set of tokens
    with no common order is listed in set order.  A node of that tree holds
    its place in the split list instead: its ``vertex_set`` is read off its
    mask and its ``children`` decoded on their first read, both then kept,
    and equality, hashing, ``repr`` and pickling decode no node.
    """

    __slots__ = ("_vertex_set", "kind", "_children", "_held", "_source")
    vertex_set: frozenset  # the three fields: two are the properties below
    kind: str
    children: tuple["DecompositionNode", ...]

    def __init__(self, vertex_set: frozenset, kind: str, children: tuple):
        setattr_ = object.__setattr__  # the dataclass is frozen
        setattr_(self, "_vertex_set", vertex_set)
        setattr_(self, "kind", kind)
        setattr_(self, "_children", children)
        setattr_(self, "_held", None)
        setattr_(self, "_source", None)

    @property
    def vertex_set(self) -> frozenset:
        if self._vertex_set is None and self._held is not None:
            run, i = self._held
            object.__setattr__(self, "_vertex_set", run.graph.unmask(run.splits[i][0]))
        return self._vertex_set

    @property
    def children(self) -> tuple:
        if self._children is None and self._held is not None:
            object.__setattr__(self, "_children", _decode(*self._held))
        return self._children

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecompositionNode):
            return NotImplemented
        # Node by node in pre-order: a walk ends where its child counts say,
        # so equal nodes up to the end of one tree are the end of the other.
        # Two trees not held compare their sets as sets, with no sort.
        if self._held is None and other._held is None:
            return all(
                (a.vertex_set, a.kind, len(a.children)) == (b.vertex_set, b.kind, len(b.children))
                for a, b in zip(self.walk(), other.walk())
            )
        return self is other or all(map(eq, _preorder(self), _preorder(other)))

    def __hash__(self) -> int:
        return hash((self.vertex_set, self.kind))  # equal nodes agree on both

    def __reduce__(self) -> tuple:
        # A pickle or copy of a root leaves its graph and split list behind,
        # so ``multiplex_partition`` refuses it.
        return _rebuild, (list(_preorder(self)),)

    def __repr__(self) -> str:
        # The dataclass-generated format.
        def write(names: list, kind: str, k: int) -> tuple[str, str]:
            items = f"{{{', '.join(names)}}}" if names else ""
            return f"DecompositionNode(vertex_set=frozenset({items}), kind={kind!r}, children=(", ",))" if k == 1 else "))"

        return _nest(_preorder(self, repr), write, ", ")

    def walk(self) -> Iterator["DecompositionNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_with_paths(self) -> Iterator[tuple[tuple[int, ...], "DecompositionNode"]]:
        """Pre-order (path, node) pairs; a path lists child indices from this node."""
        stack = [((), self)]
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
        out: list = []
        stack = [out]  # per node still to come, the list it joins
        for names, kind, k in _preorder(self, str):
            children: list = []
            stack.pop().append({"vertices": names, "kind": kind, "children": children})
            if k:
                stack += [children] * k
        return out[0]


def _rebuild(records: list) -> DecompositionNode:
    # The tree of ``DecompositionNode.__reduce__``'s records: in reverse
    # pre-order each node's children are built before it, the first on top.
    stack: list = []
    for names, kind, k in reversed(records):
        stack.append(DecompositionNode(frozenset(names), kind, tuple(stack.pop() for _ in range(k))))
    return stack.pop()


class _Run:
    # The split list of one ``decomposition_tree``, which its nodes hold as
    # (run, position); on the first decode, each internal node's position.
    __slots__ = ("graph", "splits", "at")

    def __init__(self, graph: Graph, splits: list):
        self.graph, self.splits, self.at = graph, splits, None


def _node_at(run: _Run, i: int) -> DecompositionNode:
    node = DecompositionNode(None, run.splits[i][1], None)
    object.__setattr__(node, "_held", (run, i))
    return node


def _decode(run: _Run, i: int) -> tuple:
    # The children of the node at position i of the run: a leaf for each
    # one-vertex part, and each other part held at its own position.
    if run.at is None:
        run.at = {x: j for j, (x, _, _) in enumerate(run.splits)}
    vs = run.graph.vertices
    return tuple(
        _node_at(run, run.at[p]) if p & (p - 1) else DecompositionNode(frozenset((vs[p.bit_length() - 1],)), LEAF, ())
        for p in run.splits[i][2]
    )


def _preorder(node: DecompositionNode, name: Callable | None = None) -> Iterator[tuple[list, str, int]]:
    # The one reader of a tree's content.  Per node in pre-order: its
    # vertices in vertex order (through ``name``, if given), its kind and
    # its number of children.  A held node's subtree is read off the masks,
    # the run of the split list from its position on, at one step per
    # vertex; any other node off its fields, its set in set order if its
    # tokens share no order.
    stack = [node]
    while stack:
        node = stack.pop()
        if node._held is None:
            try:
                names = sorted(node.vertex_set)
            except TypeError:
                names = list(node.vertex_set)
            yield names if name is None else list(map(name, names)), node.kind, len(node.children)
            stack.extend(reversed(node.children))
            continue
        run, i = node._held
        splits, table = run.splits, run.graph.vertices if name is None else list(map(name, run.graph.vertices))
        masks = [splits[i][0]]
        while masks:
            p = masks.pop()
            if p & (p - 1):  # the next internal node in pre-order is p
                _, kind, parts = splits[i]
                i += 1
                yield list(map(table.__getitem__, _bits(p))), kind, len(parts)
                masks += reversed(parts)
            else:
                yield [table[p.bit_length() - 1]], LEAF, 0


def _nest(records: Iterable, write: Callable, sep: str) -> str:
    # A tree's text from its pre-order records: ``write(names, kind, k)``
    # gives a node's opening and closing text, and its children's texts go
    # between them, joined by ``sep``.
    out, open_ = [], []  # per open node, [its closing text, its children still to come]
    for names, kind, k in records:
        head, tail = write(names, kind, k)
        out.append(head)
        if k:
            open_.append([tail, k])
            continue
        out.append(tail)
        while open_:
            open_[-1][1] -= 1
            if open_[-1][1]:
                out.append(sep)
                break
            out.append(open_.pop()[0])
    return "".join(out)


def is_module(g: Graph, sub: Iterable) -> bool:
    """True iff every external vertex is adjacent to all of the set or none of it."""
    _check_graph(g)
    return _is_module(g, g.mask_of(sub))


def _is_module(g: Graph, x: int) -> bool:
    full = (1 << g.vertex_count) - 1
    return not x & (x - 1) or x == full or _close_seed(g.adjacency_masks(), full, x) == x


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
    _check_graph(g)
    x = g.mask_of(seed)
    if not x:
        raise DomainError("seed must contain at least one vertex")
    return g.unmask(_close_seed(g.adjacency_masks(), (1 << g.vertex_count) - 1, x))


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
    # time.  Each pivot costs a mask step, about k^2 in all for k = |x|,
    # unless the target is the smaller side: then the pivots are first cut,
    # at one step per target vertex, to those that can split it (Hopcroft's
    # smaller-half rule), which takes a sparse prime node off the k^2 path.
    if shuffle is None:
        vb = x & -x
    else:
        vb = 1 << shuffle.choice(_bits(x))
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
        if inside and 4 * target.bit_count() < pivots.bit_count():
            # Only a pivot that tells two vertices of the target apart can
            # split a part: one adjacent to some but not every vertex.
            some, every, rest = 0, -1, target
            while rest:
                b = rest & -rest
                m = masks[b.bit_length() - 1]
                some |= m
                every &= m
                rest ^= b
            pivots &= some & ~every
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


def _color_parts(masks: list[int], x: int, runs: tuple, shuffle: random.Random | None) -> list[int]:
    # The children of the prime node x, from the labels of G[y] for its
    # topmost prime ancestor y, as ``_color_split`` gives them.  The edges
    # between x's children are one color, the only one whose span is x
    # (Gallai 1967): every other color of G[x] lies inside a child, and the
    # colors of G[y] on the edges inside the module x are G[x]'s own.  So
    # the children are the classes of vertices with the same neighbours in
    # that color.  A node of t holds one color's edges at t, and it lies
    # inside x when its lowest vertex does; only the nodes of x's vertices
    # are read.  A vertex with one node has it inside x (its neighbours
    # outside the module x, if any, would make another), so that node has
    # the spanning color; a vertex with several nodes holds their
    # co-components as lists, lowest vertex first.  A node of another color
    # inside x holds t's neighbours in t's own child, so t joins the child
    # of its lowest vertex once that is known.  ``shuffle`` permutes the
    # order the vertices are read in.
    members = _bits(x)
    if shuffle is not None:
        shuffle.shuffle(members)
    inside = set(members)
    root, held, nodes = runs
    spanning = None  # the colors that every vertex read so far has an edge of
    for t in members:
        ks = nodes[t]
        lone = len(ks) == 1
        if spanning is None or len(spanning) > 1:
            colors = {root[2 * k] >> 1 for k in ks if lone or held[k][0] in inside}
            spanning = colors if spanning is None else spanning & colors
            if len(spanning) == 1:
                (color,) = spanning
        else:  # one color left: t needs one edge of it
            for k in ks:
                if root[2 * k] >> 1 == color and (lone or held[k][0] in inside):
                    break
            else:
                spanning = set()
        if not spanning:
            break
    if len(spanning) != 1:
        raise InvariantError(("no color" if not spanning else "more than one color") + " spans a prime node")
    parts: dict[int, int] = {}  # neighbours in that color -> the vertices that have them
    part_of: dict[int, int] = {}  # vertex -> the neighbours of its part in that color
    for t in members:
        inner = []
        for k in nodes[t]:
            if root[2 * k] >> 1 != color and held[k][0] in inside:  # not a lone node
                key = part_of.get(held[k][0])
                if key is not None:
                    break
                inner.append(k)
        else:
            key = masks[t] & x
            for k in inner:
                for h in held[k]:
                    key ^= 1 << h
        part_of[t] = key
        parts[key] = parts.get(key, 0) | 1 << t
    family = list(parts.values())
    if shuffle is not None:
        family.sort(key=lambda p: p & -p)
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
    order-independent and tests rely on that.  ``DomainError`` unless
    ``shuffle`` is None or a ``random.Random``.
    """
    _check_graph(g)
    _check_shuffle(shuffle)
    if g.vertex_count < 2:
        raise DomainError("partition needs at least two vertices")
    masks = g.adjacency_masks()
    full = (1 << g.vertex_count) - 1
    kind, parts = _scan(masks, full, None)
    if parts is None:
        parts = _prime_parts(masks, full, shuffle)
    for p, want in _below(masks, full, kind, parts, 0):  # each part proved a module as a flat node
        _below(masks, p, PRIME, [1 << i for i in _bits(p)], want)
    return tuple(g.unmask(p) for p in parts)


def quotient(g: Graph, partition) -> Graph:
    """Graph on one representative (smallest vertex) per part of a module partition."""
    _check_graph(g)
    try:
        parts = [g.mask_of(p) for p in partition]
    except TypeError:
        raise DomainError(f"{partition!r} is not a partition into vertex sets") from None
    seen = 0
    for p in parts:
        if not p:
            raise DomainError("empty part in partition")
        if p & seen:
            raise DomainError("parts are not disjoint")
        seen |= p
        if not _is_module(g, p):
            raise DomainError(f"part {g.vertex_list(p)!r} is not a module")
    if seen != (1 << g.vertex_count) - 1:
        raise DomainError("parts do not cover the vertex set")
    reps = [g.vertices[(p & -p).bit_length() - 1] for p in parts]
    edges = [
        (u, v)
        for u, v in combinations(reps, 2)
        if g.has_edge(u, v)
    ]
    return Graph(reps, edges)


def _upper(g: Graph) -> list[tuple[int, str, list[int] | int]]:
    # ``_split``'s entries down to the topmost prime nodes (prime nodes with
    # no prime ancestor), in pre-order, each such x listed as ``(x, PRIME,
    # want)``: scanned but unsplit, with the want (see ``_below``) that its
    # split starts from.
    full = (1 << g.vertex_count) - 1
    return _walk(g.adjacency_masks(), [(full, 0, None)] if full & (full - 1) else [], None)


def _split(g: Graph, shuffle: random.Random | None = None) -> list[tuple[int, str, list[int]]]:
    # The graph split by refinement, which costs less than labelling a dense
    # prime node: ``(x, kind, parts)`` host masks per internal node of the
    # tree, in pre-order (children in order), proved by ``_below``'s cover
    # walk.  A singleton part is a leaf and has no entry.
    full, masks = (1 << g.vertex_count) - 1, g.adjacency_masks()
    return _walk(masks, [(full, 0, None)] if full & (full - 1) else [], lambda x: _prime_parts(masks, x, shuffle))


def _color_split(masks: list[int], upper: list, labels: dict, shuffle: random.Random | None) -> list[tuple[int, str, list[int]]]:
    # ``_split``'s entries, every prime node split by color: each topmost
    # prime node x of ``upper`` (``_upper``'s) has its subtree spliced in,
    # after every node above it is split, read off ``labels[x]``
    # (``forcing._edge_classes`` of G[x]) and the range of each vertex's nodes.
    spliced = []
    for entry in upper:
        x, kind, want = entry
        if kind == PRIME:
            group, root, _, held, starts = labels[x]
            runs = root, held, dict(zip(group, map(range, starts, starts[1:] + [len(held)])))
            spliced += _walk(masks, [(x, want, PRIME)], lambda y: _color_parts(masks, y, runs, shuffle))
        else:
            spliced.append(entry)
    return spliced


def _walk(masks: list[int], stack: list, split: Callable[[int], list[int]] | None) -> list:
    # ``_split``'s entries for the subtrees on ``stack``, the top first:
    # ``(x, want, above)`` per node of two or more vertices, with the want
    # ``_below`` gave it and what ``_scan`` may skip.  ``split(x)`` gives a
    # prime node's parts; with no ``split``, x is listed as ``(x, PRIME, want)``.
    splits = []
    while stack:
        x, want, above = stack.pop()
        kind, parts = _scan(masks, x, above)
        if parts is None:
            if split is None:
                splits.append((x, PRIME, want))
                continue
            parts = split(x)
        splits.append((x, kind, parts))
        stack += [(p, w, None if kind == PRIME else kind) for p, w in reversed(_below(masks, x, kind, parts, want))]
    return splits


def _check_shuffle(shuffle) -> None:
    if shuffle is not None and not isinstance(shuffle, random.Random):
        raise DomainError(f"shuffle {shuffle!r} is not a random.Random")


def decomposition_tree(g: Graph, *, shuffle: random.Random | None = None) -> DecompositionNode:
    """Decomposition into strong modules, deterministic child order.

    The root holds ``_split``'s pre-order masks, with no recursion and no
    graph per level, and builds no node below it: its children are decoded
    from the masks when read (see ``DecompositionNode``), and
    ``to_json_dict`` reads the masks alone.  The root also keeps g, which
    ``multiplex_partition`` checks before it reads the masks.
    ``DomainError`` unless ``shuffle`` is None or a ``random.Random``."""
    _check_graph(g)
    _check_shuffle(shuffle)
    if g.vertex_count == 0:
        raise DomainError("cannot decompose an empty vertex set")
    run = _Run(g, _split(g, shuffle))
    root = _node_at(run, 0) if run.splits else DecompositionNode(frozenset(g.vertices), LEAF, ())
    object.__setattr__(root, "_source", run)  # no field: ==, hash, repr and pickling skip it
    return root


def _splits_of(g: Graph, tree) -> list:
    # The split list of ``tree``'s run when ``decomposition_tree`` returned
    # it for g or for a graph equal to it; any other tree, a hand-built copy
    # or a subtree included, is a domain error.
    run = tree._source if isinstance(tree, DecompositionNode) else None
    if run is None or (run.graph is not g and run.graph != g):
        raise DomainError("the tree is not one that decomposition_tree returned for this graph")
    return run.splits


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
    _check_graph(g)
    x = g.mask_of(sub)
    if not x & (x - 1) or x == (1 << g.vertex_count) - 1:
        return True
    return _is_module(g, x) and any(split[0] == x for split in _split(g))
