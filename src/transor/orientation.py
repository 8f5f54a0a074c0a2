"""Exact counting and deterministic enumeration of all transitive orientations.

Orientations decompose along the tree: a series node contributes one choice
of child order (k! options, edges point from earlier to later blocks), a
prime node contributes a binary choice between the two halves of its
quotient's single color class, and the choices at different nodes never
interact.  The count is therefore a product, and enumeration is the cartesian
product of per-node choices in a fixed lexicographic order, so each
orientation has a mixed-radix rank whose digits are its choices.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, islice, permutations, repeat
from math import factorial, prod
from operator import itemgetter, or_
from typing import Collection, Iterable, Iterator, Sequence

from .decomposition import PARALLEL, PRIME, SERIES, _blocks, _check_shuffle, _color_split, _upper
from .errors import DomainError, InvariantError
from .forcing import _edge_classes
from .graph import Graph, _bits, _check_graph, _pair


@dataclass(init=False, unsafe_hash=True)
class Orientation:
    """A full assignment of one direction per edge of a host graph.

    ``Orientation(directed)`` is the one constructor.  A streamed orientation
    holds its selector and the stream's shared tables, which ``to_json`` reads;
    ``directed`` is decoded from them on its first read and then kept."""

    __slots__ = ("_directed", "_tables", "_sel")
    directed: frozenset  # the one field, which eq, hash and repr read: the property below

    def __init__(self, directed: frozenset):
        self._directed, self._tables = directed, None

    @property
    def directed(self) -> frozenset:
        if self._directed is None:
            self._directed = _decode(*self._tables[:2], self._sel)
        return self._directed

    def __reduce__(self) -> tuple:
        return Orientation, (self.directed,)

    def direction_of(self, u, v) -> tuple:
        try:
            if (u, v) in self.directed:
                return (u, v)
            if (v, u) in self.directed:
                return (v, u)
        except TypeError:  # an unhashable token
            pass
        raise DomainError(f"edge {u!r},{v!r} is not oriented here")

    def sorted_pairs(self) -> list[tuple]:
        return sorted(self.directed)

    def to_json(self) -> list[list[str]]:
        """Fresh ``[tail, head]`` string lists in (tail, head) vertex order.

        Gathered from the selector when the orientation holds one (the
        enumeration stream); otherwise ``directed`` is sorted here."""
        if self._tables is None:
            return [[str(t), str(h)] for t, h in self.sorted_pairs()]
        _, _, gather, pairs = self._tables
        return [[t, h] for t, h in compress(pairs, gather(self._sel))]

    @classmethod
    def from_pairs(cls, g: Graph, pairs: Iterable) -> "Orientation":
        """Build from (tail, head) pairs whose tokens may be strings of g's vertices.

        ``DomainError`` unless they orient every edge of g exactly once."""
        _check_graph(g)
        return cls(_read_pairs(g, pairs)[0])


def _read_pairs(g: Graph, pairs: Iterable) -> tuple[frozenset, bool]:
    # The directed edges named by (tail, head) pairs, checked like
    # ``Orientation.from_pairs``, and whether they are transitive: one witness.
    by_name = {str(v): v for v in g.vertices}
    if len(by_name) != g.vertex_count:
        raise DomainError("vertex names are ambiguous under str()")
    directed = set()
    for pair in pairs:
        t, h = _pair(pair, "(tail, head) pair")
        tail = by_name.get(str(t))
        head = by_name.get(str(h))
        if tail is None or head is None:
            raise DomainError(f"unknown vertex in pair {pair!r}")
        if not g.has_edge(tail, head):
            raise DomainError(f"{pair!r} is not an edge of the graph")
        if (tail, head) in directed:
            raise DomainError(f"{pair!r} is listed twice")
        directed.add((tail, head))
    directed = frozenset(directed)
    return directed, _witness(g, directed)


def _witness(g: Graph, pairs: Collection) -> bool:
    # Raise ``DomainError`` unless the (tail, head) pairs orient every edge of g
    # exactly once: per vertex, out- and in-neighbour masks are disjoint and
    # together its adjacency mask.  Then transitive iff succ[h] lies within
    # succ[t] for every pair t->h, read from the pairs a second time.
    index = g.index
    succ = [0] * len(index)
    pred = succ.copy()
    try:
        for t, h in pairs:
            i, j = index[t], index[h]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
    except KeyError:
        raise DomainError(f"({t!r},{h!r}) is not an edge of the graph") from None
    except (TypeError, ValueError):
        raise DomainError("orientation pairs must be (tail, head) pairs") from None
    if any(s & p or s | p != m for s, p, m in zip(succ, pred, g.adjacency_masks())):
        raise DomainError("orientation does not cover each edge exactly once")
    return all(not succ[index[h]] & ~succ[index[t]] for t, h in pairs)


def is_transitive(g: Graph, o: Orientation) -> bool:
    """True iff every directed path x->y->z closes with the edge x->z.

    ``DomainError`` unless ``o`` orients every edge of g exactly once."""
    _check_graph(g)
    if not isinstance(o, Orientation):
        raise DomainError(f"orientation {o!r} is not an Orientation")
    if any(isinstance(pair, (str, bytes)) for pair in o.directed):
        raise DomainError("orientation pairs must be (tail, head) pairs")
    return _witness(g, o.directed)


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


class _LiftPlan:
    """The 2|E| directed edges laid out once per tree, for lifting choices.

    Built from ``_analyze``'s nodes in their pre-order: each arc (i, j)
    takes a forward run of slots (child i to child j) and then a reverse
    run; a slot is the code ``t * n + h`` of an edge between vertex indices.
    A series node's arcs, every pair i < j in ``_blocks``' order, are listed
    here and in ``_verified_selector`` alone, which handle O(|E|) slots.
    An orientation is a byte selector over ``slots``, one piece per node in
    the same order: a series node gives, per arc, the bytes that select the
    run its permutation picks; a prime node gives one of two byte strings
    for its whole range, the forward runs (its canonical half) or the
    reverse runs.  The slot order follows the tree, not the sorted order of
    the output, which ``_output_tables`` gives.  Set once, never changed."""

    __slots__ = ("entries", "slots")

    def __init__(self, g: Graph, nodes: list):
        # entries: (kind, child count, pieces) per node.  A series node keeps
        # (i, j, run) per arc, where run[False] selects the arc's forward run
        # and run[True] its reverse run; a prime node keeps its canonical
        # and its reverse selector.
        self.entries: list[tuple] = []
        self.slots: list[int] = []
        lay, n = self.slots.extend, g.vertex_count
        runs: dict[int, tuple[bytes, bytes]] = {}  # block size -> its two run selectors
        for kind, parts, arcs in nodes:
            members = list(map(_bits, parts))
            pieces = []
            for i, j in _arcs(kind, parts, arcs):
                lay([t * n + h for t in members[i] for h in members[j]])
                lay([h * n + t for h in members[j] for t in members[i]])
                size = len(members[i]) * len(members[j])
                run = runs.get(size) or runs.setdefault(size, (b"\1" * size + b"\0" * size, b"\0" * size + b"\1" * size))
                pieces.append((i, j, run))
            if kind == PRIME:
                canonical = b"".join([run[False] for _, _, run in pieces])
                pieces = (canonical, canonical.translate(_FLIP))
            self.entries.append((kind, len(members), pieces))


def _arcs(kind: str, parts: list[int], arcs: list | None) -> Iterable[tuple[int, int]]:
    # A node's arcs from ``_analyze``: at a series node, which keeps none,
    # every pair i < j in the order ``_blocks`` lists them.
    return combinations(range(len(parts)), 2) if kind == SERIES else arcs


def _series_piece(blocks: list, perm: Sequence[int]) -> bytes:
    # A series node's selector piece for one child order: each block's
    # forward run when child i comes before child j, else its reverse run.
    pos = sorted(range(len(perm)), key=perm.__getitem__)  # child -> its place
    return b"".join([run[pos[i] > pos[j]] for i, j, run in blocks])


def _analyze(g: Graph, shuffle: random.Random | None = None) -> list[tuple] | None:
    """The one analysis behind the verdict, the count and the enumeration.

    ``_upper`` walks the tree down to its topmost prime nodes (prime nodes
    with no prime ancestor) and ``_edge_classes`` labels G[x] for each such
    x: series and parallel nodes leave no forcing choice (Gallai 1967), so
    a cograph runs none.  Only then does ``_color_split`` splice in their
    subtrees, each prime node split by the one color whose span is the node
    (``decomposition._color_parts``), from its topmost ancestor's labels:
    the classes of G on the edges inside a module are the module's own.

    None ("false") at the first G[x] with a class that is its own reverse,
    before any prime split: no graph that induces G[x] is a comparability
    graph.  Otherwise ``(kind, parts, arcs)`` per series and prime node, in
    pre-order: each child's vertex mask, and at a prime node its joined
    child blocks (``_blocks``, read off the representatives alone) directed,
    tail child first, as the first orientation has them (the class of the
    first block, its smallest crossing edge, whose blocks must all lie in it
    or its reverse).  A series node's arcs are None: they are i -> j for
    every i < j, implied by its child list, so no series node costs more
    than its k children here or in ``_verify``.  ``_verify`` proves that
    orientation transitive, so "true" rests on a witness and only the count
    leans on the tree.  Lays out no slots and builds no orientation: the
    enumeration checks that its first selector picks these arcs, and the
    selectors after it, like ``orientation_at``'s, are lifted unchecked."""
    masks = g.adjacency_masks()
    upper = _upper(g)
    labelled = {}  # topmost prime node -> its labels
    for x, kind, _ in upper:
        if kind == PRIME:
            labelled[x] = _edge_classes(masks, x)
            if any(c == r for c, r in labelled[x][2].items()):  # a class that is its own reverse
                return None
    splits = _color_split(masks, upper, labelled, shuffle)
    nodes = []
    for x, kind, parts in splits:
        if kind == PARALLEL:
            continue
        blocks = None if kind == SERIES else _blocks(masks, kind, parts)
        if kind == PRIME:
            if x in labelled:  # a topmost prime node; the nested ones follow it
                group, root, inverse, *_ = labelled[x]
            reps = [(p & -p).bit_length() - 1 for p in parts]
            labels = [root[2 * group[reps[i]][reps[j]]] for i, j in blocks]
            forward = labels[0]
            if not set(labels) <= {forward, inverse[forward]}:
                raise InvariantError("prime quotient does not have a single color")
            blocks = [(i, j) if c == forward else (j, i) for (i, j), c in zip(blocks, labels)]
        nodes.append((kind, parts, blocks))
    _verify(masks, splits, nodes)
    return nodes


def _verify(masks: list[int], splits: list, nodes: list) -> None:
    # Raise ``InvariantError`` unless child i -> child j, for each arc (i, j)
    # of ``nodes`` (the series and prime entries of ``splits``), orients
    # every edge exactly once, transitively.  A vertex's out- and in-masks
    # gather the arcs of its ancestors, handed down the tree, and must be
    # disjoint and make up its neighbourhood.  Given that cover, succ(h) lies
    # in succ(t) for all t in child i and h in child j exactly when out(j)
    # lies in out(i): the rest of succ(h) is in child j, inside out(i), and
    # out(j) misses child i.  So each node's quotient must be transitive.
    # A series node's arcs are every i -> j with i < j, so a child's out-set
    # is the union of the later children and its in-set that of the earlier
    # ones, O(k) unions for k children; out-sets that nest are transitive.
    n = len(masks)
    succ = [0] * n
    pred = [0] * n
    down = {(1 << n) - 1: (0, 0)}  # node -> the out- and in-masks its members inherit
    arcs_of = (arcs for kind, _, arcs in nodes if kind == PRIME)
    transitive = True
    for x, kind, parts in splits:
        s, p = down.pop(x)
        if kind == PARALLEL:
            out, into = repeat(s), repeat(p)
        elif kind == SERIES:
            out = list(accumulate(reversed(parts[1:]), or_, initial=s))
            out.reverse()
            into = accumulate(parts, or_, initial=p)  # one more than the children
        else:
            arcs = next(arcs_of)
            out = [s] * len(parts)
            into = [p] * len(parts)
            for i, j in arcs:
                out[i] |= parts[j]
                into[j] |= parts[i]
            transitive = transitive and not any(out[j] & ~out[i] for i, j in arcs)
        for c, s, p in zip(parts, out, into):
            if c & (c - 1):
                down[c] = (s, p)
            else:
                u = c.bit_length() - 1
                succ[u], pred[u] = s, p
    if any(s & p or s | p != m for s, p, m in zip(succ, pred, masks)):
        raise InvariantError("orientation does not cover each edge exactly once")
    if not transitive:
        raise InvariantError("constructed orientation failed the transitivity check")


def count_orientations(g: Graph) -> int:
    """Exact number of transitive orientations, as an arbitrary-precision int."""
    _check_graph(g)
    nodes = _analyze(g)
    if nodes is None:
        return 0
    return prod(_radices(nodes))


def _radices(nodes: list) -> list[int]:
    # The number of choices at each node: c! orders of a series node's c
    # children, the two halves of a prime node.
    return [factorial(len(parts)) if kind == SERIES else 2 for kind, parts, _ in nodes]


def orientation_at(g: Graph, k: int) -> Orientation:
    """The orientation at rank ``k`` of ``enumerate_orientations(g)``.

    Built directly, without the ones before it.  A rank is a mixed-radix
    number with one digit per series and prime node, the first node in tree
    pre-order the most significant: a series node of c children has c!
    values, its child orders in lexicographic order, and a prime node two,
    its canonical half first.  ``DomainError`` when g is not a comparability
    graph, or ``k`` is not an int in ``0..count - 1``."""
    _check_graph(g)
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"rank {k!r} is not an int")
    nodes = _analyze(g)
    if nodes is None:
        raise DomainError("the graph is not a comparability graph")
    radices = _radices(nodes)
    count = prod(radices)
    if not 0 <= k < count:
        raise DomainError(f"rank {k} is outside 0..{count - 1}")
    plan = _LiftPlan(g, nodes)
    parts = []  # one selector piece per node, the last node's first
    for (kind, c, pieces), radix in zip(reversed(plan.entries), reversed(radices)):
        k, digit = divmod(k, radix)
        if kind != SERIES:
            parts.append(pieces[digit])
            continue
        pool = list(range(c))  # the child order of rank ``digit``, by its factorial-base digits
        perm = []
        for i in range(c, 0, -1):
            radix //= i
            place, digit = divmod(digit, radix)
            perm.append(pool.pop(place))
        parts.append(_series_piece(pieces, perm))
    parts.reverse()
    return Orientation(_decode(g.vertices, plan.slots, b"".join(parts)))


def _decode(vertices: tuple, slots: list[int], sel: bytes) -> frozenset:
    return frozenset([(vertices[t], vertices[h]) for t, h in map(divmod, compress(slots, sel), repeat(len(vertices)))])


def _verified_selector(nodes: list) -> bytes:
    # The selector of the orientation ``_verify`` proved, over the slot
    # layout of ``_LiftPlan``: each arc's forward run and not its reverse,
    # a series node's arcs listed as ``_LiftPlan`` lists them.
    runs: dict[int, bytes] = {}  # block size -> its forward run
    sizes = [parts[i].bit_count() * parts[j].bit_count() for kind, parts, arcs in nodes for i, j in _arcs(kind, parts, arcs)]
    return b"".join([runs.get(n) or runs.setdefault(n, b"\1" * n + b"\0" * n) for n in sizes])


def _selectors(plan: _LiftPlan) -> Iterator[bytes]:
    # Odometer over the per-node selector pieces: the first node is the most
    # significant digit, and an exhausted digit restarts its pieces.  A
    # series node's piece is joined once per permutation, in lexicographic
    # order; a prime node's two pieces are the plan's.
    def options(kind, k, pieces) -> Iterator[bytes]:
        if kind == SERIES:
            return (_series_piece(pieces, perm) for perm in permutations(range(k)))
        return iter(pieces)

    space = plan.entries
    digits = [options(*node) for node in space]
    combo = [next(d) for d in digits]
    while True:
        yield b"".join(combo)
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
    canonical half before its reverse; the k-th is ``orientation_at(g, k)``.
    A non-comparability graph yields an empty stream.  The cartesian
    product is generated lazily, so a ``limit`` makes even astronomically
    large spaces cheap.  Each orientation is its selector over output tables
    built once after the analysis, and none is sorted.  ``DomainError``
    unless ``limit`` is None or an int and ``shuffle`` None or a
    ``random.Random``.
    """
    _check_graph(g)
    _check_shuffle(shuffle)
    if not (limit is None or isinstance(limit, int) and not isinstance(limit, bool)):
        raise DomainError(f"limit {limit!r} is not an int")
    if limit is not None and limit <= 0:
        return
    if g.edge_count == 0:  # one orientation; the output tables need two slots or more
        yield Orientation(frozenset())
        return
    nodes = _analyze(g, shuffle)
    if nodes is not None:
        plan = _LiftPlan(g, nodes)
        tables = _output_tables(g, plan.slots)
        stream = _selectors(plan)
        first = next(stream)
        if first != _verified_selector(nodes):
            raise InvariantError("the first selector is not the verified orientation")
        for sel in islice(chain((first,), stream), limit):
            o = Orientation(None)  # ``directed`` is decoded from ``sel`` when read
            o._tables, o._sel = tables, sel
            yield o


def _output_tables(g: Graph, slots: list[int]) -> tuple:
    # A stream's shared tables: the vertices and slot codes ``_decode`` reads,
    # the gather into sorted (tail, head) order, and its string pairs.
    gather = itemgetter(*sorted(range(len(slots)), key=slots.__getitem__))
    name = [str(v) for v in g.vertices]
    return g.vertices, slots, gather, [(name[t], name[h]) for t, h in map(divmod, gather(slots), repeat(len(name)))]

