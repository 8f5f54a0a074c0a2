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
from dataclasses import dataclass, field
from itertools import chain, compress, islice, permutations, product
from math import factorial, prod
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Sequence

from .decomposition import PARALLEL, PRIME, SERIES, _blocks, _split
from .errors import DomainError, InvariantError
from .forcing import _edge_classes
from .graph import Graph


@dataclass(frozen=True)
class Orientation:
    """A full assignment of one direction per edge of a host graph.

    ``json_pairs`` lists the ``to_json`` output as (tail, head) string
    tuples, already in sorted order; only ``enumerate_orientations`` sets
    it, from its output tables, so it always agrees with ``directed``.  It
    is no constructor argument and takes no part in equality, hashing or
    ``repr``, which read ``directed`` only."""

    directed: frozenset
    json_pairs: list | None = field(default=None, init=False, compare=False, repr=False)

    def direction_of(self, u, v) -> tuple:
        if (u, v) in self.directed:
            return (u, v)
        if (v, u) in self.directed:
            return (v, u)
        raise DomainError(f"edge {u!r},{v!r} is not oriented here")

    def sorted_pairs(self) -> list[tuple]:
        return sorted(self.directed)

    def to_json(self) -> list[list[str]]:
        """Fresh ``[tail, head]`` string lists in (tail, head) vertex order.

        Copied from ``json_pairs`` when the orientation carries them (the
        enumeration stream); otherwise ``directed`` is sorted here."""
        if self.json_pairs is not None:
            return list(map(list, self.json_pairs))
        return [[str(t), str(h)] for t, h in self.sorted_pairs()]

    @classmethod
    def from_pairs(cls, g: Graph, pairs: Iterable) -> "Orientation":
        """Build from (tail, head) pairs whose tokens may be strings of g's vertices.

        ``DomainError`` unless they orient every edge of g exactly once."""
        return cls(_read_pairs(g, pairs)[0])


def _read_pairs(g: Graph, pairs: Iterable) -> tuple[frozenset, bool]:
    # The directed edges named by (tail, head) pairs, checked like
    # ``Orientation.from_pairs``, and whether they are transitive: one witness.
    by_name = {str(v): v for v in g.vertices}
    if len(by_name) != g.vertex_count:
        raise DomainError("vertex names are ambiguous under str()")
    directed = set()
    for pair in pairs:
        try:
            t, h = () if isinstance(pair, (str, bytes)) else pair  # a string is no pair
        except (TypeError, ValueError):
            raise DomainError(f"{pair!r} is not a (tail, head) pair") from None
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
    return directed, _witness(g, directed, DomainError)


def _witness(g: Graph, pairs: Collection, error: type[Exception]) -> bool:
    # Raise ``error`` unless the (tail, head) pairs orient every edge of g
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
        raise error(f"({t!r},{h!r}) is not an edge of the graph") from None
    except (TypeError, ValueError):
        raise error("orientation pairs must be (tail, head) pairs") from None
    if any(s & p or s | p != m for s, p, m in zip(succ, pred, g.adjacency_masks())):
        raise error("orientation does not cover each edge exactly once")
    return all(not succ[index[h]] & ~succ[index[t]] for t, h in pairs)


def is_transitive(g: Graph, o: Orientation) -> bool:
    """True iff every directed path x->y->z closes with the edge x->z.

    ``DomainError`` unless ``o`` orients every edge of g exactly once."""
    if any(isinstance(pair, (str, bytes)) for pair in o.directed):
        raise DomainError("orientation pairs must be (tail, head) pairs")
    return _witness(g, o.directed, DomainError)


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


class _LiftPlan:
    """The 2|E| directed edges laid out once per tree, for lifting choices.

    Built from ``_analyze``'s nodes in their pre-order: each arc (i, j)
    takes a forward run of slots (child i to child j) and then a reverse
    run.  An orientation is a byte selector over ``slots``, one precomputed
    piece per node in the same order: a series node gives, per arc, the
    bytes that select the run its permutation picks; a prime node gives one
    of two byte strings for its whole range, the forward runs (its
    canonical half) or the reverse runs.  The slot order follows the tree,
    not the (tail, head) order of the output: ``_output_tables`` sorts it
    for ``enumerate_orientations``.  Set once in ``__init__``, never changed
    after."""

    __slots__ = ("entries", "slots")

    def __init__(self, g: Graph, nodes: list):
        # entries: (kind, child count, pieces) per node.  A series node keeps
        # (i, j, run) per arc, where run[False] selects the arc's forward run
        # and run[True] its reverse run; a prime node keeps its canonical
        # and its reverse selector.
        self.entries: list[tuple] = []
        self.slots: list = []
        lay = self.slots.extend
        runs: dict[int, tuple[bytes, bytes]] = {}  # block size -> its two run selectors
        for kind, parts, arcs in nodes:
            members = [g.vertex_list(p) for p in parts]
            pieces = []
            for i, j in arcs:
                lay(product(members[i], members[j]))
                lay(product(members[j], members[i]))
                n = len(members[i]) * len(members[j])
                run = runs.get(n) or runs.setdefault(n, (b"\1" * n + b"\0" * n, b"\0" * n + b"\1" * n))
                pieces.append((i, j, run))
            if kind == PRIME:
                canonical = b"".join([run[False] for _, _, run in pieces])
                pieces = (canonical, canonical.translate(_FLIP))
            self.entries.append((kind, len(members), pieces))


def _series_piece(blocks: list, perm: Sequence[int]) -> bytes:
    # A series node's selector piece for one child order: each block's
    # forward run when child i comes before child j, else its reverse run.
    pos = sorted(range(len(perm)), key=perm.__getitem__)  # child -> its place
    return b"".join([run[pos[i] > pos[j]] for i, j, run in blocks])


def _analyze(g: Graph, shuffle: random.Random | None = None) -> list[tuple] | None:
    """The one analysis behind the verdict, the count and the enumeration.

    Splits the graph once and runs the union-find only on G[x] for each
    topmost prime node x (one with no prime ancestor), after the scans that
    find every topmost prime node connected and co-connected and before any
    prime split: series and parallel nodes leave no forcing choice (Gallai
    1967), so a cograph runs none.  The classes of G on the edges inside a
    module are the module's own, so a nested prime node reads its topmost
    ancestor's labels.

    None ("false") when a class of some G[x] is its own reverse: no graph
    that induces G[x] is a comparability graph.  Otherwise ``(kind, parts,
    arcs)`` per series and prime node, in pre-order: each child's vertex
    mask, and the joined child blocks (``_blocks``, read off the
    representatives alone) directed, tail child first, as the first
    orientation has them (i -> j with i < j at a series node; the class of
    the first block, its smallest crossing edge, at a prime node, whose
    blocks must all lie in it or its reverse).  ``_verify`` proves that
    orientation transitive, so "true" rests on a witness and only the count
    leans on the tree.  Lays out no slots and builds no orientation: the enumeration
    checks that its first selector picks these arcs, and the selectors
    after it, like ``orientation_at``'s, are lifted unchecked."""
    masks = g.adjacency_masks()
    labelled: list[tuple] = []  # (x, its labels) per topmost prime node, in pre-order

    def label(x: int) -> bool:
        classes = _edge_classes(masks, x)
        if any(c == r for c, r in classes[2].items()):  # a class that is its own reverse
            return False
        labelled.append((x, classes))
        return True

    splits = _split(g, shuffle, label)
    if splits is None:
        return None
    tops = iter(labelled)
    top = 0
    nodes = []
    for x, kind, parts in splits:
        if kind == PARALLEL:
            continue
        blocks = _blocks(masks, kind, parts)
        if kind == PRIME:
            if not x & top:
                top, (group, root, inverse) = next(tops)
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
    n = len(masks)
    succ = [0] * n
    pred = [0] * n
    down = {(1 << n) - 1: (0, 0)}  # node -> the out- and in-masks its members inherit
    arcs_of = iter(nodes)
    transitive = True
    for x, kind, parts in splits:
        s, p = down.pop(x)
        arcs = () if kind == PARALLEL else next(arcs_of)[2]
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
    return Orientation(frozenset(compress(plan.slots, b"".join(parts))))


def _verified_selector(nodes: list) -> bytes:
    # The selector of the orientation ``_verify`` proved, over the slot
    # layout of ``_LiftPlan``: each arc's forward run and not its reverse.
    runs: dict[int, bytes] = {}  # block size -> its forward run
    sizes = [parts[i].bit_count() * parts[j].bit_count() for _, parts, arcs in nodes for i, j in arcs]
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
    A non-comparability graph yields an empty stream.  The cartesian product is generated lazily, so a ``limit``
    makes even astronomically large spaces cheap.  Each orientation carries
    its ``to_json`` pairs, gathered from the slot layout by output tables
    built once after the analysis, so no orientation is sorted.
    """
    if limit is not None and limit <= 0:
        return
    if g.edge_count == 0:  # one orientation, with no pairs to sort
        yield Orientation(frozenset())
        return
    nodes = _analyze(g, shuffle)
    if nodes is not None:
        plan = _LiftPlan(g, nodes)
        gather, pairs = _output_tables(g, plan.slots)
        stream = _selectors(plan)
        first = next(stream)
        if first != _verified_selector(nodes):
            raise InvariantError("the first selector is not the verified orientation")
        for sel in islice(chain((first,), stream), limit):
            o = Orientation(frozenset(compress(plan.slots, sel)))
            # A list: small tuples freed once per orientation linger in the
            # interpreter's free lists, which raised the peak memory of a stream.
            object.__setattr__(o, "json_pairs", list(compress(pairs, gather(sel))))
            yield o


def _output_tables(g: Graph, slots: list) -> tuple:
    # The gather that puts the slots in (tail, head) vertex-index order,
    # which is the sorted token order, and each gathered slot's string pair,
    # built from one ``str`` per vertex.  Needs two slots or more.
    index = g.index
    n = len(index)
    keys = [index[t] * n + index[h] for t, h in slots]
    gather = itemgetter(*sorted(range(len(keys)), key=keys.__getitem__))
    name = {v: str(v) for v in g.vertices}
    return gather, [(name[t], name[h]) for t, h in gather(slots)]

