"""Command-line front door.

Exit codes: 0 success (check/verify: verdict true), 1 negative verdict,
2 oracle disagreement, 64 bad input or a usage error (an unknown flag, a
missing verb, a bad flag value), 65 oracle-scale refusal, 70 internal error
(a failed self-check, or a crash such as RecursionError).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import islice

from .decomposition import PRIME, SERIES, _nest, _preorder, decomposition_tree
from .errors import DomainError, OracleScaleError, ParseError
from .forcing import color_classes, is_comparability
from .graph import Graph
from .io import parse_graph
from .multiplex import multiplex_partition
from .orientation import Orientation, _read_pairs, count_orientations, enumerate_orientations


def _read_input(path: str) -> str:
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_graph(path: str) -> Graph:
    parsed = parse_graph(_read_input(path))
    if parsed.duplicate_edges:
        noun = "line" if parsed.duplicate_edges == 1 else "lines"
        print(
            f"warning: {parsed.duplicate_edges} duplicate edge {noun} collapsed",
            file=sys.stderr,
        )
    if parsed.graph.vertex_count == 0:
        raise DomainError("input declares no vertices")
    return parsed.graph


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _tree_to_json(tree) -> str:
    # ``_dump(tree.to_json_dict())`` byte for byte, streamed from the tree's
    # pre-order walk: json.dumps would recurse once per nesting level.
    def write(names: list, kind: str, k: int) -> tuple[str, str]:
        return f'{{"vertices":[{",".join(names)}],"kind":{json.dumps(kind)},"children":[', "]}"

    return _nest(_preorder(tree, lambda v: json.dumps(str(v))), write, ",")


def _tree_to_dot(tree) -> str:
    # Nodes are numbered in the tree's pre-order walk; the arcs follow, by (parent, child) number.
    lines = ["digraph decomposition {", "  node [shape=box];"]
    arcs, left = [], []  # per open node, [its number, its children still to come]
    nodes = _preorder(tree, lambda v: str(v).replace("\\", "\\\\").replace('"', '\\"'))
    for i, (names, kind, k) in enumerate(nodes):
        if left:
            parent = left[-1]
            arcs.append((parent[0], i))
            parent[1] -= 1
            if not parent[1]:
                left.pop()
        label = kind
        if kind in (SERIES, PRIME):
            label += f" rank={k - 1 if kind == SERIES else 1}"
        lines.append(f'  n{i} [label="{label}\\n{{{",".join(names)}}}"];')
        if k:
            left.append([i, k])
    arcs.sort()
    lines += [f"  n{p} -> n{c};" for p, c in arcs]
    lines.append("}")
    return "\n".join(lines)


def _oracle_orientations(g: Graph) -> list[Orientation]:
    from .oracle import brute_force_orientations  # only on request: it loads fractions

    return brute_force_orientations(g)


def _cmd_colors(args) -> int:
    g = _load_graph(args.input)
    cmap = color_classes(g)
    payload = {
        "colors": [
            {
                "id": c.id,
                "edges": [[str(u), str(v)] for u, v in sorted(c.undirected)],
                "span": [str(v) for v in sorted(c.span)],
                "self_inverse": c.self_inverse,
            }
            for c in cmap.colors
        ]
    }
    print(_dump(payload))
    return 0


def _cmd_decompose(args) -> int:
    g = _load_graph(args.input)
    shuffle = random.Random(args.seed) if args.seed is not None else None
    tree = decomposition_tree(g, shuffle=shuffle)
    if args.dot:
        print(_tree_to_dot(tree))
    else:
        print(_tree_to_json(tree))
    return 0


def _cmd_multiplexes(args) -> int:
    g = _load_graph(args.input)
    tree = decomposition_tree(g)
    payload = {"multiplexes": [m.to_json_dict() for m in multiplex_partition(g, tree)]}
    print(_dump(payload))
    return 0


def _cmd_check(args) -> int:
    g = _load_graph(args.input)
    if args.oracle:
        verdict = len(_oracle_orientations(g)) > 0
    else:
        verdict = is_comparability(g)
    print(f"comparability: {'true' if verdict else 'false'}")
    return 0 if verdict else 1


def _cmd_count(args) -> int:
    g = _load_graph(args.input)
    if args.oracle:
        print(len(_oracle_orientations(g)))
    else:
        print(count_orientations(g))
    return 0


def _cmd_enumerate(args) -> int:
    g = _load_graph(args.input)
    if args.oracle:
        stream = islice(_oracle_orientations(g), args.limit)
    else:
        shuffle = random.Random(args.seed) if args.seed is not None else None
        stream = enumerate_orientations(g, limit=args.limit, shuffle=shuffle)
    for o in stream:
        print(_dump(o.to_json()))
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.input)
    try:
        pairs = json.loads(_read_input(args.orientation))
    except json.JSONDecodeError as exc:
        raise ParseError(f"orientation file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("orientation file is nested too deeply") from None
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pairs
    ):
        raise ParseError("orientation file must be a JSON list of [tail, head] pairs")
    try:
        _, verdict = _read_pairs(g, pairs)  # Orientation.from_pairs's checks, plus the verdict
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    print(f"transitive: {'true' if verdict else 'false'}")
    return 0 if verdict else 1


def _cmd_oracle_compare(args) -> int:
    from . import oracle

    g = _load_graph(args.input)
    if g.edge_count > oracle.MAX_ORACLE_EDGES or g.vertex_count > oracle.MAX_ORACLE_VERTICES:
        raise OracleScaleError(
            f"oracle comparison limited to {oracle.MAX_ORACLE_VERTICES} vertices"
            f" and {oracle.MAX_ORACLE_EDGES} edges"
        )
    truth = oracle.brute_force_orientations(g)
    count = count_orientations(g)
    fast = list(enumerate_orientations(g))

    def fail(check: str, detail) -> int:
        print(_dump({"check": check, "counterexample": detail}))
        return 2

    if count != len(truth):
        return fail("count", {"fast": str(count), "oracle": len(truth)})
    truth_set = set(truth)
    fast_set = set(fast)
    if fast_set != truth_set:
        return fail(
            "orientations",
            {
                "missing": min(map(Orientation.to_json, truth_set - fast_set), default=None),
                "extra": min(map(Orientation.to_json, fast_set - truth_set), default=None),
            },
        )
    verdict = is_comparability(g)
    if verdict != (len(truth) > 0):
        return fail("comparability", {"fast": verdict, "oracle": len(truth) > 0})
    tree_sets = {node.vertex_set for node in decomposition_tree(g).walk()}
    oracle_strong = oracle.brute_force_strong_modules(g)
    if tree_sets != oracle_strong:
        diff = tree_sets.symmetric_difference(oracle_strong)
        return fail("strong_modules", {"difference": sorted(sorted(map(str, s)) for s in diff)})
    print(
        f"agreement: {len(truth)} orientations,"
        f" {len(oracle_strong)} strong modules, comparability {str(verdict).lower()}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's 2 means an oracle mismatch here; subparsers inherit this
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _non_negative_int(text: str) -> int:
    if not (text.isascii() and text.isdecimal()):  # isdecimal alone takes other scripts' digits
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="transor",
        description="Decompose a graph, inspect forcing colors, and count or"
        " enumerate its transitive orientations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("input", help="graph file (edge list or DIMACS), or - for stdin")
        p.set_defaults(func=func)
        return p

    add("colors", _cmd_colors, help="list color classes with spans")
    p = add("decompose", _cmd_decompose, help="print the decomposition tree")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--seed", type=int, help="shuffle internal scan order (output must not change)")
    add("multiplexes", _cmd_multiplexes, help="print the maximal multiplex partition")
    p = add("check", _cmd_check, help="decide comparability (exit 0 yes, 1 no)")
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle")
    p = add("count", _cmd_count, help="count transitive orientations exactly")
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle")
    p = add("enumerate", _cmd_enumerate, help="stream orientations, one JSON line each")
    p.add_argument("--limit", type=_non_negative_int, help="stop after N orientations")
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle")
    p.add_argument("--seed", type=int, help="shuffle internal scan order (output must not change)")
    p = add("verify", _cmd_verify, help="check a stored orientation for transitivity")
    p.add_argument("--orientation", required=True, help="JSON file of [tail, head] pairs")
    add("oracle-compare", _cmd_oracle_compare, help="fast path vs oracle (exit 2 on mismatch)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except OracleScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65
    except BrokenPipeError:
        return 0
    except Exception as exc:
        # A failed self-check or a crash (RecursionError, MemoryError, a bug)
        # must never exit 1, which reads as a negative verdict.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


def entrypoint() -> None:
    if hasattr(sys, "set_int_max_str_digits"):  # counts pass Python 3.11+'s 4300-digit default
        sys.set_int_max_str_digits(0)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
