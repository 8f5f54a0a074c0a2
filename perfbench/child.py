"""The benchmark's timed child; run.py starts it, one at a time.

    child.py corpus MANIFEST OUT SECONDS TRACE LIMIT

runs every verb's library calls in-process over the graphs listed in
MANIFEST, pass after pass, for SECONDS, and writes per-graph times and the
first pass's outputs to OUT.  LIMIT caps the orientations enumerated per
graph (0: all of them); with TRACE 1, traced and untraced passes alternate.

The program is imported from PYTHONPATH, which run.py points at the
checkout's ``src``.
"""
from __future__ import annotations

import json
import sys
import tracemalloc
from hashlib import sha256
from itertools import islice
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def _pipeline(paths, dumps, limit, outputs=None):
    """One pass over the corpus; returns per-graph stage times and output digests.

    ``dumps`` maps "tree", "multiplexes" and "orientation" to the JSON
    serialiser used for that output.
    """
    from transor.decomposition import decomposition_tree
    from transor.forcing import color_classes, is_comparability
    from transor.io import parse_graph
    from transor.multiplex import multiplex_partition
    from transor.orientation import count_orientations, enumerate_orientations

    times = []
    digests = []
    for path in paths:
        t0 = perf_counter()
        with open(path, encoding="utf-8") as fh:
            g = parse_graph(fh.read()).graph
        t1 = perf_counter()
        tree = decomposition_tree(g)
        tree_out = dumps["tree"](tree.to_json_dict())
        t2 = perf_counter()
        cmap = color_classes(g)
        mult_out = dumps["multiplexes"]({"multiplexes": [m.to_json_dict() for m in multiplex_partition(g, tree, cmap)]})
        t3 = perf_counter()
        verdict = is_comparability(g)
        t4 = perf_counter()
        count = count_orientations(g)
        t5 = perf_counter()
        lines = []
        first = last = None
        for o in islice(enumerate_orientations(g), limit):
            lines.append(dumps["orientation"](o.to_json()))
            last = perf_counter()
            if first is None:
                first = last
        t6 = perf_counter()
        times.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5,
                      None if first is None else first - t5,
                      len(lines), 0.0 if first is None else last - first))
        record = {"tree": tree_out, "multiplexes": mult_out, "check": verdict,
                  "count": str(count), "lines": lines}
        digests.append(sha256(json.dumps(record).encode()).hexdigest())
        if outputs is not None:
            outputs.append(record)
    return times, digests


def corpus(manifest: str, out: str, seconds: float, trace: bool, limit: int | None) -> int:
    """Run passes over the corpus for ``seconds``; with ``trace``, alternate
    untraced and traced passes and report both."""
    import transor.cli  # noqa: F401  (the same modules a verb process loads)

    paths = json.loads(Path(manifest).read_text())
    plain_dumps = json.dumps

    def dumps(obj):
        return plain_dumps(obj, separators=(",", ":"))

    plain = {kind: dumps for kind in ("tree", "multiplexes", "orientation")}
    tracer = spans.Tracer() if trace else None
    outputs: list = []
    first_digests = None
    mismatches = 0
    passes = {"plain": [], "traced": []}
    per_pass_trace = []
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(passes["plain"]) > len(passes["traced"])
        if traced:
            # raw spans are kept for the first traced pass only
            tracer.keep = 0 if passes["traced"] else 20000
            tracer.reset()
            tracer.install()
            pass_dumps = {kind: tracer.wrap(dumps, f"cli.{kind}_dumps") for kind in plain}
        else:
            pass_dumps = plain
        start = perf_counter()
        try:
            times, digests = _pipeline(paths, pass_dumps, limit, outputs if first_digests is None else None)
        finally:
            if traced:
                tracer.uninstall()
        elapsed = perf_counter() - start
        passes["traced" if traced else "plain"].append((elapsed, times))
        if traced:
            per_pass_trace.append(tracer.report())
        if first_digests is None:
            first_digests = digests
        else:
            mismatches += sum(a != b for a, b in zip(digests, first_digests))
        done = len(passes["plain"]) >= 3 and (not trace or len(passes["traced"]) >= 3)
        if done and perf_counter() >= deadline:
            break

    result = {
        "passes": len(passes["plain"]),
        "pass_s": [e for e, _ in passes["plain"]],
        "graphs": _per_graph_fastest(passes["plain"]),
        "mismatches": mismatches,
        "outputs": outputs,
    }
    if trace:
        result["traced_pass_s"] = [e for e, _ in passes["traced"]]
        result["trace"] = per_pass_trace
        peak = 0
        from transor.decomposition import decomposition_tree
        from transor.io import parse_graph

        shapes = []
        for path in paths:
            g = parse_graph(Path(path).read_text()).graph
            tracemalloc.start()
            tree = decomposition_tree(g)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            shapes.append(spans.structure(tree))
        result["tree_peak_bytes"] = peak
        result["structures"] = shapes
    Path(out).write_text(json.dumps(result))
    return 0


def _per_graph_fastest(runs):
    """For each graph, the smallest value over passes of each timing column."""
    out = []
    for i in range(len(runs[0][1])):
        rows = [times[i] for _, times in runs]
        cols = []
        for j in range(len(rows[0])):
            vals = [r[j] for r in rows if r[j] is not None]
            cols.append(min(vals) if vals else None)
        out.append(cols)
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "corpus":
        return corpus(argv[1], argv[2], float(argv[3]), argv[4] == "1", int(argv[5]) or None)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
