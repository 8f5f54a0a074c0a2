"""The transor benchmark: library timings per verb, a CLI output gate, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  One benchmark process, closed loop: it starts at most
one child process at a time.  Every workload times the verbs' library calls
in one child, pass after pass over its graphs (child.py).  Workloads:

* ``oracle-scale``: the acceptance corpus (9 fixtures, 156 six-vertex
  classes, 200 seeded random graphs), with full enumeration.
* ``prime-scale``: graphs whose tree is one prime node (paths, random
  graphs, random-poset comparability graphs).
* ``cograph-scale``: cographs, whose trees have no prime node (complete
  graphs, balanced cographs, threshold graphs).

Before timing, the two family workloads run one ``transor`` process per
(graph, verb) on larger graphs of the same families: those check the CLI's
output and give the peak RSS at scale.  The seed draws each input's vertex
names (see gen.py); every output is checked against answers known by
construction, the brute-force oracle or digests pinned in expected.json.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units come from BENCHMARK.json
(``end_to_end`` untraced, ``per_layer`` traced).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = "from transor.cli import entrypoint; entrypoint()"
OP_TIMEOUT = 60.0
SETUP_PROBES = 7
VERBS = ("decompose", "multiplexes", "check", "count")


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Input:
    """A family written to an edge-list file under the seed's vertex names."""

    def __init__(self, family, label: list[str], path: Path):
        self.family = family
        self.name = family.name
        self.path = path
        self.base_of = {token: i for i, token in enumerate(label)}
        path.write_text(gen.edge_list(family.n, family.edges, label))


@dataclass
class Run:
    """Result of one child process."""

    out: bytes
    code: int
    wall: float
    rss_mb: float
    timed_out: bool
    stderr: str


class Bench:
    def __init__(self, args, work: Path, spec: dict):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.work = work
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        # Hash order follows the seed, so a seed repeats exactly.
        self.env["PYTHONHASHSEED"] = str(args.seed % 4294967296)
        self.env.pop("PYTHONUNBUFFERED", None)
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.setup_walls: list[float] = []
        self.spawn(["-c", "import transor.cli"])  # compiles bytecode on a fresh checkout

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)

    # -- child processes -----------------------------------------------------

    def spawn(self, argv: list[str], *, timeout: float = OP_TIMEOUT) -> Run:
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                    stderr=err, env=self.env, cwd=ROOT)
            fired = threading.Event()

            def kill():
                fired.set()
                proc.kill()

            killer = threading.Timer(timeout, kill)
            killer.start()
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
            killer.join()
        return Run(out, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   fired.is_set(), err_path.read_text(errors="replace")[-500:])

    def setup_probe(self) -> None:
        """Time fresh interpreters running ``import transor.cli``; ``setup_s`` is the median of all."""
        for _ in range(SETUP_PROBES):
            self.setup_walls.append(self.spawn(["-c", "import transor.cli"]).wall)

    def import_times(self) -> tuple[float, float]:
        """``-X importtime``: seconds to import transor.cli, and numpy's share."""
        totals, numpys = [], []
        for _ in range(5):
            run = self.spawn(["-X", "importtime", "-c", "import transor.cli"])
            total = numpy = 0
            for _, cumulative, name in self._importtime():
                if not name.startswith(" ") and name.split(".")[0] == "transor":
                    total += cumulative
                if name.strip() == "numpy":
                    numpy += cumulative
            totals.append(total / 1e6)
            numpys.append(numpy / 1e6)
        return statistics.median(totals), statistics.median(numpys)

    def _importtime(self):
        """(self us, cumulative us, indented name) per line of the last child's stderr."""
        text = (self.work / "stderr.txt").read_text()
        for line in text.splitlines():
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            yield int(parts[0]), int(parts[1]), parts[2][1:]

    # -- result ----------------------------------------------------------------

    def result(self, metrics: dict) -> dict:
        kind = "per_layer" if self.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in self.spec[kind]}
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


# -- output checks ---------------------------------------------------------------


def canonical_tree(node, base_of) -> list:
    """A decompose tree under base vertex ids, independent of the vertex names."""
    if not node["children"]:
        return [node["kind"], base_of[node["vertices"][0]]]
    kids = sorted((canonical_tree(c, base_of) for c in node["children"]), key=_smallest)
    return [node["kind"], kids]


def _smallest(canon) -> int:
    return canon[1] if not isinstance(canon[1], list) else min(_smallest(c) for c in canon[1])


def tree_order_ok(node) -> bool:
    """The tree schema's ordering: vertices sorted, children by smallest vertex."""
    stack = [node]
    while stack:
        n = stack.pop()
        if n["vertices"] != sorted(n["vertices"]):
            return False
        if n["children"]:
            firsts = [c["vertices"][0] for c in n["children"]]
            if firsts != sorted(firsts):
                return False
            if sorted(v for c in n["children"] for v in c["vertices"]) != n["vertices"]:
                return False
        stack.extend(n["children"])
    return True


def canonical_multiplexes(payload, base_of) -> list:
    out = []
    for m in payload["multiplexes"]:
        edges = sorted(tuple(sorted((base_of[u], base_of[v]))) for u, v in m["edges"])
        out.append([m["rank"], len(m["colors"]), edges])
    return sorted(out, key=lambda m: m[2])


def digest(obj) -> str:
    return sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def transitive_orientation(graph: Input, pairs) -> bool:
    """Own check: each edge directed exactly once, and every x->y->z has x->z."""
    n = graph.family.n
    base_of = graph.base_of
    succ = [0] * n
    seen = set()
    for t, h in pairs:
        a, b = base_of.get(t), base_of.get(h)
        if a is None or b is None:
            return False
        key = (a, b) if a < b else (b, a)
        if key in seen:
            return False
        seen.add(key)
        succ[a] |= 1 << b
    if seen != graph.family.edge_set:
        return False
    for a in range(n):
        m = succ[a]
        while m:
            bit = m & -m
            if succ[bit.bit_length() - 1] & ~succ[a]:
                return False
            m ^= bit
    return True


def expected_count(bench: Bench, graph: Input) -> int:
    family = graph.family
    return family.count if family.count is not None else int(bench.expected[family.name]["count"])


def check_verb(bench: Bench, graph: Input, verb: str, text: str, limit: int) -> str | None:
    """Why a verb's stdout is wrong, or None."""
    family = graph.family
    if verb == "check":
        want = f"comparability: {'true' if family.comparability else 'false'}\n"
        return None if text == want else f"printed {text!r}"
    if verb == "count":
        want = f"{expected_count(bench, graph)}\n"
        return None if text == want else f"printed {text[:60]!r}"
    if verb == "decompose":
        tree = json.loads(text)
        if not tree_order_ok(tree):
            return "tree ordering"
        got = digest(canonical_tree(tree, graph.base_of))
        return None if got == bench.expected[family.name]["decompose"] else "tree digest"
    if verb == "multiplexes":
        got = digest(canonical_multiplexes(json.loads(text), graph.base_of))
        return None if got == bench.expected[family.name]["multiplexes"] else "multiplex digest"
    lines = text.splitlines()
    total = expected_count(bench, graph)
    if len(lines) != min(limit, total) or len(set(lines)) != len(lines):
        return f"{len(lines)} lines"
    orders = [json.loads(line) for line in lines]
    if not all(transitive_orientation(graph, pairs) for pairs in orders):
        return "not transitive"
    if family.order is not None and total <= limit:
        known = {frozenset((graph.base_of[t], graph.base_of[h]) for t, h in o) for o in orders}
        if frozenset(family.order) not in known:
            return "the order the graph was built from is missing"
    return None


def check_cli(bench: Bench, graph: Input, verb: str, limit: int, run: Run) -> str | None:
    """Why a ``transor`` process's exit code or output is wrong, or None."""
    if run.timed_out:
        return "timeout"
    want_code = 0 if verb != "check" or graph.family.comparability else 1
    if run.code != want_code:
        return f"exit code {run.code}, expected {want_code}: {run.stderr.strip()}"
    return check_verb(bench, graph, verb, run.out.decode(), limit)


def check_record(bench: Bench, graph: Input, record: dict, limit: int) -> str | None:
    """Why an in-process pass over one graph made other outputs than the verbs print, or None."""
    texts = {
        "decompose": record["tree"],
        "multiplexes": record["multiplexes"],
        "check": f"comparability: {'true' if record['check'] else 'false'}\n",
        "count": record["count"] + "\n",
        "enumerate": "".join(line + "\n" for line in record["lines"]),
    }
    for verb, text in texts.items():
        problem = check_verb(bench, graph, verb, text, limit)
        if problem:
            return f"{verb}: {problem}"
    return None


# -- workloads -------------------------------------------------------------------

# Large families, at about half the ROADMAP sizes: in set-up, one `transor`
# process per (graph, verb) checks the CLI's output and gives the peak RSS at
# scale.  Their times are not reported: one such process lasts 0.3-1.3 s, and
# on a shared two-core host a span that long averages over other tenants'
# load, so its run medians moved by 20-30 % between runs of the same code.
def prime_graphs():
    return [
        (gen.path(60), ("decompose", "count")),
        (gen.random_p10(120, 1), ("check",)),
        (gen.random_poset(100, Fraction(1, 16), 1), ("multiplexes", "enumerate")),
    ], 24


def cograph_graphs():
    return [
        (gen.complete(120), ("multiplexes", "enumerate")),
        (gen.balanced_cograph(7), ("decompose", "check")),
        (gen.threshold(120), ("count",)),
    ], 30


# Timed families: the same shapes with fewer vertices, run in-process pass
# after pass like the corpus.  One verb on one graph lasts 1-70 ms, short
# enough for each graph's fastest pass to find the machine unloaded.
def prime_timed():
    return [gen.path(16), gen.path(20), gen.path(24), gen.path(28),
            gen.random_p10(40, 1), gen.random_p10(50, 1),
            gen.random_poset(30, Fraction(1, 8), 1), gen.random_poset(36, Fraction(1, 10), 1),
            gen.random_poset(40, Fraction(1, 10), 1)]


def cograph_timed():
    return [gen.complete(12), gen.complete(16), gen.complete(20), gen.complete(24),
            gen.balanced_cograph(4), gen.balanced_cograph(5), gen.balanced_cograph(6),
            gen.threshold(20), gen.threshold(30), gen.threshold(40)]


def write_graphs(bench: Bench, families) -> list[Input]:
    graphs = []
    for i, family in enumerate(families):
        label = gen.names(family.n, (bench.seed << 8) | i)
        graphs.append(Input(family, label, bench.work / f"{family.name}.edges"))
    return graphs


def family_workload(bench: Bench, large, timed) -> dict:
    pairs, limit = large
    graphs = write_graphs(bench, [f for f, _ in pairs] + timed)
    for graph in graphs:
        if not graph.family.comparability and not has_odd_hole(graph.family):
            raise RuntimeError(f"{graph.name}: no induced 5-cycle, so its verdict is unknown")
    rss = 0.0
    for graph, (_, verbs) in zip(graphs, pairs):
        for verb in verbs:
            flags = ["--limit", str(limit)] if verb == "enumerate" else []
            run = bench.spawn(["-c", LAUNCH, verb, *flags, str(graph.path)])
            bench.attempted += 1
            try:
                problem = check_cli(bench, graph, verb, limit, run)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output ({exc!r})"
            if problem:
                bench.fail(f"{graph.name} {verb}: {problem}")
            rss = max(rss, run.rss_mb)
    timed_graphs = graphs[len(pairs):]
    return corpus_run(bench, [g.path for g in timed_graphs],
                      lambda i, record: check_record(bench, timed_graphs[i], record, limit), limit, rss)


def has_odd_hole(family) -> bool:
    """True when the graph has an induced 5-cycle, which no comparability graph has."""
    n = family.n
    adj = [0] * n
    for u, v in family.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for a in range(n):
        for b in bits(adj[a]):
            # a-b-c-d-e-a with no chords
            for c in bits(adj[b] & ~adj[a] & ~(1 << a)):
                for d in bits(adj[c] & ~adj[b] & ~adj[a] & ~(1 << b) & ~(1 << a)):
                    if adj[d] & adj[a] & ~adj[b] & ~adj[c] & ~((1 << b) | (1 << c)):
                        return True
    return False


def bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def layer_quantities(report: dict) -> dict:
    """Additive per-layer quantities of one traced pass."""
    own = {name: s for name, (_, s) in report["self"].items()}
    calls = {name: c for name, (c, _) in report["self"].items()}
    under = {key: s for key, (_, s) in report["self_by_parent"].items()}
    counters = report["counters"]
    q = {
        "io.parse_s": sum(s for name, s in own.items() if name.startswith("io.")),
        "graph.graph_builds": counters.get("graph.graph_builds", 0),
        "graph.induced_subgraph_calls": calls.get("graph.induced_subgraph", 0),
        "graph.induced_subgraph_s": own.get("graph.induced_subgraph", 0.0),
        "graph.complement_s": own.get("graph.complement", 0.0),
        "graph.components_s": own.get("graph.components", 0.0),
        "forcing.color_classes_calls": calls.get("forcing.color_classes", 0),
        "forcing.color_classes_s": own.get("forcing.color_classes", 0.0),
        "forcing.colors": counters.get("forcing.colors", 0),
        "forcing.is_comparability_s": own.get("forcing.is_comparability", 0.0),
        "decomposition.analyses": counters.get("decomposition.analyses", 0),
        "decomposition.partition_calls": calls.get("decomposition.partition", 0),
        "decomposition.partition_s": own.get("decomposition.partition", 0.0),
        "decomposition.tree_s": own.get("decomposition.tree", 0.0),
        "decomposition.quotient_s": own.get("decomposition.quotient", 0.0),
        "multiplex.partition_s": own.get("multiplex.partition", 0.0),
        "orientation.count_s": own.get("orientation.count", 0.0),
        "orientation.materialize_s": own.get("orientation.materialize", 0.0)
        + own.get("orientation.lift_plan", 0.0)
        + under.get("orientation.apply<orientation.materialize", 0.0),
        "orientation.emitted": counters.get("orientation.enumerate.items", 0),
        "orientation.items_s": own.get("orientation.enumerate", 0.0)
        + under.get("orientation.apply<orientation.enumerate", 0.0),
        "cli.tree_json_s": own.get("cli.tree_json", 0.0) + own.get("cli.tree_dumps", 0.0),
        "cli.orientation_json_s": own.get("cli.orientation_json", 0.0) + own.get("cli.orientation_dumps", 0.0),
    }
    for layer in spans.LAYERS:
        q[f"{layer}.self_s"] = sum(s for name, s in own.items() if name.split(".")[0] == layer)
    return q


def finish_layers(bench: Bench, q: dict, structures: list, peak_bytes: int, overhead: float) -> dict:
    metrics = dict(q)
    emitted = metrics["orientation.emitted"]
    items_s = metrics.pop("orientation.items_s")
    json_s = metrics.pop("cli.orientation_json_s")
    metrics["orientation.per_orientation_ms"] = 1000 * items_s / emitted if emitted else 0.0
    metrics["cli.orientation_json_ms"] = 1000 * json_s / emitted if emitted else 0.0
    for key in ("tree_depth", "largest_prime", "largest_series"):
        metrics[f"decomposition.{key}"] = max(s[key] for s in structures)
    for key in ("prime_nodes", "series_nodes", "parallel_nodes"):
        metrics[f"decomposition.{key}"] = sum(s[key] for s in structures)
    metrics["decomposition.tree_peak_mb"] = peak_bytes / 2**20
    metrics["cli.import_s"], metrics["cli.import_numpy_s"] = bench.import_times()
    metrics["trace.overhead_s"] = overhead
    return metrics


def write_spans(bench: Bench, spans_by_op: dict) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    name = f"{bench.workload}-seed{bench.seed}-spans.json"
    (out / name).write_text(json.dumps(spans_by_op))


def oracle_workload(bench: Bench) -> dict:
    from transor.graph import Graph as TGraph
    from transor.oracle import (brute_force_orientations, brute_force_strong_modules, fixtures,
                                random_family, six_vertex_graph_classes)

    bases = list(fixtures().values()) + six_vertex_graph_classes() + random_family(200)
    paths, truth = [], []
    for i, base in enumerate(bases):
        label = gen.names(base.vertex_count, (bench.seed << 10) | i)
        edges = [(base.index[u], base.index[v]) for u, v in base.sorted_edges()]
        path = bench.work / f"corpus{i}.edges"
        path.write_text(gen.edge_list(base.vertex_count, edges, label))
        g = TGraph(label, [(label[u], label[v]) for u, v in edges])
        orientations = {json.dumps(o.to_json(), separators=(",", ":")) for o in brute_force_orientations(g)}
        truth.append((orientations, brute_force_strong_modules(g)))
        paths.append(path)
    return corpus_run(bench, paths, lambda i, record: check_corpus(record, *truth[i]), None)


def corpus_run(bench: Bench, paths: list[Path], check, limit: int | None, rss_mb: float = 0.0) -> dict:
    """Run the in-process pipeline over ``paths`` pass after pass in one child, for
    ``--seconds``; ``check(i, record)`` says why graph i's outputs are wrong, or None."""
    manifest = bench.work / "manifest.json"
    manifest.write_text(json.dumps([str(p) for p in paths]))
    if not bench.trace:
        bench.setup_probe()

    out = bench.work / "corpus.json"
    run = bench.spawn([str(HERE / "child.py"), "corpus", str(manifest), str(out), str(bench.seconds),
                       "1" if bench.trace else "0", str(limit or 0)], timeout=bench.seconds + OP_TIMEOUT)
    if run.code != 0:
        raise RuntimeError(f"corpus child exited {run.code}: {run.stderr.strip()}")
    result = json.loads(out.read_text())
    bench.attempted += len(paths) * result["passes"]
    for i, record in enumerate(result["outputs"]):
        try:
            problem = check(i, record)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output ({exc!r})"
        if problem:
            bench.fail(f"{paths[i].stem}: {problem}")
    for _ in range(result["mismatches"]):
        bench.fail("output changed between passes")

    if bench.trace:
        q = [layer_quantities(report) for report in result["trace"]]
        medians = {key: statistics.median_low(x[key] for x in q) for key in q[0]}
        overhead = statistics.median(result["traced_pass_s"]) - statistics.median(result["pass_s"])
        write_spans(bench, {"first traced pass": result["trace"][0]["spans"]})
        return finish_layers(bench, medians, result["structures"], result["tree_peak_bytes"], overhead)

    bench.setup_probe()
    # each graph at its fastest pass
    per_graph = result["graphs"]
    metrics = {"setup_s": statistics.median(bench.setup_walls)}
    for column, verb in enumerate(VERBS, start=1):
        metrics[f"{verb}_s"] = geomean(row[column] for row in per_graph)
    metrics["first_orientation_s"] = geomean(row[6] for row in per_graph if row[6] is not None)
    streams = [row for row in per_graph if row[7] > 1]
    metrics["orientations_per_s"] = sum(row[7] - 1 for row in streams) / sum(row[8] for row in streams)
    metrics["graphs_per_s"] = len(paths) / sum(sum(row[:6]) for row in per_graph)
    metrics["peak_rss_mb"] = max(run.rss_mb, rss_mb)
    return metrics


def check_corpus(record: dict, orientations: set, strong: set) -> str | None:
    if record["count"] != str(len(orientations)):
        return f"count {record['count']}, oracle {len(orientations)}"
    if record["check"] != bool(orientations):
        return "comparability verdict"
    if len(record["lines"]) != len(orientations) or set(record["lines"]) != orientations:
        return "enumerated set differs from the oracle's"
    tree = json.loads(record["tree"])
    if not tree_order_ok(tree):
        return "tree ordering"
    nodes = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes.add(frozenset(node["vertices"]))
        stack.extend(node["children"])
    if nodes != {frozenset(map(str, s)) for s in strong}:
        return "tree nodes differ from the oracle's strong modules"
    edges = [tuple(e) for m in json.loads(record["multiplexes"])["multiplexes"] for e in m["edges"]]
    if len(edges) != len(set(edges)):
        return "multiplexes overlap"
    return None


WORKLOADS = {
    "oracle-scale": oracle_workload,
    "prime-scale": lambda bench: family_workload(bench, prime_graphs(), prime_timed()),
    "cograph-scale": lambda bench: family_workload(bench, cograph_graphs(), cograph_timed()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "transor" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'transor'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global gen, spans
    import gen
    import spans
    import transor

    if Path(transor.__file__).resolve().parent != (SRC / "transor").resolve():
        print(f"error: imported transor from {transor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, work, spec)
        metrics = WORKLOADS[args.workload](bench)
        result = bench.result(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for note in bench.notes:
        print(f"FAILED {note}", file=sys.stderr)
    error_rate = bench.failed / bench.attempted
    print(f"{args.workload} seed {args.seed}: {bench.attempted} operations, error_rate {error_rate:.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
