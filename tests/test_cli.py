from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from transor import (
    Orientation,
    cli,
    color_classes,
    decomposition,
    decomposition_tree,
    enumerate_orientations,
    multiplex_partition,
    oracle,
    orientation,
)
from transor.decomposition import LEAF, PRIME, DecompositionNode
from transor.cli import main
from transor.io import parse_graph
from transor.oracle import acceptance_corpus, complete_graph, cycle_graph, implication_classes, path_graph

from checks import balanced_cograph, random_poset_graph, substitution_graph, threshold_graph

PAW = "a b\na c\na d\nb c\n"
C5 = "a b\nb c\nc d\nd e\ne a\n"
K3 = "a b\na c\nb c\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_paw(write, capsys):
    code, out, _ = run(capsys, "count", write("paw.edges", PAW))
    assert code == 0 and out == "4\n"


def test_check_verdicts_and_exit_codes(write, capsys):
    code, out, _ = run(capsys, "check", write("c5.edges", C5))
    assert code == 1 and out == "comparability: false\n"
    code, out, _ = run(capsys, "check", write("paw.edges", PAW))
    assert code == 0 and out == "comparability: true\n"


def test_enumerate_limit_one_k3(write, capsys):
    code, out, _ = run(capsys, "enumerate", "--limit", "1", write("k3.edges", K3))
    assert code == 0
    assert out == '[["a","b"],["a","c"],["b","c"]]\n'


def test_enumerate_line_count_matches_count(write, capsys):
    path = write("paw.edges", PAW)
    _, count_out, _ = run(capsys, "count", path)
    code, out, _ = run(capsys, "enumerate", path)
    assert code == 0
    assert len(out.splitlines()) == int(count_out)


def test_decompose_json_and_dot(write, capsys):
    path = write("paw.edges", PAW)
    code, out, _ = run(capsys, "decompose", path)
    tree = json.loads(out)
    assert tree["kind"] == "series"
    assert tree["vertices"] == ["a", "b", "c", "d"]
    code, dot, _ = run(capsys, "decompose", "--dot", path)
    assert code == 0
    assert dot.startswith("digraph") and "series rank=1" in dot


def test_dot_labels_are_quoted_strings(write, capsys):
    # Quotes and backslashes in vertex names are escaped, so every label is
    # one DOT quoted string whose unescaped leaf names are the vertices.
    names = ['a"b', "c", "d\\", "e\\n", 'f\\"']
    text = "".join(f"{u} {v}\n" for u, v in zip(names, names[1:]))
    code, dot, _ = run(capsys, "decompose", "--dot", write("names.edges", text))
    assert code == 0
    leaves = []
    for line in dot.splitlines()[2:-1]:
        if "->" in line:
            continue
        label = re.fullmatch(r'  n\d+ \[label="((?:[^"\\]|\\.)*)"\];', line)
        assert label, line
        kind, _, members = re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], label[1]).partition("\n")
        if kind == "leaf":
            leaves.append(members[1:-1])
    assert sorted(leaves) == sorted(names)


def _two_walk_dot(tree) -> str:
    # The DOT renderer as first written, kept as the reference: one walk
    # names each node by its path, a second writes each node's arcs.
    lines = ["digraph decomposition {", "  node [shape=box];"]
    names = {}
    for i, (path, node) in enumerate(tree.walk_with_paths()):
        names[path] = f"n{i}"
        label = node.kind
        if node.kind in ("series", "prime"):
            label += f" rank={len(node.children) - 1 if node.kind == 'series' else 1}"
        members = ",".join(str(v) for v in sorted(node.vertex_set))
        label += "\\n{" + members.replace("\\", "\\\\").replace('"', '\\"') + "}"
        lines.append(f'  n{i} [label="{label}"];')
    for path, node in tree.walk_with_paths():
        for i in range(len(node.children)):
            lines.append(f"  {names[path]} -> {names[path + (i,)]};")
    lines.append("}")
    return "\n".join(lines)


def test_dot_matches_the_two_walk_renderer(write, capsys):
    graphs = [g for _, g in acceptance_corpus() if g.vertex_count] + [threshold_graph(400)]  # depth 399
    for k, g in enumerate(graphs):
        text = "".join(f"vertex {v}\n" for v in g.vertices) + "".join(f"{u} {v}\n" for u, v in g.sorted_edges())
        code, dot, _ = run(capsys, "decompose", "--dot", write(f"g{k}.edges", text))
        assert code == 0
        assert dot == _two_walk_dot(decomposition_tree(parse_graph(text).graph)) + "\n", k


def test_count_prints_past_the_int_to_str_digit_limit(write):
    # 3300 disjoint K4s count 24**3300, 4555 digits: past the 4300 that
    # Python 3.11+ converts by default.
    text = "".join(f"{k}.{i} {k}.{j}\n" for k in range(3300) for i, j in combinations(range(4), 2))
    proc = subprocess.run(
        [sys.executable, "-m", "transor.cli", "count", write("k4s.edges", text)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    digits = proc.stdout.rstrip("\n")
    assert len(digits) == 4555 and digits.isdecimal()
    value = 0
    for i in range(0, len(digits), 1000):  # int() also refuses one string past the limit
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == 24**3300


def _seed_inputs(write) -> list[tuple[str, bool]]:
    # Edge-list paths, each with whether its tree has a prime node, the only
    # place a seed is used: the paw is a cograph, P6 is one prime node, and
    # the substitution graph nests prime nodes three deep.
    def edges_file(name, g):
        return write(name, "".join(f"vertex {v}\n" for v in g.vertices) + "".join(f"{u} {v}\n" for u, v in g.sorted_edges()))

    return [
        (write("paw.edges", PAW), False),
        (edges_file("p6.edges", path_graph(6)), True),
        (edges_file("nested.edges", substitution_graph(500, 1)[0]), True),
    ]


def _seeds_reaching_prime_splits(monkeypatch, splitter: str) -> list:
    # The shuffle each call of the prime splitter gets (its last argument).
    # ``decompose`` refines prime nodes, and ``enumerate``, which labels the
    # topmost ones, splits them by color.
    seen = []
    real = getattr(decomposition, splitter)
    monkeypatch.setattr(decomposition, splitter, lambda *args: seen.append(args[-1]) or real(*args))
    return seen


def test_decompose_seed_does_not_change_output(write, capsys, monkeypatch):
    seen = _seeds_reaching_prime_splits(monkeypatch, "_prime_parts")
    for path, prime in _seed_inputs(write):
        _, base, _ = run(capsys, "decompose", path)
        for seed in ("1", "2", "99"):
            seen.clear()
            _, seeded, _ = run(capsys, "decompose", "--seed", seed, path)
            assert seeded == base
            assert bool(seen) == prime and all(isinstance(s, random.Random) for s in seen)


def test_enumerate_seed_does_not_change_output(write, capsys, monkeypatch):
    seen = _seeds_reaching_prime_splits(monkeypatch, "_color_parts")
    for path, prime in _seed_inputs(write):
        limit = ("--limit", "3") if prime else ()
        _, base, _ = run(capsys, "enumerate", *limit, path)
        seen.clear()
        _, seeded, _ = run(capsys, "enumerate", "--seed", "5", *limit, path)
        assert seeded == base != ""
        assert bool(seen) == prime and all(isinstance(s, random.Random) for s in seen)


def test_multiplexes_json(write, capsys):
    code, out, _ = run(capsys, "multiplexes", write("paw.edges", PAW))
    data = json.loads(out)
    assert [m["rank"] for m in data["multiplexes"]] == [1, 1]
    assert data["multiplexes"][0]["edges"] == [["a", "b"], ["a", "c"], ["a", "d"]]


def test_colors_json(write, capsys):
    code, out, _ = run(capsys, "colors", write("paw.edges", PAW))
    data = json.loads(out)
    assert len(data["colors"]) == 2
    assert data["colors"][0]["span"] == ["a", "b", "c", "d"]
    assert data["colors"][1]["edges"] == [["b", "c"]]


def _edge_text(g) -> str:
    return "".join(f"vertex {v}\n" for v in g.vertices) + "".join(f"{u} {v}\n" for u, v in g.sorted_edges())


def _colors_by_definition(g) -> list:
    # The ``colors`` payload from the implication classes themselves: a
    # color's forward half is the class of its smallest directed edge, and
    # the colors are numbered by that edge.
    forward = {}
    for a in implication_classes(g):
        first = min(a | {(h, t) for t, h in a})
        if first in a:
            forward[first] = a
    return [
        {
            "id": i,
            "edges": [[str(u), str(v)] for u, v in sorted({(t, h) if t < h else (h, t) for t, h in forward[k]})],
            "span": [str(v) for v in sorted({v for e in forward[k] for v in e})],
            "self_inverse": all((h, t) in forward[k] for t, h in forward[k]),
        }
        for i, k in enumerate(sorted(forward))
    ]


def test_colors_and_multiplexes_print_the_decoded_fields_past_oracle_scale(write, capsys):
    # The verbs write from mask blocks and code runs; their bytes are those
    # of the decoded colors and the sorted edge sets, and the colors those
    # of the implication classes.
    graphs = [path_graph(4), cycle_graph(5), complete_graph(24), threshold_graph(40), balanced_cograph(6)]
    graphs += [random_poset_graph(40, Fraction(1, 10), 1), threshold_graph(120), balanced_cograph(7)]
    for i, base in enumerate([parse_graph(PAW).graph] + graphs):
        text = _edge_text(base)
        g = parse_graph(text).graph
        path = write(f"g{i}.edges", text)
        _, out, _ = run(capsys, "colors", path)
        payload = [
            {
                "id": c.id,
                "edges": [[str(u), str(v)] for u, v in sorted(c.undirected)],
                "span": [str(v) for v in sorted(c.span)],
                "self_inverse": c.self_inverse,
            }
            for c in color_classes(g).colors
        ]
        assert payload == _colors_by_definition(g)
        assert out == json.dumps({"colors": payload}, separators=(",", ":")) + "\n"
        _, out, _ = run(capsys, "multiplexes", path)
        parts = multiplex_partition(g, decomposition_tree(g))
        assert [m.to_json_dict()["edges"] for m in parts] == [[[str(u), str(v)] for u, v in sorted(m.edges)] for m in parts]
        written = [{"node_path": list(m.node_path), "rank": m.rank, "colors": sorted(m.colors),
                    "edges": [[str(u), str(v)] for u, v in sorted(m.edges)]} for m in parts]
        assert out == json.dumps({"multiplexes": written}, separators=(",", ":")) + "\n"


def test_verify_verdicts(write, capsys):
    graph = write("paw.edges", PAW)
    good = write("good.json", '[["a","b"],["a","c"],["a","d"],["b","c"]]')
    code, out, _ = run(capsys, "verify", "--orientation", good, graph)
    assert code == 0 and out == "transitive: true\n"
    bad = write("bad.json", '[["a","b"],["c","a"],["a","d"],["b","c"]]')
    code, out, _ = run(capsys, "verify", "--orientation", bad, graph)
    assert code == 1 and out == "transitive: false\n"
    malformed = write("broken.json", '[["a","z"]]')
    code, _, err = run(capsys, "verify", "--orientation", malformed, graph)
    assert code == 64 and "error" in err


def test_verify_refuses_a_repeated_pair(write, capsys):
    graph = write("paw.edges", PAW)
    repeated = write("repeated.json", '[["a","b"],["a","b"],["a","c"],["a","d"],["b","c"]]')
    code, out, err = run(capsys, "verify", "--orientation", repeated, graph)
    assert (code, out) == (64, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "twice" in err


def test_verify_runs_the_witness_once(write, capsys, monkeypatch):
    calls = []
    witness = orientation._witness

    def counted(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(orientation, "_witness", counted)
    graph = write("paw.edges", PAW)
    good = write("good.json", '[["a","b"],["a","c"],["a","d"],["b","c"]]')
    code, out, _ = run(capsys, "verify", "--orientation", good, graph)
    assert (code, out, len(calls)) == (0, "transitive: true\n", 1)


def test_oracle_compare_agreement(write, capsys):
    code, out, _ = run(capsys, "oracle-compare", write("paw.edges", PAW))
    assert code == 0 and out.startswith("agreement")


DIAMOND = "a b\nb c\nc d\nd a\na c\n"  # C4 with the chord ac: 6 orientations


def _flip_ab(g, **kwargs):
    # The fast stream with the edge ab reversed in every orientation: it
    # misses some of the true orientations and adds non-transitive ones.
    for o in enumerate_orientations(g, **kwargs):
        yield Orientation(frozenset((h, t) if {t, h} == {"a", "b"} else (t, h) for t, h in o.directed))


def _paw_as_one_prime_node(g):
    return DecompositionNode(frozenset(g.vertices), PRIME, tuple(DecompositionNode(frozenset((v,)), LEAF, ()) for v in g.vertices))


def test_oracle_compare_reports_each_disagreement(write, capsys, monkeypatch):
    # Each fast-path answer that the oracle contradicts exits 2 with one
    # JSON line naming the check and a counterexample.
    paw, diamond = write("paw.edges", PAW), write("diamond.edges", DIAMOND)
    g = parse_graph(DIAMOND).graph
    truth, fast = set(oracle.brute_force_orientations(g)), set(_flip_ab(g))
    missing, extra = min(map(Orientation.to_json, truth - fast)), min(map(Orientation.to_json, fast - truth))
    assert len(truth - fast) > 1 and len(fast - truth) > 1
    cases = [
        ("count_orientations", lambda g: 5, paw, {"check": "count", "counterexample": {"fast": "5", "oracle": 4}}),
        ("enumerate_orientations", _flip_ab, diamond,
         {"check": "orientations", "counterexample": {"missing": missing, "extra": extra}}),
        ("is_comparability", lambda g: False, paw, {"check": "comparability", "counterexample": {"fast": False, "oracle": True}}),
        ("decomposition_tree", _paw_as_one_prime_node, paw,
         {"check": "strong_modules", "counterexample": {"difference": [["b", "c"], ["b", "c", "d"]]}}),
    ]
    for name, fake, path, report in cases:
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, fake)
            code, out, err = run(capsys, "oracle-compare", path)
        assert (code, err, out.count("\n")) == (2, "", 1), name
        assert json.loads(out) == report


def test_oracle_compare_reports_do_not_follow_string_hashing(write):
    # The least missing and extra orientations, and the strong modules in
    # sorted order, are the same under any PYTHONHASHSEED.
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "import test_cli\n"
        "from transor import cli\n"
        "cli.enumerate_orientations = test_cli._flip_ab\n"
        "sys.exit(cli.main(['oracle-compare', sys.argv[1]]))\n"
    )
    argv = [sys.executable, "-c", script, write("diamond.edges", DIAMOND), os.path.dirname(os.path.abspath(__file__))]
    outputs = set()
    for seed in ("0", "1"):
        proc = subprocess.run(argv, capture_output=True, env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 2 and proc.stderr == b""
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "pairs, message",
    [
        ('[["a","b"]', "orientation file is not valid JSON"),
        ('{"a": "b"}', "orientation file must be a JSON list of [tail, head] pairs"),
        ('[["a","b","c"]]', "orientation file must be a JSON list of [tail, head] pairs"),
        ('["ab"]', "orientation file must be a JSON list of [tail, head] pairs"),
        ('[["b","d"],["a","b"],["a","c"],["a","d"]]', "['b', 'd'] is not an edge of the graph"),
    ],
)
def test_a_malformed_orientation_file_exits_64_with_one_error_line(write, capsys, pairs, message):
    code, out, err = run(capsys, "verify", "--orientation", write("o.json", pairs), write("paw.edges", PAW))
    assert (code, out) == (64, "") and err.startswith(f"error: {message}") and err.count("\n") == 1


def test_usage_errors_exit_64_not_the_mismatch_code(write, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-compare", "--bogus", write("paw.edges", PAW)])
    assert exc.value.code == 64
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_negative_limit_is_a_usage_error_on_both_paths(write, capsys):
    path = write("k3.edges", K3)
    for oracle in ([], ["--oracle"]):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--limit", "-1", *oracle, path])
        assert exc.value.code == 64
        assert "non-negative integer" in capsys.readouterr().err
        code, out, _ = run(capsys, "enumerate", "--limit", "0", *oracle, path)
        assert code == 0 and out == ""


def test_numerals_are_ascii_digits_only(tmp_path, capsys):
    # --limit and every DIMACS count and endpoint: a sign, a digit separator
    # or another script's digits (U+0663 is ARABIC-INDIC DIGIT THREE) exit 64.
    path = tmp_path / "k3.edges"
    path.write_text(K3, encoding="utf-8")
    for limit in ("\u0663", "+3", "1_0"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--limit", limit, str(path)])
        assert exc.value.code == 64
        assert "non-negative integer" in capsys.readouterr().err
    for text in (
        "p edge 1_0 0\n",
        "p edge \u0663 1\n",
        "p edge 3 +1\ne 1 2\n",
        "p edge 3 1\ne +1 2\n",
        "p edge 3 1\ne 1 \u0662\n",
        "p edge -1 0\n",
    ):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "count", str(path))
        assert (code, out) == (64, "") and err.startswith("error: "), text


def test_oracle_compare_refuses_large_input(write, capsys):
    lines = [f"v{i} v{j}" for i in range(8) for j in range(i + 1, 8)]
    code, _, err = run(capsys, "oracle-compare", write("k8.edges", "\n".join(lines)))
    assert code == 65 and "error" in err


def test_oracle_flag_on_count_and_check(write, capsys):
    path = write("paw.edges", PAW)
    code, out, _ = run(capsys, "count", "--oracle", path)
    assert code == 0 and out == "4\n"
    code, out, _ = run(capsys, "check", "--oracle", write("c5.edges", C5))
    assert code == 1 and out == "comparability: false\n"


def test_parse_errors_exit_64(write, capsys):
    code, _, err = run(capsys, "count", write("bad.edges", "a a\n"))
    assert code == 64 and "line 1" in err
    code, _, err = run(capsys, "count", write("empty.edges", "# nothing\n"))
    assert code == 64
    code, _, err = run(capsys, "count", str(write("x", "")) + ".missing")
    assert code == 64
    for text in (
        "p edge 2 1\np edge 2 1\ne 1 2\n",  # a second problem line
        "p edge 2 1\ne 1\n",  # an edge line of two tokens
        "p edge 3 1\ne 1 2 3\n",  # an edge line of four tokens
        "p edge 2 1\nx 1 2\n",  # an unrecognized line
        "c note\n",  # only 'c' lines: DIMACS comments with no header
        "c a comment\n",
        "c\n",
        "",  # no vertices
        "\n  \n",
    ):
        code, out, err = run(capsys, "count", write("bad.txt", text))
        assert (code, out) == (64, "") and err.startswith("error: ") and err.count("\n") == 1, text


def test_duplicate_warning_goes_to_stderr(write, capsys):
    code, out, err = run(capsys, "count", write("dup.edges", "a b\na b\n"))
    assert code == 0 and out == "2\n"
    assert err == "warning: 1 duplicate edge line collapsed\n"
    code, out, err = run(capsys, "count", write("dup.col", "p edge 2 2\ne 1 2\ne 2 1\n"))
    assert code == 0 and out == "2\n"
    assert err == "warning: 1 duplicate edge line collapsed\n"
    code, out, err = run(capsys, "count", write("dups.edges", "a b\nb a\na b\n"))
    assert code == 0 and err == "warning: 2 duplicate edge lines collapsed\n"


def test_input_that_is_not_utf8_exits_64(tmp_path, write, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"\xff b\n")
    code, out, err = run(capsys, "count", str(bad))
    assert code == 64 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL")}
    for env in ({"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}):
        proc = subprocess.run(
            [sys.executable, "-m", "transor.cli", "count", "-"],
            input=b"\xff b\n",
            capture_output=True,
            env=dict(base, **env),
        )
        assert proc.returncode == 64 and proc.stdout == b"", env
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1, env
    utf16 = tmp_path / "o.json"
    utf16.write_bytes('[["a","b"]]'.encode("utf-16"))
    code, _, err = run(capsys, "verify", "--orientation", str(utf16), write("ab.edges", "a b\n"))
    assert code == 64 and err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_orientation_json_exits_64(write, capsys):
    deep = write("deep.json", "[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "verify", "--orientation", deep, write("ab.edges", "a b\n"))
    assert code == 64 and out == "" and err == "error: orientation file is nested too deeply\n"


def test_dimacs_input(write, capsys):
    code, out, _ = run(capsys, "count", write("g.col", "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"))
    assert code == 0 and out == "2\n"


def test_empty_graph_is_rejected_at_the_cli(write, capsys):
    code, _, err = run(capsys, "count", write("empty.col", "p edge 0 0\n"))
    assert code == 64 and "no vertices" in err


def test_verify_against_dimacs_input(write, capsys):
    graph = write("g.col", "p edge 3 2\ne 1 2\ne 2 3\n")
    orientation = write("o.json", '[["1","2"],["3","2"]]')
    code, out, _ = run(capsys, "verify", "--orientation", orientation, graph)
    assert code == 0 and out == "transitive: true\n"


def test_enumerate_non_comparability_is_empty_not_error(write, capsys):
    code, out, _ = run(capsys, "enumerate", write("c5.edges", C5))
    assert code == 0 and out == ""


def test_byte_identical_reruns(write, capsys):
    path = write("k3.edges", K3)
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "enumerate", path)
        outputs.add(out)
    assert len(outputs) == 1


def test_byte_identical_across_processes_and_hash_seeds(write):
    # String-hash randomization must never leak into any output.
    path = write("paw.edges", PAW)
    outputs = set()
    for hashseed in ("0", "1", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        blob = b""
        for argv in (
            ["decompose", path],
            ["multiplexes", path],
            ["colors", path],
            ["enumerate", path],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "transor.cli", *argv],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            blob += proc.stdout
        outputs.add(blob)
    assert len(outputs) == 1


def test_enumerate_bytes_do_not_follow_the_slot_layout(write):
    # The lift plan lays its slots out in tree order, not in the sorted
    # order of the output, and a process's string hashing must not reach the
    # printed pairs: the bytes agree under two hash seeds.
    # A 64-vertex cograph with string names: 1344 edges, composite children.
    g = balanced_cograph(6)
    path = write("cograph64.edges", "".join(f"v{u} v{w}\n" for u, w in g.sorted_edges()))
    outputs = set()
    for hashseed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "transor.cli", "enumerate", "--limit", "5", path],
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=hashseed),
        )
        assert proc.returncode == 0 and proc.stdout.count(b"\n") == 5
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_stdin_and_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "transor.cli"],
        input=PAW,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 64  # usage error: no verb given
    proc = subprocess.run(
        [sys.executable, "-c", "from transor.cli import entrypoint; entrypoint()", "count", "-"],
        input=PAW,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


def test_crash_exits_70_not_a_verdict(write):
    # A tree builder that recurses without end stands in for any crash: it
    # must exit 70 with one line on stderr, never 1 ("false").
    path = write("paw.edges", PAW)
    script = (
        "import sys, transor.cli as cli\n"
        "def endless(*args, **kwargs):\n"
        "    return endless(*args, **kwargs)\n"
        "cli.decomposition_tree = endless\n"
        "sys.exit(cli.main(['decompose', sys.argv[1]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, path], capture_output=True, text=True)
    assert proc.returncode == 70
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: RecursionError")
    assert len(proc.stderr.splitlines()) == 1


def test_decompose_prints_a_tree_deeper_than_the_recursion_limit(write, capsys):
    # A threshold graph's tree is a chain of depth n - 1, and its JSON nests
    # two levels per tree level: far past what json.dumps can recurse into.
    n = 600
    text = "".join(f"{u} {v}\n" for u, v in threshold_graph(n).sorted_edges())
    code, out, err = run(capsys, "decompose", write("threshold.edges", text))
    assert code == 0 and err == ""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * n)  # json.loads and dict == recurse too
    try:
        assert json.loads(out) == decomposition_tree(parse_graph(text).graph).to_json_dict()
    finally:
        sys.setrecursionlimit(limit)


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import transor, transor.cli
new = set(sys.modules) - before
print('numpy' in sys.modules, 'transor.oracle' in new, 'fractions' in new)
import transor.oracle
transor.oracle.brute_force_orientations(transor.oracle.paw())
loaded = {name.partition('.')[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {'transor'}))
"""


def test_cli_start_up_does_not_import_numpy():
    # Modules loaded before the probe starts (site hooks) are not counted.
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False False False\n[]\n", proc.stdout + proc.stderr
