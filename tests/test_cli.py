from __future__ import annotations

import json
import subprocess
import sys

import pytest

from transor import decomposition_tree
from transor.cli import main
from transor.io import parse_graph

from checks import threshold_graph

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


def test_decompose_seed_does_not_change_output(write, capsys):
    path = write("paw.edges", PAW)
    _, base, _ = run(capsys, "decompose", path)
    for seed in ("1", "2", "99"):
        _, seeded, _ = run(capsys, "decompose", "--seed", seed, path)
        assert seeded == base


def test_enumerate_seed_does_not_change_output(write, capsys):
    path = write("paw.edges", PAW)
    _, base, _ = run(capsys, "enumerate", path)
    _, seeded, _ = run(capsys, "enumerate", "--seed", "5", path)
    assert seeded == base


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


def test_oracle_compare_agreement(write, capsys):
    code, out, _ = run(capsys, "oracle-compare", write("paw.edges", PAW))
    assert code == 0 and out.startswith("agreement")


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


def test_duplicate_warning_goes_to_stderr(write, capsys):
    code, out, err = run(capsys, "count", write("dup.edges", "a b\na b\n"))
    assert code == 0 and out == "2\n"
    assert "1 duplicate edge line" in err


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
    import os

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
import transor, transor.cli, transor.oracle
print('numpy' in sys.modules)
transor.oracle.brute_force_orientations(transor.oracle.paw())
loaded = {name.partition('.')[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {'transor'}))
"""


def test_cli_start_up_does_not_import_numpy():
    # Modules loaded before the probe starts (site hooks) are not counted.
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False\n[]\n", proc.stdout + proc.stderr
