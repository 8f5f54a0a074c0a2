"""Print expected.json: the pinned answers of the CLI families.

    python3 perfbench/pin.py > perfbench/expected.json

For each family of prime-scale and cograph-scale, large and timed, this
runs ``decompose``, ``multiplexes`` and ``count`` once, under seed-0 vertex names, and records
the digests of the name-independent forms of the first two (see run.py) and
the count.  The pinned file was made at the commit that added the benchmark;
rerun it only on purpose, when an output is meant to change.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import gen  # noqa: E402

run.gen = gen


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out = {}
    work = Path(tempfile.mkdtemp(dir=run.ROOT))
    try:
        large = [f for table in (run.prime_graphs(), run.cograph_graphs()) for f, _ in table[0]]
        for family in large + run.prime_timed() + run.cograph_timed():
            label = gen.names(family.n, 0)
            graph = run.Input(family, label, work / f"{family.name}.edges")

            def cli(verb):
                return subprocess.run([sys.executable, "-c", run.LAUNCH, verb, str(graph.path)],
                                      env=env, capture_output=True, text=True, check=True).stdout

            tree = json.loads(cli("decompose"))
            mult = json.loads(cli("multiplexes"))
            out[family.name] = {
                "decompose": run.digest(run.canonical_tree(tree, graph.base_of)),
                "multiplexes": run.digest(run.canonical_multiplexes(mult, graph.base_of)),
                "count": cli("count").strip(),
            }
    finally:
        shutil.rmtree(work)
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
