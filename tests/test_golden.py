"""Golden outputs: the exact stdout bytes and exit codes of every printing verb.

Each graph is written as an edge list and run through ``colors``,
``decompose``, ``decompose --dot``, ``multiplexes``, ``check``, ``count`` and
a full ``enumerate``; the sha256 of the transcript is pinned.  A refactor
that changes any byte, including the enumeration order, fails here.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from transor import Graph
from transor.cli import main
from transor.oracle import complete_graph, fixtures

from checks import balanced_cograph, random_poset_graph, threshold_graph

VERBS = (
    ["colors"],
    ["decompose"],
    ["decompose", "--dot"],
    ["multiplexes"],
    ["check"],
    ["count"],
    ["enumerate"],
)


def golden_graphs() -> dict[str, Graph]:
    graphs = dict(fixtures())
    graphs["prime_composite"] = Graph(
        ["a", "b1", "b2", "c", "d"],
        [("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c"), ("c", "d")],
    )
    graphs["k5"] = complete_graph(5)
    graphs["cograph16"] = balanced_cograph(4)
    graphs["threshold12"] = threshold_graph(12)
    graphs["poset10"] = random_poset_graph(10, Fraction(1, 3), 5)
    return graphs


def edge_list(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.sorted_edges()]
    touched = {x for e in g.edges for x in e}
    lines += [f"vertex {v}" for v in g.vertices if v not in touched]
    return "\n".join(lines) + "\n"


def transcript(path: str, capsys) -> bytes:
    blob = b""
    for argv in VERBS:
        code = main([*argv, path])
        out = capsys.readouterr().out
        blob += f"$ {' '.join(argv)} -> {code}\n{out}".encode()
    return blob


GOLDEN = {
    "paw": "827609dbec4100c35d158118643fee5201bc82ae0a5595a70730f851884e569e",
    "p4": "0a201c5a58181d17a5ec85a1be070b4fc791cb1a765a89dcb7cd2797d8a8a39c",
    "c4": "98b582e77b704cc6a2c9076272e2260ded381f2e793247db410323c228ba464b",
    "c5": "9a7c281ee936d1fa943c757f9166c1b49f7016da068bb2f78e3a25998ae4be67",
    "k3": "74270a424d741f2efc126e29433e194287e5b5462687175f40ea72e3379cc813",
    "k4": "5495a12665ba88bf1d206b19472b52f76d99cc77a4e8430d38c487ddc7b749bb",
    "claw": "b88543f4984849c38f388654d4ef7713d38b3ba828d4f4d80bc77560bc5fb502",
    "k2_join_2k1": "16aa7628bd4089bdead7a8ef8d33cf03bdc1ba8d12f2cdc681ae579ec62341bf",
    "two_k2": "243a73e27850cebac2208294754810d1de4ece309fae5a90a7f088e849615b85",
    "prime_composite": "a76c43966cd74ba0f7259dd111ac9c0f12b792a46feb6dea7bd63e42053ce696",
    "k5": "a552e521cb7a0055f861043d8f5887b1ce0d4764d693850065224b9b6845ac65",
    "cograph16": "384322f6de8c899fcca2f41cf6aa387b7f9a2609f9e185e49ae937b8217f7f51",
    "threshold12": "0a4b4d5de7c199b9836b34a4f81cf6013fc1bc8aa9e95605039ea6b273d43988",
    "poset10": "97e94b261a06c4c652351ee9f2513219f308f1ae86b627af969461028a34f1f6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_stdout_is_byte_identical_to_the_pinned_digest(name, tmp_path, capsys):
    path = tmp_path / f"{name}.edges"
    path.write_text(edge_list(golden_graphs()[name]))
    digest = hashlib.sha256(transcript(str(path), capsys)).hexdigest()
    assert digest == GOLDEN[name]
