"""Parsing of graph input files: plain edge lists and DIMACS-like files."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .graph import Graph


@dataclass(frozen=True)
class ParsedGraph:
    """A parsed graph plus the number of duplicate edge lines that were collapsed."""

    graph: Graph
    duplicate_edges: int


def parse_edge_list(text: str) -> ParsedGraph:
    """Parse the plain edge-list dialect.

    Each line holds two whitespace-separated vertex tokens.  '#' starts a
    comment, blank lines are allowed, and "vertex u" declares an isolated
    vertex.  Duplicate edge lines collapse to one edge and are counted.
    """
    vertices: set = set()
    edges: set = set()
    duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 2 and tokens[0] == "vertex":
            vertices.add(tokens[1])
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v' or 'vertex u', got {line!r}", line=lineno)
        u, v = tokens
        if u == v:
            raise ParseError(f"self-loop at line {lineno}", line=lineno)
        vertices.update((u, v))
        key = (u, v) if u < v else (v, u)
        if key in edges:
            duplicates += 1
        else:
            edges.add(key)
    return ParsedGraph(Graph(vertices, edges), duplicates)


def parse_dimacs(text: str) -> ParsedGraph:
    """Parse a DIMACS-like file: one "p edge n m" header, then "e u v" lines.

    Vertex tokens are the integers 1..n; the header declares them all, so
    isolated vertices need no extra lines.  'c' lines are comments.
    """
    n: int | None = None
    edges: set = set()
    duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"expected 'p edge n m', got {line!r}", line=lineno)
            try:
                n = int(tokens[2])
                int(tokens[3])
            except ValueError:
                raise ParseError(f"non-integer counts in {line!r}", line=lineno) from None
            if n < 0:
                raise ParseError("negative vertex count", line=lineno)
        elif tokens[0] == "e":
            if n is None:
                raise ParseError("edge line before the problem line", line=lineno)
            if len(tokens) != 3:
                raise ParseError(f"expected 'e u v', got {line!r}", line=lineno)
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"non-integer endpoint in {line!r}", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint outside 1..{n}", line=lineno)
            if u == v:
                raise ParseError(f"self-loop at line {lineno}", line=lineno)
            key = (u, v) if u < v else (v, u)
            if key in edges:
                duplicates += 1
            else:
                edges.add(key)
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if n is None:
        raise ParseError("missing 'p edge n m' header")
    return ParsedGraph(Graph(range(1, n + 1), edges), duplicates)


def parse_graph(text: str) -> ParsedGraph:
    """Parse either supported format, sniffing for a DIMACS problem line.

    The first line that is neither blank nor a 'c' comment decides: it is a
    DIMACS header when its first token is "p" and it does not hold exactly
    two tokens before any '#', since "p q" is an edge from vertex p.
    """
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["p"] and len(tokens) != 2:
            return parse_dimacs(text)
        if not line.startswith("c ") and line != "c":
            return parse_edge_list(text)
    return parse_edge_list(text)
