from __future__ import annotations

import pytest

from transor import ParseError, parse_dimacs, parse_edge_list, parse_graph


def test_basic_edge_list():
    parsed = parse_edge_list("a b\nb c")
    g = parsed.graph
    assert set(g.vertices) == set("abc")
    assert set(g.edges) == {("a", "b"), ("b", "c")}
    assert parsed.duplicate_edges == 0


def test_duplicate_lines_collapse_with_count():
    parsed = parse_edge_list("a b\na b")
    assert parsed.graph == parse_edge_list("a b").graph
    assert parsed.duplicate_edges == 1
    assert parse_edge_list("a b\nb a").duplicate_edges == 1
    parsed = parse_dimacs("p edge 3 4\ne 1 2\ne 2 1\ne 1 2\ne 2 3\n")
    assert parsed.duplicate_edges == 2
    assert parsed.graph == parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n").graph


def test_self_loop_names_the_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("a a")
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("a b\n\nc c")


def test_malformed_line_is_an_error():
    with pytest.raises(ParseError):
        parse_edge_list("a b c")
    with pytest.raises(ParseError):
        parse_edge_list("lonely")


def test_comments_blanks_and_isolated_vertices():
    text = "# a graph\na b  # trailing note\n\nvertex z\n"
    g = parse_edge_list(text).graph
    assert set(g.vertices) == {"a", "b", "z"}
    assert g.edge_count == 1


def test_dimacs_round_trip():
    parsed = parse_dimacs("c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    g = parsed.graph
    assert g.vertices == (1, 2, 3, 4)
    assert set(g.edges) == {(1, 2), (2, 3), (3, 4)}


def test_dimacs_header_declares_isolated_vertices():
    g = parse_dimacs("p edge 5 1\ne 1 2\n").graph
    assert g.vertex_count == 5
    assert g.edge_count == 1


def test_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 3 1\ne 1 4\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_dimacs("p edge 3 1\ne 2 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 3\n")
    with pytest.raises(ParseError, match="missing 'p edge n m' header"):
        parse_dimacs("c a comment\n\n")
    for text, message in (
        ("p edge 2 1\np edge 2 1\ne 1 2\n", "duplicate problem line"),
        ("p edge 2 1\ne 1\n", "expected 'e u v'"),
        ("p edge 3 1\ne 1 2 3\n", "expected 'e u v'"),
        ("p edge 2 1\nx 1 2\n", "unrecognized line"),
    ):
        for parse in (parse_dimacs, parse_graph):
            with pytest.raises(ParseError, match=message):
                parse(text)


def test_parse_graph_dispatch():
    assert parse_graph("p edge 2 1\ne 1 2\n").graph.vertices == (1, 2)
    assert parse_graph("a b\n").graph.vertices == ("a", "b")
    assert parse_graph("c d\na b\n").graph.edge_count == 2
    assert parse_graph("p q\nq r\n").graph.edge_count == 2
    assert parse_graph("c d\np q\n").graph.edge_count == 2
    assert parse_graph("p q # first edge\nq r\n").graph.edge_count == 2
    assert parse_graph("p edge 2 1\ne 1 2\n").graph.edge_count == 1
    assert parse_graph("\n  \np edge 3 1\ne 1 3\n").graph.vertices == (1, 2, 3)  # leading blank lines
    assert parse_graph("\n\t\na b\n").graph.vertices == ("a", "b")


def test_parse_graph_of_empty_or_comment_only_text():
    # No line decides the dialect: a blank text is an empty edge list, and
    # one of 'c' lines is DIMACS comments with no header, not edges from c.
    for text in ("", "\n \n"):
        parsed = parse_graph(text)
        assert parsed.graph.vertex_count == 0 and parsed.duplicate_edges == 0
    for text in ("c\n", "c note\n", "c a comment\n", "\nc d\nc e\n"):
        with pytest.raises(ParseError, match="missing 'p edge n m' header"):
            parse_graph(text)
