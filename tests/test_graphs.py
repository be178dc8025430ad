import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprob import (
    DomainError,
    Graph,
    GraphSyntaxError,
    PathWord,
    concat,
    diagram_distinct,
    enumerate_paths,
    parse_graph,
    parse_word,
    primitive_root,
)
from graphprob import graphs as graph_module
from graphprob.errors import ArityBoundError
from graphprob.graphs import classify_edges, strip_prefix

from .strategies import graphs, words


# ---- parsing ----


def test_parse_fixture_shapes(graphs):
    assert graphs["c3"].summary() == "3 vertices, 3 edges"
    assert graphs["one_loop"].edges[0].is_loop
    assert not graphs["single_edge"].edges[0].is_loop
    assert graphs["loops_bridge"].summary() == "2 vertices, 6 edges"


def test_parse_comments_and_blanks():
    g = parse_graph("# c\n\nvertices: a b\n# mid\nedge e: a -> b\n")
    assert g.vertices == ("a", "b")
    assert g.edges[0].id == "e"


def test_parse_errors_carry_position():
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph("vertices: a\nedge e a -> a\n")
    assert exc.value.line == 2

    with pytest.raises(DomainError, match="line 3"):
        parse_graph("vertices: a\nedge e: a -> a\nedge e: a -> a\n")

    with pytest.raises(DomainError, match="line 2"):
        parse_graph("vertices: a\nedge e: a -> zz\n")

    with pytest.raises(GraphSyntaxError):
        parse_graph("edge e: a -> a\n")


def test_identifier_faults_carry_line_and_column():
    # The column is where the offending name starts.
    cases = (
        ("vertices: a a\n", 1, 13, "duplicate identifier: a"),
        ("vertices: a b\n  edge a: a -> b\n", 2, 8, "duplicate identifier: a"),
        ("vertices: a\nedge e: a -> a\nedge e: a -> a\n", 3, 6, "duplicate identifier: e"),
        ("vertices: a\nedge e: zz -> a\n", 2, 9, "undeclared vertex zz"),
        ("vertices: a\nedge e: a ->  zz  # c\n", 2, 15, "undeclared vertex zz"),
        # A no-break space separates nothing: it is part of the name.
        ("vertices: a\xa0b\n", 1, 11, r"bad identifier 'a\\xa0b'"),
    )
    for text, line, column, message in cases:
        with pytest.raises(GraphSyntaxError, match=message) as exc:
            parse_graph(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert exc.value.payload()["code"] == "graph-syntax"


def test_duplicate_vertex_rejected():
    with pytest.raises(DomainError):
        Graph(("a", "a"), ())


def test_bad_identifier_rejected():
    with pytest.raises(DomainError):
        parse_graph("vertices: 9a\n")
    # The column is where the bad name itself starts, not an earlier
    # occurrence of its text in the keyword or in a previous name.
    for text, column in (("vertices: a s:\n", 13), ("  vertices: a1 1\n", 16)):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_graph(text)
        assert (exc.value.line, exc.value.column) == (1, column)


def test_line_faults_carry_line_and_column():
    cases = (
        ("vertices: a\n\n  vertices: b\n", 3, 1, "second vertices line"),
        ("vertices: a\n  node b  # c\n", 2, 1, "unrecognized line: 'node'"),
        ("", 1, 1, "missing vertices line"),
        ("# only a comment\n\n", 1, 1, "missing vertices line"),
        # Whitespace is ASCII: a no-break space is part of the line's text.
        ("vertices: a\nedge e:\xa0a -> a\n", 2, 1, "malformed edge line"),
        ("vertices: a\n\xa0edge e: a -> a\n", 2, 1, "unrecognized line: '\\xa0edge'"),
    )
    for text, line, column, message in cases:
        with pytest.raises(GraphSyntaxError) as exc:
            parse_graph(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"line {line}, column {column}: {message}"


def test_lines_end_at_newline_only():
    # A NEL (U+0085) inside a comment does not end the line, so the rest
    # of the comment is no edge line.
    g = parse_graph("vertices: a # note\x85edge e: a -> a\n")
    assert g.vertices == ("a",) and g.edges == ()
    # Text after a U+2028 stays in its line's comment, so line numbers
    # count newlines only.
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph("# a\u2028b\nvertices: a\nvertices: b\n")
    assert exc.value.line == 3
    g = parse_graph("vertices: a b\r\nedge e: a -> b\r\n")
    assert g.vertices == ("a", "b") and g.edges[0].final == "b"


# ---- words ----


def test_vertex_and_path_words(c3):
    v = PathWord.vertex(c3, "v1")
    assert v.is_vertex and v.length == 0 and str(v) == "@v1"
    w = parse_word(c3, "e1.e2")
    assert (w.initial, w.final, w.length) == ("v1", "v3", 2)
    assert str(w) == "e1.e2"
    assert parse_word(c3, str(w)) == w


def test_inadmissible_word_rejected(c3):
    with pytest.raises(DomainError):
        parse_word(c3, "e1.e3")
    with pytest.raises(DomainError):
        parse_word(c3, "@zz")
    with pytest.raises(DomainError):
        parse_word(c3, "e9")


def test_concat_unit_law(c3):
    # a vertex word concatenates as a unit on either side
    e1 = parse_word(c3, "e1")
    assert concat(PathWord.vertex(c3, "v1"), e1) == e1
    assert concat(e1, PathWord.vertex(c3, "v2")) == e1
    assert concat(PathWord.vertex(c3, "v2"), e1) is None


def test_concat_admissibility(c3):
    e1, e2 = parse_word(c3, "e1"), parse_word(c3, "e2")
    assert concat(e1, e2) == parse_word(c3, "e1.e2")
    assert concat(e2, e1) is None


def test_concat_rejects_mixed_graphs(c3, one_loop):
    with pytest.raises(DomainError):
        concat(parse_word(c3, "e1"), parse_word(one_loop, "l"))


def test_strip_prefix(c3):
    w = parse_word(c3, "e1.e2")
    e1 = parse_word(c3, "e1")
    assert strip_prefix(e1, w) == parse_word(c3, "e2")
    assert strip_prefix(w, w) == PathWord.vertex(c3, "v3")
    assert strip_prefix(parse_word(c3, "e2"), w) is None
    assert strip_prefix(PathWord.vertex(c3, "v1"), w) == w
    assert strip_prefix(PathWord.vertex(c3, "v2"), w) is None


def test_drop_last_edge(c3):
    w = parse_word(c3, "e1.e2")
    assert w.drop_last_edge() == parse_word(c3, "e1")
    assert parse_word(c3, "e1").drop_last_edge() == PathWord.vertex(c3, "v1")
    with pytest.raises(DomainError):
        PathWord.vertex(c3, "v1").drop_last_edge()


# ---- enumeration ----


def test_enumerate_paths_counts(graphs):
    assert len(enumerate_paths(graphs["c3"], 3)) == 3 + 3 + 3 + 3
    assert len(enumerate_paths(graphs["one_loop"], 5)) == 1 + 5
    assert len(enumerate_paths(graphs["bouquet3"], 2)) == 1 + 3 + 9
    assert len(enumerate_paths(graphs["single_edge"], 4)) == 2 + 1


def test_enumerate_paths_order_is_stable(c3):
    out = enumerate_paths(c3, 2)
    assert [str(w) for w in out[:3]] == ["@v1", "@v2", "@v3"]
    assert out == enumerate_paths(c3, 2)
    assert all(out[i].length <= out[i + 1].length for i in range(len(out) - 1))


def test_enumerate_paths_rejects_negative(c3):
    with pytest.raises(DomainError):
        enumerate_paths(c3, -1)


def test_enumerate_paths_counts_before_it_builds(graphs, monkeypatch):
    # A word of length n costs n + 1.  bouquet3 has 1 + 3 + 9 words up to
    # length 2, costing 1 + 6 + 27 = 34, and 40 words with 102 letters up
    # to length 3.  Counting stops at the first empty level, so
    # single_edge takes any length; one_loop's cost grows as n^2 / 2.
    monkeypatch.setattr(graph_module, "PATH_ENUMERATION_LIMIT", 34)
    assert len(enumerate_paths(graphs["bouquet3"], 2)) == 13
    with pytest.raises(ArityBoundError) as err:
        enumerate_paths(graphs["bouquet3"], 3)
    assert str(err.value) == (
        "40 words with 102 letters up to length 3 exceed the path enumeration limit 34"
    )
    assert len(enumerate_paths(graphs["single_edge"], 10**9)) == 3
    assert len(enumerate_paths(graphs["one_loop"], 6)) == 7
    with pytest.raises(ArityBoundError) as err:
        enumerate_paths(graphs["one_loop"], 10**9)
    assert str(err.value) == (
        "8 words with 28 letters up to length 7 exceed the path enumeration limit 34"
    )


# ---- loop structure ----


def test_primitive_root(one_loop, c3):
    l = parse_word(one_loop, "l")
    ll = parse_word(one_loop, "l.l")
    assert primitive_root(l) == (l, 1)
    assert primitive_root(ll) == (l, 2)
    cyc = parse_word(c3, "e1.e2.e3")
    assert primitive_root(cyc) == (cyc, 1)


def test_diagram_distinct(graphs):
    one_loop = graphs["one_loop"]
    l = parse_word(one_loop, "l")
    assert not diagram_distinct(l, l)
    assert not diagram_distinct(l, parse_word(one_loop, "l.l"))

    par = graphs["parallel_edges"]
    assert diagram_distinct(parse_word(par, "e1"), parse_word(par, "e2"))

    bouquet = graphs["bouquet3"]
    ab = parse_word(bouquet, "l1.l2")
    ba = parse_word(bouquet, "l2.l1")
    # rotations of a loop are different words, hence distinct
    assert diagram_distinct(ab, ba)
    assert not diagram_distinct(ab, parse_word(bouquet, "l1.l2.l1.l2"))


def test_diagram_distinct_rejects_vertices(one_loop):
    with pytest.raises(DomainError):
        diagram_distinct(PathWord.vertex(one_loop, "v"), parse_word(one_loop, "l"))


def test_classify_edges(graphs):
    classes = classify_edges(graphs["lollipop"])
    assert classes.eloop == ("l",)
    assert classes.eloop_c == ("e",)


# ---- properties ----


@given(data=st.data())
@settings(max_examples=60)
def test_word_str_round_trip(data):
    g = data.draw(graphs())
    w = data.draw(words(g))
    assert parse_word(g, str(w)) == w


def graph_file(graph: Graph, pad: str = " ") -> str:
    """``graph`` in the graph-file format: tokens separated by ``pad``,
    a comment line first and a trailing comment on each edge line."""
    lines = ["# a drawn graph", "vertices:" + pad + pad.join(graph.vertices)]
    lines += [f"edge{pad}{e.id}{pad}:{pad}{e.initial}{pad}->{pad}{e.final}{pad}# {e.id}"
              for e in graph.edges]
    return "\n".join(lines) + "\n"


@given(g=graphs(), pad=st.sampled_from([" ", "  ", "\t", " \t "]))
@settings(max_examples=60)
def test_graph_file_round_trip(g, pad):
    assert parse_graph(graph_file(g, pad)) == g


@given(data=st.data())
@settings(max_examples=60)
def test_concat_associative_when_defined(data):
    g = data.draw(graphs(min_edges=1))
    w1 = data.draw(words(g))
    w2 = data.draw(words(g))
    w3 = data.draw(words(g))
    left = concat(w1, w2)
    right = concat(w2, w3)
    if left is not None and right is not None:
        assert concat(left, w3) == concat(w1, right)


@given(data=st.data(), k=st.integers(1, 4))
@settings(max_examples=60)
def test_primitive_root_of_powers(data, k):
    g = data.draw(graphs(min_edges=1))
    w = data.draw(words(g, max_len=2, allow_vertex=False))
    if w is None or not w.is_loop:
        return
    power = w
    for _ in range(k - 1):
        power = concat(power, w)
    root, mult = primitive_root(power)
    base_root, base_mult = primitive_root(w)
    assert root == base_root
    assert mult == base_mult * k
