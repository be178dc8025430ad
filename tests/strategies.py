"""Hypothesis strategies for graphs, words, and small algebra elements."""

from fractions import Fraction

from hypothesis import strategies as st

from graphprob import AlgebraElement, Backend, Edge, Graph, Monomial, PathWord, enumerate_paths


@st.composite
def graphs(draw, max_vertices: int = 4, max_edges: int = 5, min_edges: int = 0):
    nv = draw(st.integers(1, max_vertices))
    vertices = tuple(f"v{i}" for i in range(1, nv + 1))
    ne = draw(st.integers(min_edges, max_edges))
    edges = []
    for i in range(ne):
        a = draw(st.sampled_from(vertices))
        b = draw(st.sampled_from(vertices))
        edges.append(Edge(f"e{i + 1}", a, b))
    return Graph(vertices, tuple(edges))


@st.composite
def words(draw, graph: Graph, max_len: int = 3, allow_vertex: bool = True):
    """An admissible word grown edge by edge; may stop early at a dead end."""
    start = draw(st.sampled_from(graph.vertices))
    target = draw(st.integers(0 if allow_vertex else 1, max_len))
    edges = []
    at = start
    for _ in range(target):
        out = graph.edges_from(at)
        if not out:
            break
        e = draw(st.sampled_from(out))
        edges.append(e.id)
        at = e.final
    if not edges:
        if not allow_vertex:
            return None
        return PathWord.vertex(graph, start)
    return PathWord.from_edges(graph, edges)


@st.composite
def generators(draw, graph: Graph, max_len: int = 2):
    """One letter L[w] or L*[w], as its one-sided monomial."""
    w = draw(words(graph, max_len=max_len))
    starred = draw(st.booleans())
    return Monomial.generator(w, starred)


def read_letter(m: Monomial) -> tuple[PathWord, bool]:
    """A one-sided monomial read as a letter: its side that is not a
    vertex word, and whether that is the annihilation side (L*[w]).  A
    vertex projection reads as its unstarred vertex word."""
    if m.annihilation.is_vertex:
        return m.creation, False
    return m.annihilation, True


@st.composite
def generator_words(draw, graph: Graph, max_symbols: int = 5, max_len: int = 2,
                    mirror: bool | None = None):
    """A composable generator word, as one-sided monomials: each one's
    range vertex (``initial`` of ``L[w]``, ``final`` of ``L*[w]``) is the
    vertex the one before it leaves from.  About half the words are
    mirrored as ``w w*``, so they are balanced; ``mirror`` True or False
    fixes that choice."""
    paths = enumerate_paths(graph, max_len)
    at = draw(st.sampled_from(graph.vertices))
    word = []
    for _ in range(draw(st.integers(1, max_symbols))):
        m = draw(st.sampled_from(
            [Monomial.generator(p) for p in paths if p.initial == at]
            + [Monomial.generator(p, True) for p in paths if p.final == at and not p.is_vertex]
        ))
        word.append(m)
        at = m.annihilation.initial
    if draw(st.booleans()) if mirror is None else mirror:
        word += [m.adjoint() for m in reversed(word)]
    return word


_coeffs = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
).filter(lambda q: q != 0)


@st.composite
def elements(draw, graph: Graph, backend: Backend, max_terms: int = 3, max_len: int = 2):
    nterms = draw(st.integers(1, max_terms))
    total = AlgebraElement.zero(graph, backend)
    for _ in range(nterms):
        w = draw(words(graph, max_len=max_len))
        starred = draw(st.booleans())
        c = draw(_coeffs)
        g = AlgebraElement.generator(graph, backend, w, starred=starred)
        total = total + g.scale(c)
    return total
