"""Directed multigraphs, admissible path words, and loop combinatorics.

A path word travels left to right: ``e1.e2`` starts at the initial vertex
of ``e1`` and ends at the final vertex of ``e2``.  Concatenation ``w1 w2``
is admissible exactly when ``w1`` ends where ``w2`` starts.  Vertex words
(length zero) act as units at their vertex.
"""

from __future__ import annotations

import re
from collections import Counter

from .errors import ArityBoundError, DomainError, GraphSyntaxError
from .records import Record

IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"
IDENT = re.compile(IDENT_PATTERN + r"\Z")
_SPACE = " \t\n\r\x0b\x0c"
_NAME = re.compile(r"\S+", re.ASCII)
_EDGE_LINE = re.compile(r"edge\s+({0})\s*:\s*({0})\s*->\s*({0})\Z".format(IDENT_PATTERN), re.ASCII)


class Edge(Record):
    id: str
    initial: str
    final: str

    @property
    def is_loop(self) -> bool:
        return self.initial == self.final


class Graph(Record):
    """Finite directed multigraph; parallel edges and loop edges allowed."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for v in self.vertices:
            if not IDENT.match(v):
                raise DomainError(f"bad vertex identifier: {v!r}")
            if v in seen:
                raise DomainError(f"duplicate identifier: {v}")
            seen.add(v)
        for e in self.edges:
            if not IDENT.match(e.id):
                raise DomainError(f"bad edge identifier: {e.id!r}")
            if e.id in seen:
                raise DomainError(f"duplicate identifier: {e.id}")
            seen.add(e.id)
            for v in (e.initial, e.final):
                if v not in self.vertices:
                    raise DomainError(f"edge {e.id} references undeclared vertex {v}")
        object.__setattr__(self, "_edge_map", {e.id: e for e in self.edges})
        # sole_exits: the edges that are the only edge out of their initial vertex
        out_degree = Counter(e.initial for e in self.edges)
        sole = frozenset(e.id for e in self.edges if out_degree[e.initial] == 1)
        object.__setattr__(self, "sole_exits", sole)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise DomainError(f"unknown edge: {edge_id}") from None

    def edges_from(self, vertex: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.initial == vertex)

    def summary(self) -> str:
        return f"{len(self.vertices)} vertices, {len(self.edges)} edges"


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Grammar: ``#`` starts a comment, one ``vertices:`` line lists vertex
    identifiers, and each ``edge <id>: <v1> -> <v2>`` line adds an edge.
    Identifiers match ``[A-Za-z_][A-Za-z0-9_]*`` and share one namespace.
    Lines end at ``\n`` only, and whitespace is ASCII whitespace.

    Raises:
        GraphSyntaxError: malformed line, duplicate identifier or
            undeclared vertex, with the line and the column of the fault.
    """
    vertices: list[str] | None = None
    edges: list[Edge] = []
    seen: set[str] = set()
    def declare(name: str, ln: int, col: int) -> None:
        if name in seen:
            raise GraphSyntaxError(f"duplicate identifier: {name}", ln, col)
        seen.add(name)
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(_SPACE)
        if not line:
            continue
        col0 = len(raw) - len(raw.lstrip(_SPACE)) + 1  # the column of line[0]
        if line.startswith("vertices:"):
            if vertices is not None:
                raise GraphSyntaxError("second vertices line", ln)
            vertices = []
            for m in _NAME.finditer(line, len("vertices:")):
                name = m.group()
                if not IDENT.match(name):
                    raise GraphSyntaxError(f"bad identifier {name!r}", ln, col0 + m.start())
                declare(name, ln, col0 + m.start())
                vertices.append(name)
        elif line.startswith("edge"):
            m = _EDGE_LINE.match(line)
            if not m:
                raise GraphSyntaxError("malformed edge line", ln)
            if vertices is None:
                raise GraphSyntaxError("edge line before the vertices line", ln)
            eid, v1, v2 = m.groups()
            declare(eid, ln, col0 + m.start(1))
            for k in (2, 3):
                if m[k] not in vertices:
                    raise GraphSyntaxError(
                        f"edge {eid} references undeclared vertex {m[k]}", ln, col0 + m.start(k)
                    )
            edges.append(Edge(eid, v1, v2))
        else:
            raise GraphSyntaxError(f"unrecognized line: {_NAME.match(line)[0]!r}", ln)
    if vertices is None:
        raise GraphSyntaxError("missing vertices line", 1)
    return Graph(tuple(vertices), tuple(edges))


class PathWord(Record):
    """An admissible path, or a vertex word when ``edges`` is empty."""

    graph: Graph
    edges: tuple[str, ...]
    initial: str
    final: str

    def __post_init__(self):
        g = self.graph
        if not self.edges:
            if self.initial != self.final or self.initial not in g.vertices:
                raise DomainError("vertex word must sit at one declared vertex")
        else:
            at = self.initial
            for eid in self.edges:
                e = g.edge(eid)
                if e.initial != at:
                    raise DomainError(
                        f"inadmissible step {eid}: starts at {e.initial}, not {at}"
                    )
                at = e.final
            if at != self.final:
                raise DomainError("final vertex does not match edge sequence")

    @classmethod
    def vertex(cls, graph: Graph, v: str) -> "PathWord":
        return cls(graph, (), v, v)

    @classmethod
    def from_edges(cls, graph: Graph, edge_ids) -> "PathWord":
        ids = tuple(edge_ids)
        if not ids:
            raise DomainError("from_edges needs at least one edge; use vertex()")
        first = graph.edge(ids[0])
        last = graph.edge(ids[-1])
        return cls(graph, ids, first.initial, last.final)

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    @property
    def is_loop(self) -> bool:
        return self.initial == self.final

    def drop_last_edge(self) -> "PathWord":
        if self.is_vertex:
            raise DomainError("vertex word has no edges to drop")
        if len(self.edges) == 1:
            return PathWord.vertex(self.graph, self.initial)
        cut = self.graph.edge(self.edges[-1]).initial
        return PathWord(self.graph, self.edges[:-1], self.initial, cut)

    def key(self):
        """Canonical sort key: vertices first, then length, then edge ids."""
        return (len(self.edges), self.edges, self.initial)

    def __str__(self) -> str:
        if self.is_vertex:
            return f"@{self.initial}"
        return ".".join(self.edges)

    def __repr__(self) -> str:
        return f"PathWord({self!s})"


def parse_word(graph: Graph, text: str) -> PathWord:
    """Parse ``@v`` as a vertex word or ``e1.e2`` as an edge path."""
    text = text.strip(_SPACE)
    if not text:
        raise DomainError("empty word")
    if text.startswith("@"):
        v = text[1:]
        if v not in graph.vertices:
            raise DomainError(f"unknown vertex: {v}")
        return PathWord.vertex(graph, v)
    return PathWord.from_edges(graph, text.split("."))


def concat(w1: PathWord, w2: PathWord) -> PathWord | None:
    """Path product, or None when the endpoints do not meet."""
    if w1.graph != w2.graph:
        raise DomainError("mixed-graph concatenation")
    if w1.final != w2.initial:
        return None
    if w1.is_vertex:
        return w2
    if w2.is_vertex:
        return w1
    return PathWord(w1.graph, w1.edges + w2.edges, w1.initial, w2.final)


def strip_prefix(prefix: PathWord, word: PathWord) -> PathWord | None:
    """Return u with word = prefix u, or None when prefix does not fit.

    A vertex prefix at the right vertex strips to the word itself; a word
    equal to the prefix strips to the vertex word at the shared final
    vertex.
    """
    if prefix.graph != word.graph:
        raise DomainError("mixed-graph prefix")
    if prefix.initial != word.initial:
        return None
    k = len(prefix.edges)
    if word.edges[:k] != prefix.edges:
        return None
    if k == 0:
        return word
    rest = word.edges[k:]
    if not rest:
        return PathWord.vertex(word.graph, word.final)
    return PathWord(word.graph, rest, prefix.final, word.final)


PATH_ENUMERATION_LIMIT = 1_000_000


def enumerate_paths(graph: Graph, max_len: int) -> list[PathWord]:
    """All words of length at most max_len: vertices first, then by length,
    then lexicographically by edge-id sequence.

    The words are counted first, level by level by end vertex.  A word of
    length n costs n + 1, and a total cost above ``PATH_ENUMERATION_LIMIT``
    raises ArityBoundError before any word is built."""
    if max_len < 0:
        raise DomainError("max_len must be nonnegative")
    ends, words, letters = Counter(graph.vertices), 0, 0
    for length in range(max_len + 1):
        level = sum(ends.values())
        words, letters = words + level, letters + level * length
        if words + letters > PATH_ENUMERATION_LIMIT:
            raise ArityBoundError(f"{words} words with {letters} letters up to length {length}"
                                  f" exceed the path enumeration limit {PATH_ENUMERATION_LIMIT}")
        step = Counter()
        for e in graph.edges:
            step[e.final] += ends[e.initial]
        ends = +step
        if not ends:
            break
    out = [PathWord.vertex(graph, v) for v in sorted(graph.vertices)]
    level = out[:]
    for _ in range(max_len):
        nxt = []
        for p in level:
            for e in graph.edges_from(p.final):
                nxt.append(PathWord(graph, p.edges + (e.id,), p.initial, e.final))
        nxt.sort(key=lambda w: w.edges)
        out.extend(nxt)
        level = nxt
        if not level:
            break
    return out


def primitive_root(word: PathWord) -> tuple[PathWord, int]:
    """Decompose a loop as root**power with the shortest loop root."""
    if word.is_vertex or not word.is_loop:
        raise DomainError("primitive root is defined for loops of positive length")
    n = len(word.edges)
    for d in range(1, n + 1):
        if n % d:
            continue
        if word.edges == word.edges[:d] * (n // d):
            return PathWord.from_edges(word.graph, word.edges[:d]), n // d
    raise AssertionError("unreachable: every word is its own period")


def diagram_distinct(w1: PathWord, w2: PathWord) -> bool:
    """Whether two paths have distinct diagrams.

    False exactly when the words are equal, or both are loops sharing one
    primitive root (a loop and its powers are never diagram-distinct).
    Rotated loops such as ``e.f`` and ``f.e`` count as distinct.
    """
    if w1.graph != w2.graph:
        raise DomainError("mixed-graph comparison")
    if w1.is_vertex or w2.is_vertex:
        raise DomainError("vertex words have no diagram")
    if w1 == w2:
        return False
    if w1.is_loop and w2.is_loop:
        return primitive_root(w1)[0] != primitive_root(w2)[0]
    return True


class EdgeClasses(Record):
    """Partition of the edge set into loop edges and the rest."""

    eloop: tuple[str, ...]
    eloop_c: tuple[str, ...]


def classify_edges(graph: Graph) -> EdgeClasses:
    return EdgeClasses(
        tuple(e.id for e in graph.edges if e.is_loop),
        tuple(e.id for e in graph.edges if not e.is_loop),
    )
