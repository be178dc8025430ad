"""Generator words and their two-sided normal forms.

A generator ``L[w]`` or ``L*[w]`` is the one-sided normal form
``L[w]L*[@final]`` or ``L[@final]L*[w]`` (``Monomial.generator``), so a
word over ``{L[w], L*[w]}`` is a product of normal forms.  It reduces to
one normal form ``L[p]L*[q]`` or to zero by one engine: ``compose``
multiplies normal forms as partial maps on the path space, and the
backend's normal-form step follows each product.  The axiomatic backend
there cancels a shared final edge, ``L[pe]L*[qe] -> L[p]L*[q]``, only
where ``e`` is the sole edge out of its initial vertex; the fock backend
never cancels, so ``L[c]L*[c]`` stays the projection onto paths with
prefix ``c``.  The fock depth changes no value: it is a gate that raises
DepthError on longer words.  ``fock_apply`` (one normal form) and
``apply_generator_word`` (a product of them) are the reference action on
basis vectors.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import DepthError, DomainError
from .graphs import Graph, PathWord, concat, strip_prefix
from .records import Record

AXIOMATIC = "axiomatic"
FOCK = "fock"


class Backend(Record):
    """Evaluation semantics tag; ``depth`` is the fock basis truncation.
    The kinds differ in two places: ``gate``, which only fock has, and
    ``cancellable``, the edges whose shared final occurrence
    ``normal_form`` cancels."""

    kind: str
    depth: int

    def __post_init__(self):
        if self.kind not in (AXIOMATIC, FOCK):
            raise DomainError(f"unknown backend kind: {self.kind!r}")
        if self.depth < 0:
            raise DomainError("depth must be nonnegative")
        if self.kind == AXIOMATIC and self.depth:
            raise DomainError("depth applies to the fock backend only")

    def covers(self, need: int) -> bool:
        """Whether work needing ``need`` basis levels fits; always on
        axiomatic, up to the depth on fock."""
        return not self.is_fock or need <= self.depth

    def gate(self, need: int) -> None:
        """Raise DepthError when fock work needs more than the depth."""
        if not self.covers(need):
            raise DepthError(need, self.depth)

    def cancellable(self, graph: Graph) -> frozenset[str]:
        """The edges whose shared final occurrence the normal form
        cancels: the sole exits of ``graph`` on axiomatic, none on fock.
        A word with any other edge keeps it through every later product,
        which is what ``AlgebraElement.visible`` relies on."""
        return frozenset() if self.is_fock else graph.sole_exits

    def normal_form(self, m: Monomial) -> Monomial:
        """Axiomatic cancels shared final edges; fock gates the longer side."""
        if self.is_fock:
            self.gate(max(m.creation.length, m.annihilation.length))
            return m
        return cancel_final_segment(m)

    @classmethod
    def axiomatic(cls) -> "Backend":
        return cls(AXIOMATIC, 0)

    @classmethod
    def fock(cls, depth: int) -> "Backend":
        return cls(FOCK, depth)

    @classmethod
    def of(cls, kind: str, depth: int) -> "Backend":
        """The backend of that kind, at ``depth`` if it is fock."""
        return cls(kind, depth if kind == FOCK else 0)

    @property
    def is_fock(self) -> bool:
        return self.kind == FOCK

    def __str__(self) -> str:
        if self.is_fock:
            return f"fock(depth={self.depth})"
        return self.kind

    def json_form(self) -> dict:
        return {"kind": self.kind, "depth": self.depth} if self.is_fock else {"kind": self.kind}


class Monomial(Record):
    """Normal form L[p]L*[q]; p and q must end at the same vertex.

    As a partial map on basis words (``fock_apply``) it strips the prefix
    q and glues the prefix p.  Creation operators are the case q a vertex
    word, annihilation operators the case p a vertex word, and vertex
    projections the case p = q a vertex word; ``generator`` builds the
    first two.
    """

    creation: PathWord
    annihilation: PathWord

    def __post_init__(self):
        if self.creation.graph != self.annihilation.graph:
            raise DomainError("mixed-graph monomial")
        if self.creation.final != self.annihilation.final:
            raise DomainError(
                "monomial sides must share their final vertex: "
                f"{self.creation} ends at {self.creation.final}, "
                f"{self.annihilation} at {self.annihilation.final}"
            )

    @classmethod
    def vertex(cls, graph: Graph, v: str) -> "Monomial":
        w = PathWord.vertex(graph, v)
        return cls(w, w)

    @classmethod
    def generator(cls, word: PathWord, starred: bool = False) -> "Monomial":
        """The one-sided monomial of L[w] or L*[w]: L[w]L*[@final] or
        L[@final]L*[w].  A vertex word gives its projection either way,
        so L*[@v] is L[@v]."""
        unit = PathWord.vertex(word.graph, word.final)
        return cls(unit, word) if starred else cls(word, unit)

    @property
    def graph(self) -> Graph:
        return self.creation.graph

    @property
    def is_vertex(self) -> bool:
        return self.creation.is_vertex and self.annihilation.is_vertex

    @property
    def degree(self) -> int:
        return self.creation.length + self.annihilation.length

    @property
    def image(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The reduced free-group image p'.q'^-1 of L[p]L*[q], as the
        edges (p', q') left after stripping the shared final edges.
        ``compose`` and the normal-form step preserve it, and a vertex
        monomial has image ((), ())."""
        p, q = self.creation.edges, self.annihilation.edges
        k = 0
        while k < len(p) and k < len(q) and p[-1 - k] == q[-1 - k]:
            k += 1
        return p[: len(p) - k], q[: len(q) - k]

    @property
    def letters(self) -> tuple[tuple[str, int], ...]:
        """The image as a reduced letter word: the edges of p' as
        ``(edge, 1)``, then those of q' in reverse as ``(edge, -1)``."""
        p, q = self.image
        return tuple((e, 1) for e in p) + tuple((e, -1) for e in reversed(q))

    def adjoint(self) -> "Monomial":
        return Monomial(self.annihilation, self.creation)

    def sort_key(self):
        return (self.creation.key(), self.annihilation.key())

    def __str__(self) -> str:
        if self.annihilation.is_vertex:
            return f"L[{self.creation}]"
        if self.creation.is_vertex:
            return f"L*[{self.annihilation}]"
        return f"L[{self.creation}]L*[{self.annihilation}]"


def compose(m1: Monomial, m2: Monomial) -> Monomial | None:
    """Product of two normal forms as partial maps; None is zero.

    Valid in both semantics: on basis vectors the composite strips q2,
    glues p2, strips q1, glues p1, and the middle strip-glue pair
    collapses into one prefix comparison between q1 and p2.
    """
    rest = strip_prefix(m1.annihilation, m2.creation)
    if rest is not None:
        return Monomial(concat(m1.creation, rest), m2.annihilation)
    over = strip_prefix(m2.creation, m1.annihilation)
    if over is not None:
        return Monomial(m1.creation, concat(m2.annihilation, over))
    return None


def free_product(u: tuple, v: tuple) -> tuple:
    """The reduced product of two reduced letter words."""
    k = 0
    while k < len(u) and k < len(v) and u[-1 - k] == (v[k][0], -v[k][1]):
        k += 1
    return u[: len(u) - k] + v[k:]


_AXIOMATIC = Backend.axiomatic()


def cancel_final_segment(m: Monomial) -> Monomial:
    """Axiomatic canonical form: drop shared final edges of both sides
    while each is one the axiomatic backend cancels, the sole edge out of
    its initial vertex.  Cancelling at a branching vertex would make the
    product depend on bracketing."""
    p, q = m.creation, m.annihilation
    sole = _AXIOMATIC.cancellable(m.graph)
    while p.edges and q.edges and p.edges[-1] == q.edges[-1] and p.edges[-1] in sole:
        p = p.drop_last_edge()
        q = q.drop_last_edge()
    if p is m.creation:
        return m
    return Monomial(p, q)


def required_depth(monomials: Iterable[Monomial]) -> int:
    """Minimal fock depth for exact evaluation on all vertex vectors."""
    return sum(m.degree for m in monomials)


def reduce_word(backend: Backend, monomials: Sequence[Monomial]) -> Monomial | None:
    """Normal form of a product of normal forms, or None for the zero operator.

    A generator word is the product of its letters' one-sided monomials
    (``Monomial.generator``).  ``compose`` folds over the monomials left
    to right, starting from the first, with the backend's normal-form
    step after each product.  On fock the result is the unique monomial
    inducing the product's action on basis vectors, and the depth must
    cover the total degree, otherwise DepthError.
    """
    monomials = list(monomials)
    if not monomials:
        raise DomainError("empty generator word has no single normal form")
    g = monomials[0].graph
    if any(m.graph != g for m in monomials[1:]):
        raise DomainError("mixed-graph generator word")
    backend.gate(required_depth(monomials))
    acc = monomials[0]
    for m in monomials[1:]:
        acc = compose(acc, m)
        if acc is None:
            return None
        acc = backend.normal_form(acc)
    return acc


def fock_apply(backend: Backend, m: Monomial, basis: PathWord) -> PathWord | None:
    """Action of L[p]L*[q] on one basis word; None is the zero vector.

    It strips the prefix q, then glues p in front, and gives zero when q
    is no prefix or the image is longer than the depth.  A basis vector
    beyond the depth is an error, not a zero.
    """
    if not backend.is_fock:
        raise DomainError("basis action requires the fock backend")
    backend.gate(basis.length)
    rest = strip_prefix(m.annihilation, basis)
    if rest is None:
        return None
    # rest starts where q ends, which is where p ends.
    image = concat(m.creation, rest)
    return image if image.length <= backend.depth else None


def apply_generator_word(
    backend: Backend, monomials: Iterable[Monomial], basis: PathWord
) -> PathWord | None:
    """Apply a product of monomials to a basis vector, rightmost first."""
    vec = basis
    for m in reversed(list(monomials)):
        vec = fock_apply(backend, m, vec)
        if vec is None:
            return None
    return vec
