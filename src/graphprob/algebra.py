"""Exact linear combinations of generator normal forms.

Elements carry their graph and backend and stay canonical: terms sorted
by the monomial order, zero coefficients dropped, every monomial after
the backend's normal-form step.  A product passes the sum of its
factors' degrees through the backend's depth gate once, before any
work, then each monomial pair through ``compose``; nothing here depends
on which backend it is.

Where only the expectation of a product is read, ``expect_product``
joins the two factors' terms on their free-group images and never forms
the product.  ``MomentTable`` reads E(a_1 ... a_n) that way for
``moments`` and the brackets, joining two halves of the product, each
cut by ``visible`` to the terms that can still reach E.
"""

from __future__ import annotations

from functools import cached_property
from numbers import Rational

from .errors import BackendMismatchError, DomainError
from .graphs import Graph, PathWord
from .operators import Backend, Monomial, compose
from .records import Record
from .scalars import ONE, ZERO, Scalar

_ScalarLike = (Scalar, Rational)


class DiagonalElement(Record):
    """An element of the diagonal subalgebra: one scalar per vertex.

    Products, sums, and powers are pointwise; the diagonal is commutative.
    """

    graph: Graph
    coeffs: tuple[tuple[str, Scalar], ...]

    def __post_init__(self):
        last = None
        for v, c in self.coeffs:
            if v not in self.graph.vertices:
                raise DomainError(f"unknown vertex: {v}")
            if last is not None and v <= last:
                raise DomainError("diagonal coefficients must be sorted and unique")
            if c.is_zero:
                raise DomainError("diagonal coefficients must be nonzero")
            last = v

    @classmethod
    def make(cls, graph: Graph, mapping) -> "DiagonalElement":
        coerced = {v: Scalar.of(c) for v, c in dict(mapping).items()}
        items = tuple(
            (v, c) for v, c in sorted(coerced.items(), key=lambda vc: vc[0]) if not c.is_zero
        )
        return cls(graph, items)

    @classmethod
    def zero(cls, graph: Graph) -> "DiagonalElement":
        return cls(graph, ())

    @classmethod
    def unit(cls, graph: Graph) -> "DiagonalElement":
        return cls.make(graph, {v: ONE for v in graph.vertices})

    @classmethod
    def vertex_unit(cls, graph: Graph, v: str, coeff=ONE) -> "DiagonalElement":
        return cls.make(graph, {v: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, v: str) -> Scalar:
        for u, c in self.coeffs:
            if u == v:
                return c
        return ZERO

    def support(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def __add__(self, other: "DiagonalElement") -> "DiagonalElement":
        if self.graph != other.graph:
            raise BackendMismatchError("diagonal sum over different graphs")
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, ZERO) + c
        return DiagonalElement.make(self.graph, acc)

    def __sub__(self, other: "DiagonalElement") -> "DiagonalElement":
        return self + (-other)

    def __neg__(self) -> "DiagonalElement":
        return DiagonalElement(self.graph, tuple((v, -c) for v, c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, DiagonalElement):
            if self.graph != other.graph:
                raise BackendMismatchError("diagonal product over different graphs")
            return DiagonalElement.make(
                self.graph, {v: c * other.coeff(v) for v, c in self.coeffs}
            )
        if isinstance(other, AlgebraElement):
            return other._dress(self, "creation")
        if isinstance(other, _ScalarLike):
            s = Scalar.of(other)
            return DiagonalElement.make(
                self.graph, {v: c * s for v, c in self.coeffs}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _ScalarLike):
            return self * other
        return NotImplemented

    def power(self, k: int) -> "DiagonalElement":
        if k < 1:
            raise DomainError("pointwise power needs k >= 1")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def restrict(self, vertex_subset) -> "DiagonalElement":
        subset = set(vertex_subset)
        for v in subset:
            if v not in self.graph.vertices:
                raise DomainError(f"unknown vertex: {v}")
        return DiagonalElement(
            self.graph, tuple((v, c) for v, c in self.coeffs if v in subset)
        )

    def json_form(self) -> dict:
        return {"value": str(self), "coeffs": dict(self.coeffs)}

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*L[@{v}]" for v, c in self.coeffs)


class SeriesTerm(Record):
    """The diagonal value at one order of a moment or cumulant series."""

    order: int
    value: DiagonalElement

    def json_form(self) -> dict:
        return {"order": self.order, **self.value.json_form()}


class AlgebraElement(Record):
    """A finite linear combination of monomials under one backend."""

    graph: Graph
    backend: Backend
    terms: tuple[tuple[Monomial, Scalar], ...]

    @classmethod
    def make(cls, graph: Graph, backend: Backend, term_map) -> "AlgebraElement":
        acc: dict[Monomial, Scalar] = {}
        for m, c in dict(term_map).items():
            c = Scalar.of(c)
            if c.is_zero:
                continue
            if m.graph != graph:
                raise BackendMismatchError("term monomial from a different graph")
            m = backend.normal_form(m)
            acc[m] = acc.get(m, ZERO) + c
        terms = tuple(
            (m, c)
            for m, c in sorted(acc.items(), key=lambda mc: mc[0].sort_key())
            if not c.is_zero
        )
        return cls(graph, backend, terms)

    @classmethod
    def zero(cls, graph: Graph, backend: Backend) -> "AlgebraElement":
        return cls(graph, backend, ())

    @classmethod
    def identity(cls, graph: Graph, backend: Backend) -> "AlgebraElement":
        return cls.make(
            graph, backend, {Monomial.vertex(graph, v): ONE for v in graph.vertices}
        )

    @classmethod
    def vertex_projection(cls, graph: Graph, backend: Backend, v: str) -> "AlgebraElement":
        return cls.make(graph, backend, {Monomial.vertex(graph, v): ONE})

    @classmethod
    def generator(cls, graph, backend, word: PathWord, starred: bool = False) -> "AlgebraElement":
        return cls.make(graph, backend, {Monomial.generator(word, starred): ONE})

    @classmethod
    def symmetrized_generator(cls, graph, backend, word: PathWord) -> "AlgebraElement":
        """The self-adjoint combination L[w] + L*[w]."""
        return cls.generator(graph, backend, word) + cls.generator(
            graph, backend, word, starred=True
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def degree(self) -> int:
        """The largest term degree; 0 for the zero element."""
        return max((m.degree for m, _ in self.terms), default=0)

    @cached_property
    def image(self) -> tuple[tuple[str, int], ...] | None:
        """The reduced free-group word (``Monomial.letters``) that every
        term shares, or None when the terms do not share one or the
        element is zero.  Products multiply images (``free_product``), and
        diagonal dressing on either side keeps them."""
        if not self.terms or len({m.image for m, _ in self.terms}) > 1:
            return None
        return self.terms[0][0].letters

    @cached_property
    def annihilation_vertex(self) -> str | None:
        """The vertex v at which every term's annihilation word starts, or
        None when the terms start at different vertices or the element is
        zero.  With it, ``self * d`` is ``d(v) * self`` for every diagonal
        d (``_dress``): a right dressing only scales the element."""
        starts = {m.annihilation.initial for m, _ in self.terms}
        return starts.pop() if len(starts) == 1 else None

    def _check_compatible(self, other: "AlgebraElement"):
        if self.graph != other.graph:
            raise BackendMismatchError("elements live over different graphs")
        if self.backend != other.backend:
            raise BackendMismatchError(
                f"backend mismatch: {self.backend} vs {other.backend}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, ZERO) + c
        return AlgebraElement.make(self.graph, self.backend, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(
            self.graph, self.backend, tuple((m, -c) for m, c in self.terms)
        )

    def scale(self, s) -> "AlgebraElement":
        s = Scalar.of(s)
        if s.is_zero:
            return AlgebraElement.zero(self.graph, self.backend)
        return AlgebraElement(
            self.graph, self.backend, tuple((m, c * s) for m, c in self.terms)
        )

    def visible(self, side: str) -> "AlgebraElement":
        """The terms E can still see when this element is a left factor
        (side "creation") or a right factor (side "annihilation") of a
        product: those whose word on that side has only edges the backend
        cancels (``Backend.cancellable``).

        A left factor's creation word stays the prefix of every later
        creation word, and the only rewrite that shortens it, the
        axiomatic cancellation, eats it from the end; so a term with any
        other edge never reaches a vertex monomial.  The same holds for a
        right factor's annihilation word.  Hence ``(x * y).visible(s)``
        is ``(x.visible(s) * y).visible(s)`` for s "creation", likewise
        on the right, and ``E(x * y)`` is unchanged by either cut.
        """
        keep = self.backend.cancellable(self.graph)
        terms = tuple((m, c) for m, c in self.terms if keep.issuperset(getattr(m, side).edges))
        if len(terms) == len(self.terms):
            return self
        return AlgebraElement(self.graph, self.backend, terms)

    def _dress(self, d: DiagonalElement, side: str) -> "AlgebraElement":
        """The D_G-bimodule action: ``d * self`` with side "creation",
        ``self * d`` with side "annihilation".  Each term is scaled by d
        at the initial vertex of that side's path word.  The terms stay
        normal and sorted, and a product of nonzero scalars is nonzero,
        so the result needs no ``make``."""
        if d.graph != self.graph:
            raise BackendMismatchError("diagonal from a different graph")
        terms = []
        for m, c in self.terms:
            s = d.coeff(getattr(m, side).initial)
            if not s.is_zero:
                terms.append((m, s * c))
        return AlgebraElement(self.graph, self.backend, tuple(terms))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
            self.backend.gate(self.degree + other.degree)
            acc: dict[Monomial, Scalar] = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    m = compose(m1, m2)
                    if m is None:
                        continue
                    acc[m] = acc.get(m, ZERO) + c1 * c2
            return AlgebraElement.make(self.graph, self.backend, acc)
        if isinstance(other, DiagonalElement):
            return self._dress(other, "annihilation")
        if isinstance(other, _ScalarLike):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _ScalarLike):
            return self.scale(other)
        return NotImplemented

    def power(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise DomainError("negative powers are not defined")
        if k == 0:
            return AlgebraElement.identity(self.graph, self.backend)
        self.backend.gate(k * self.degree)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def expect_product(self, other: "AlgebraElement") -> DiagonalElement:
        """``(self * other).expectation()`` without forming the product.

        A vertex monomial has image 1 (``Monomial.image``), and the
        product preserves images, so a term of ``self`` with image
        (p', q') meets only the terms of ``other`` with image (q', p').
        The depth gate is the product's: the sum of the two degrees.
        """
        self._check_compatible(other)
        backend = self.backend
        backend.gate(self.degree + other.degree)
        by_image: dict = {}
        for m2, c2 in other.terms:
            by_image.setdefault(m2.image, []).append((m2, c2))
        acc: dict[str, Scalar] = {}
        for m1, c1 in self.terms:
            p, q = m1.image
            for m2, c2 in by_image.get((q, p), ()):
                m = compose(m1, m2)
                if m is None:
                    continue
                m = backend.normal_form(m)
                if m.is_vertex:
                    v = m.creation.initial
                    acc[v] = acc.get(v, ZERO) + c1 * c2
        return DiagonalElement.make(self.graph, acc)

    def moments(self, n: int) -> list[DiagonalElement]:
        """E(a), ..., E(a^n) from one ``MomentTable``, whose halves are
        powers, each one product from the next lower one.  The depth must
        cover n times the degree before any power is formed."""
        if n < 1:
            raise DomainError("moments need n >= 1")
        self.backend.gate(n * self.degree)
        table = MomentTable()
        return [table.moment((self,) * k) for k in range(1, n + 1)]

    def adjoint(self) -> "AlgebraElement":
        acc = {m.adjoint(): c.conjugate() for m, c in self.terms}
        return AlgebraElement.make(self.graph, self.backend, acc)

    def is_self_adjoint(self) -> bool:
        return self == self.adjoint()

    def expectation(self) -> DiagonalElement:
        """Compression onto the diagonal: keep the vertex-monomial terms.

        The same reading on both backends.  It equals the vertex-vector
        compression v -> <a xi_v, xi_v>, because only a vertex monomial
        fixes a vertex vector; the axiomatic backend has already turned
        L[e]L*[e] into P_v wherever e is the sole edge out of v.
        """
        acc = {}
        for m, c in self.terms:
            if m.is_vertex:
                acc[m.creation.initial] = c
        return DiagonalElement.make(self.graph, acc)

    def support(self) -> tuple[PathWord, ...]:
        """The path words on either side of the terms, sorted; the
        vertices are ``expectation().support()``."""
        paths = {w for m, _ in self.terms for w in (m.creation, m.annihilation) if not w.is_vertex}
        return tuple(sorted(paths, key=PathWord.key))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.terms)


class MomentTable:
    """E(a_1 ... a_n) per argument tuple, met in the middle: the product
    of the first n//2 arguments, cut to its visible creation words, is
    joined (``expect_product``) with the product of the rest, cut to its
    visible annihilation words.  Each half is one product from the next
    shorter half on its side, memoized like the moments, so tuples that
    share a prefix or a suffix share its half.  The caller gates the depth.
    """

    def __init__(self):
        self._moments: dict = {}
        self._halves: dict = {}

    def _half(self, args, side: str) -> AlgebraElement:
        """The product of ``args`` cut to the terms E sees on ``side``."""
        half = self._halves.get((args, side))
        if half is None:
            if len(args) == 1:
                half = args[0]
            elif side == "creation":
                half = self._half(args[:-1], side) * args[-1]
            else:
                half = args[0] * self._half(args[1:], side)
            half = self._halves[args, side] = half.visible(side)
        return half

    def moment(self, args) -> DiagonalElement:
        value = self._moments.get(args)
        if value is None:
            if len(args) == 1:
                value = args[0].expectation()
            else:
                cut = len(args) // 2
                value = self._half(args[:cut], "creation").expect_product(
                    self._half(args[cut:], "annihilation"))
            self._moments[args] = value
        return value


def faithfulness_probe(samples) -> tuple[str, ...]:
    """Probe E(a* a) = 0 => a = 0: the nonzero samples whose E(a* a)
    vanishes, as text; empty when the probe finds no counterexample."""
    return tuple(
        str(a) for a in samples if a.adjoint().expect_product(a).is_zero and not a.is_zero
    )
