"""Exact linear combinations of generator normal forms.

Elements carry their graph and backend and stay canonical: terms sorted
by the monomial order, zero coefficients dropped, every monomial after
the backend's normal-form step.  A product passes the sum of its
factors' degrees through the backend's depth gate once, before any
work, then each monomial pair through ``compose``; nothing here depends
on which backend it is.

Where only the expectation of a product is read, ``expect_product``
joins the two factors' terms on their free-group images and never forms
the product; ``moments`` meets in the middle with it, folding powers
only up to half the order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import BackendMismatchError, DomainError
from .graphs import Graph, PathWord
from .operators import Backend, GeneratorSymbol, Monomial, compose, reduce_word
from .records import Record
from .scalars import ONE, Scalar

_ScalarLike = (Scalar, int, Fraction)


def _scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.of(x)
    raise TypeError(f"not a scalar: {x!r}")


class DiagonalElement(Record):
    """An element of the diagonal subalgebra: one scalar per vertex.

    Products, sums, and powers are pointwise; the diagonal is commutative.
    """

    graph: Graph
    coeffs: tuple[tuple[str, Scalar], ...]

    def __init__(self, graph: Graph, coeffs: tuple[tuple[str, Scalar], ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

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
        coerced = {v: _scalar(c) for v, c in dict(mapping).items()}
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
        return cls.make(graph, {v: _scalar(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, v: str) -> Scalar:
        for u, c in self.coeffs:
            if u == v:
                return c
        return Scalar()

    def support(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def __add__(self, other: "DiagonalElement") -> "DiagonalElement":
        if self.graph != other.graph:
            raise BackendMismatchError("diagonal sum over different graphs")
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, Scalar()) + c
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
            s = _scalar(other)
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

    def conjugate(self) -> "DiagonalElement":
        return DiagonalElement(
            self.graph, tuple((v, c.conjugate()) for v, c in self.coeffs)
        )

    def restrict(self, vertex_subset) -> "DiagonalElement":
        subset = set(vertex_subset)
        for v in subset:
            if v not in self.graph.vertices:
                raise DomainError(f"unknown vertex: {v}")
        return DiagonalElement(
            self.graph, tuple((v, c) for v, c in self.coeffs if v in subset)
        )

    def embed(self, backend: Backend) -> "AlgebraElement":
        return AlgebraElement.make(
            self.graph,
            backend,
            {Monomial.vertex(self.graph, v): c for v, c in self.coeffs},
        )

    def json_form(self) -> dict:
        return {"value": str(self), "coeffs": dict(self.coeffs)}

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*L[@{v}]" for v, c in self.coeffs)


class Support(Record):
    """Vertex and path words carrying nonzero coefficients."""

    vertex_support: tuple[str, ...]
    path_support: tuple[PathWord, ...]


class AlgebraElement(Record):
    """A finite linear combination of monomials under one backend."""

    graph: Graph
    backend: Backend
    terms: tuple[tuple[Monomial, Scalar], ...]

    def __init__(self, graph: Graph, backend: Backend, terms: tuple[tuple[Monomial, Scalar], ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "terms", terms)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash((self.graph, self.backend, self.terms))
        )

    def __hash__(self):
        return self._hash

    @classmethod
    def make(cls, graph: Graph, backend: Backend, term_map) -> "AlgebraElement":
        acc: dict[Monomial, Scalar] = {}
        for m, c in dict(term_map).items():
            c = _scalar(c)
            if c.is_zero:
                continue
            if m.graph != graph:
                raise BackendMismatchError("term monomial from a different graph")
            m = backend.normal_form(m)
            acc[m] = acc.get(m, Scalar()) + c
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
        m = reduce_word(backend, [GeneratorSymbol(word, starred)])
        if m is None:
            return cls.zero(graph, backend)
        return cls.make(graph, backend, {m: ONE})

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
            acc[m] = acc.get(m, Scalar()) + c
        return AlgebraElement.make(self.graph, self.backend, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(
            self.graph, self.backend, tuple((m, -c) for m, c in self.terms)
        )

    def scale(self, s) -> "AlgebraElement":
        s = _scalar(s)
        if s.is_zero:
            return AlgebraElement.zero(self.graph, self.backend)
        return AlgebraElement(
            self.graph, self.backend, tuple((m, c * s) for m, c in self.terms)
        )

    def _dress(self, d: DiagonalElement, side: str) -> "AlgebraElement":
        """The D_G-bimodule action: ``d * self`` with side "creation",
        ``self * d`` with side "annihilation".  Each term is scaled by d
        at the initial vertex of that side's path word."""
        if d.graph != self.graph:
            raise BackendMismatchError("diagonal from a different graph")
        acc = {}
        for m, c in self.terms:
            s = d.coeff(getattr(m, side).initial)
            if not s.is_zero:
                acc[m] = s * c
        return AlgebraElement.make(self.graph, self.backend, acc)

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
                    acc[m] = acc.get(m, Scalar()) + c1 * c2
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
                    acc[v] = acc.get(v, Scalar()) + c1 * c2
        return DiagonalElement.make(self.graph, acc)

    def moments(self, n: int) -> list[DiagonalElement]:
        """The moments E(a), ..., E(a^n), met in the middle.

        The powers up to ceil(n/2) are folded as ``power`` folds them, and
        each higher moment is the ``expect_product`` of two of them.  The
        depth must cover n times the degree before any power is formed.
        """
        if n < 1:
            raise DomainError("moments need n >= 1")
        self.backend.gate(n * self.degree)
        half = (n + 1) // 2
        powers = [self]
        while len(powers) < half:
            powers.append(powers[-1] * self)
        values = [p.expectation() for p in powers]
        for k in range(half + 1, n + 1):
            values.append(powers[k - half - 1].expect_product(powers[-1]))
        return values

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

    def support(self) -> Support:
        verts = []
        paths = set()
        for m, _ in self.terms:
            if m.is_vertex:
                verts.append(m.creation.initial)
            else:
                if not m.creation.is_vertex:
                    paths.add(m.creation)
                if not m.annihilation.is_vertex:
                    paths.add(m.annihilation)
        return Support(
            tuple(sorted(verts)), tuple(sorted(paths, key=lambda w: w.key()))
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{m.display()}" for m, c in self.terms)


class FaithfulnessReport(Record):
    """Outcome of probing E(a* a) = 0 => a = 0 on a sample list."""

    backend: str
    counterexamples: tuple[str, ...]

    @property
    def faithful_on_samples(self) -> bool:
        return not self.counterexamples


def faithfulness_probe(graph: Graph, backend: Backend, samples) -> FaithfulnessReport:
    """Evaluate E(a* a) for each sample and flag vanishing witnesses."""
    bad = []
    for a in samples:
        if a.adjoint().expect_product(a).is_zero and not a.is_zero:
            bad.append(str(a))
    return FaithfulnessReport(str(backend), tuple(bad))
