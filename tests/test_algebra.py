import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprob import (
    AlgebraElement,
    Backend,
    BackendMismatchError,
    DepthError,
    DiagonalElement,
    DomainError,
    Monomial,
    PathWord,
    Scalar,
    enumerate_paths,
    faithfulness_probe,
    parse_word,
)

from graphprob.algebra import MomentTable
from graphprob.operators import compose, free_product
from graphprob.records import to_json

from .conftest import FIXTURE_NAMES, load_fixture
from .strategies import elements, graphs

AX = Backend.axiomatic()


def fock(depth=6):
    return Backend.fock(depth)


# ---- diagonal elements ----


def test_diagonal_basics(c3):
    d = DiagonalElement.make(c3, {"v1": 2, "v3": Fraction(1, 2)})
    assert d.coeff("v1") == Scalar.of(2)
    assert d.coeff("v2").is_zero
    assert d.support() == ("v1", "v3")
    assert str(d) == "2*L[@v1] + 1/2*L[@v3]"
    assert str(DiagonalElement.zero(c3)) == "0"


def test_diagonal_pointwise_ring(c3):
    d1 = DiagonalElement.make(c3, {"v1": 2, "v2": 3})
    d2 = DiagonalElement.make(c3, {"v1": Fraction(1, 2), "v3": 5})
    assert (d1 * d2).support() == ("v1",)
    assert (d1 * d2).coeff("v1") == Scalar.of(1)
    assert d1 * d2 == d2 * d1
    assert (d1 + d2).coeff("v1") == Scalar.of(Fraction(5, 2))
    assert (d1 - d1).is_zero
    unit = DiagonalElement.unit(c3)
    assert d1 * unit == d1
    assert d1.power(2) == d1 * d1


def test_diagonal_rejects_unknown_vertex(c3):
    with pytest.raises(DomainError):
        DiagonalElement.make(c3, {"zz": 1})


def test_diagonal_restrict_and_json(c3):
    d = DiagonalElement.make(c3, {"v1": 1, "v2": 2})
    assert d.restrict(("v2",)).support() == ("v2",)
    one = {"re": "1/1", "im": "0/1"}
    assert to_json(d) == {
        "value": "1*L[@v1] + 2*L[@v2]",
        "coeffs": {"v1": one, "v2": {"re": "2/1", "im": "0/1"}},
    }


# ---- algebra elements ----


def test_identity_and_projections(c3):
    for b in (AX, fock(4)):
        one = AlgebraElement.identity(c3, b)
        p = AlgebraElement.vertex_projection(c3, b, "v1")
        assert one * p == p and p * one == p
        assert p * p == p
        assert p.adjoint() == p
        e1 = AlgebraElement.generator(c3, b, parse_word(c3, "e1"))
        assert one * e1 == e1 and e1 * one == e1


def test_axiomatic_make_cancels_final_segments(single_edge):
    e = parse_word(single_edge, "e")
    a = AlgebraElement.make(single_edge, AX, {Monomial(e, e): 1})
    assert a == AlgebraElement.vertex_projection(single_edge, AX, "v1")
    b = AlgebraElement.make(single_edge, fock(2), {Monomial(e, e): 1})
    assert b != AlgebraElement.vertex_projection(single_edge, fock(2), "v1")


def test_fock_make_depth_guard(one_loop):
    ll = parse_word(one_loop, "l.l")
    v = PathWord.vertex(one_loop, "v")
    with pytest.raises(DepthError):
        AlgebraElement.make(one_loop, fock(1), {Monomial(ll, v): 1})


def test_mul_depth_strictness(one_loop):
    l = parse_word(one_loop, "l")
    a = AlgebraElement.generator(one_loop, fock(2), l)
    assert not (a * a).is_zero
    with pytest.raises(DepthError):
        a * a * a


def test_backend_mixing_rejected(one_loop):
    l = parse_word(one_loop, "l")
    a = AlgebraElement.generator(one_loop, AX, l)
    b = AlgebraElement.generator(one_loop, fock(2), l)
    with pytest.raises(BackendMismatchError):
        a + b
    with pytest.raises(BackendMismatchError):
        a * b


def test_adjoint_antihomomorphism(c3):
    e1 = parse_word(c3, "e1")
    e2 = parse_word(c3, "e2")
    for b in (AX, fock(4)):
        x = AlgebraElement.generator(c3, b, e1)
        y = AlgebraElement.generator(c3, b, e2)
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()
        assert x.adjoint().adjoint() == x


def test_power_zero_is_identity(one_loop):
    a = AlgebraElement.generator(one_loop, AX, parse_word(one_loop, "l"))
    assert a.power(0) == AlgebraElement.identity(one_loop, AX)
    with pytest.raises(DomainError):
        a.power(-1)


def test_str_is_sorted_and_stable(one_loop):
    a = AlgebraElement.symmetrized_generator(one_loop, AX, parse_word(one_loop, "l"))
    assert str(a) == "1*L*[l] + 1*L[l]"
    assert str(AlgebraElement.zero(one_loop, AX)) == "0"


def test_scalar_coefficient_forms(one_loop):
    l = parse_word(one_loop, "l")
    a = AlgebraElement.generator(one_loop, AX, l).scale(Scalar.of(0, 1))
    assert str(a) == "1i*L[l]"
    b = AlgebraElement.generator(one_loop, AX, l).scale(Fraction(-1, 2))
    assert str(b) == "-1/2*L[l]"


# ---- expectation and support ----


def test_expectation_extracts_vertex_terms(single_edge):
    e = parse_word(single_edge, "e")
    for b in (AX, fock(4)):
        le = AlgebraElement.generator(single_edge, b, e)
        assert le.expectation().is_zero
        assert (le.adjoint() * le).expectation() == DiagonalElement.make(
            single_edge, {"v2": 1}
        )
    # the divergent direction: vertex under axiomatic, invisible under fock
    le_ax = AlgebraElement.generator(single_edge, AX, e)
    assert (le_ax * le_ax.adjoint()).expectation() == DiagonalElement.make(
        single_edge, {"v1": 1}
    )
    le_fk = AlgebraElement.generator(single_edge, fock(4), e)
    assert (le_fk * le_fk.adjoint()).expectation().is_zero


def test_expectation_is_identity_on_diagonal(c3):
    d = DiagonalElement.make(c3, {"v1": Fraction(3, 7), "v2": -2})
    for b in (AX, fock(3)):
        a = AlgebraElement.make(c3, b, {Monomial.vertex(c3, v): c for v, c in d.coeffs})
        assert a.expectation() == d


def test_support_sets(lollipop):
    l = parse_word(lollipop, "l")
    a = AlgebraElement.generator(lollipop, AX, l) + AlgebraElement.vertex_projection(
        lollipop, AX, "v2"
    ).scale(2)
    assert a.support() == (l,)
    assert a.expectation().support() == ("v2",)


# ---- faithfulness probe ----


def test_faithfulness_probe_backends_differ(single_edge):
    e = parse_word(single_edge, "e")
    for b, expect_ok in ((AX, True), (fock(4), False)):
        samples = [
            AlgebraElement.generator(single_edge, b, e),
            AlgebraElement.generator(single_edge, b, e, starred=True),
        ]
        assert faithfulness_probe(samples) == (() if expect_ok else ("1*L*[e]",))


# ---- bimodule scaling ----


def test_diagonal_scaling_sides(single_edge):
    e = parse_word(single_edge, "e")
    d = DiagonalElement.make(single_edge, {"v1": 2, "v2": 3})
    for b in (AX, fock(4)):
        le = AlgebraElement.generator(single_edge, b, e)
        # creation side starts at v1, annihilation side at v2
        assert d * le == le.scale(2)
        assert le * d == le.scale(3)
        les = AlgebraElement.generator(single_edge, b, e, starred=True)
        assert d * les == les.scale(3)
        assert les * d == les.scale(2)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_expectation_is_a_bimodule_map(data):
    g = data.draw(graphs(min_edges=1))
    b = data.draw(st.sampled_from([AX, fock(6)]))
    a = data.draw(elements(g, b))
    coeffs = {
        v: data.draw(st.integers(-3, 3))
        for v in g.vertices
    }
    d = DiagonalElement.make(g, coeffs)
    assert (d * a * d).expectation() == d * a.expectation() * d


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mul_distributes(data):
    g = data.draw(graphs(min_edges=1))
    b = data.draw(st.sampled_from([AX, fock(8)]))
    x = data.draw(elements(g, b, max_terms=2))
    y = data.draw(elements(g, b, max_terms=2))
    z = data.draw(elements(g, b, max_terms=2))
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mul_is_associative(data):
    g = data.draw(graphs(min_edges=1))
    b = data.draw(st.sampled_from([AX, fock(9)]))
    x = data.draw(elements(g, b, max_terms=2))
    y = data.draw(elements(g, b, max_terms=2))
    z = data.draw(elements(g, b, max_terms=2))
    assert (x * y) * z == x * (y * z)


# ---- expectation-only products against the full product ----


def _outcome(fn):
    """The value of fn(), or the code, required and depth of its DepthError."""
    try:
        return fn()
    except DepthError as exc:
        return ("depth-insufficient", exc.required, exc.depth)


def _seeded_elements(g, backend, rng, max_len, count):
    """Sums of up to four normal forms L[p]L*[q], sides of length <= max_len,
    each followed by its adjoint, so that expectations are often nonzero."""
    words = enumerate_paths(g, max_len)
    pairs = [(p, q) for p in words for q in words if p.final == q.final]
    out = []
    for _ in range(count):
        terms = {
            Monomial(*rng.choice(pairs)): Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            for _ in range(rng.randint(1, 4))
        }
        x = AlgebraElement.make(g, backend, terms)
        out += [x, x.adjoint()]
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_expect_product_matches_product(name):
    """The image join against the full product, from depths too small for
    some products to depths that cover all of them."""
    g = load_fixture(name)
    rng = random.Random(f"expect-product-{name}")
    seen = {"value": 0, "raised": 0}
    for backend in (AX, fock(2), fock(3), fock(5), fock(8)):
        pool = _seeded_elements(g, backend, rng, 2, 6)
        for _ in range(40):
            x, y = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.5:
                y = y + x.adjoint()
            got = _outcome(lambda: x.expect_product(y))
            assert got == _outcome(lambda: (x * y).expectation())
            if isinstance(got, tuple):
                seen["raised"] += 1
            elif not got.is_zero:
                seen["value"] += 1
    assert seen["value"] > 0 and seen["raised"] > 0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_moments_match_powers(name):
    """Meeting in the middle against the fold of full powers wherever the
    depth covers n times the degree; elsewhere the request is rejected
    up front with exactly that need."""
    g = load_fixture(name)
    rng = random.Random(f"moments-{name}")
    n = 5
    split = rejected = 0
    for backend in (AX, fock(2), fock(5), fock(10)):
        pool = _seeded_elements(g, backend, rng, 1, 4)
        for a in pool[::2] + [x + x.adjoint() for x in pool[::2]]:
            got = _outcome(lambda: a.moments(n))
            if backend.covers(n * a.degree):
                want = [a.power(k).expectation() for k in range(1, n + 1)]
                assert got == want
                split += any(not v.is_zero for v in got[2:])
            else:
                assert got == ("depth-insufficient", n * a.degree, backend.depth)
                rejected += 1
    assert split > 0 and rejected > 0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_moment_table_matches_products(name):
    """One table per backend, read by tuples that share prefixes and
    suffixes, against the full product wherever the depth covers the
    tuple's total degree."""
    g = load_fixture(name)
    rng = random.Random(f"moment-table-{name}")
    imageless = nonzero = 0
    for backend in (AX, fock(5), fock(10)):
        table = MomentTable()
        pool = _seeded_elements(g, backend, rng, 1, 3)
        pool += [x + y for x, y in zip(pool, pool[1:])]
        imageless += sum(x.image is None for x in pool)
        tuples = []
        for _ in range(8):
            args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
            tuples += [args[:k] for k in range(1, len(args) + 1)]
            tuples += [args[k:] for k in range(1, len(args))]
        rng.shuffle(tuples)
        for args in tuples:
            if backend.covers(sum(a.degree for a in args)):
                got = table.moment(args)
                assert got == functools.reduce(operator.mul, args).expectation()
                nonzero += len(args) > 2 and not got.is_zero
    assert imageless > 0 and nonzero > 0


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_moment_table_matches_products_on_drawn_graphs(data):
    """The same check on drawn graphs and elements: every prefix and
    suffix of one tuple, on axiomatic and again on a fock depth that
    covers the whole tuple.  The tuple ends in the adjoints of its drawn
    elements, in reverse, so that many of its moments are nonzero."""
    g = data.draw(graphs(min_edges=1))
    drawn = data.draw(st.lists(elements(g, AX), min_size=1, max_size=5))
    drawn += [x.adjoint() for x in reversed(drawn)]
    deep = fock(sum(x.degree for x in drawn))
    for args in (tuple(drawn), tuple(AlgebraElement.make(g, deep, x.terms) for x in drawn)):
        table = MomentTable()
        parts = [args[:k] for k in range(1, len(args) + 1)] + [args[k:] for k in range(1, len(args))]
        for part in parts:
            assert table.moment(part) == functools.reduce(operator.mul, part).expectation()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_visible_cuts_keep_what_E_sees(name):
    """Cutting a left factor to its visible creation words, or a right
    factor to its visible annihilation words, commutes with further
    products on that side and leaves every expectation as it was."""
    g = load_fixture(name)
    rng = random.Random(f"visible-{name}")
    cut = 0
    for backend in (AX, fock(8)):
        pool = _seeded_elements(g, backend, rng, 2, 6)
        for x in pool:
            for side in ("creation", "annihilation"):
                v = x.visible(side)
                assert v.expectation() == x.expectation()
                assert set(v.terms) <= set(x.terms)
                cut += v != x
        for _ in range(40):
            x, y = rng.choice(pool), rng.choice(pool)
            left, right = x.visible("creation"), y.visible("annihilation")
            assert (x * y).visible("creation") == (left * y).visible("creation")
            assert (x * y).visible("annihilation") == (x * right).visible("annihilation")
            assert x.expect_product(y) == left.expect_product(right)
    assert cut > 0


def test_visible_words_are_those_of_cancellable_edges():
    # mixed_exits: f and k are sole exits, the only edges axiomatic cancels.
    g = load_fixture("mixed_exits")
    for backend, kept in ((AX, {"f", "k"}), (fock(4), set())):
        assert backend.cancellable(g) == kept
        for e in g.edges:
            x = AlgebraElement.generator(g, backend, parse_word(g, e.id))
            assert x.visible("annihilation") == x
            assert (x.visible("creation") == x) == (e.id in kept)
            assert (x.adjoint().visible("annihilation") == x.adjoint()) == (e.id in kept)


# ---- free-group images ----


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_image_law(name):
    """Normal forms multiply images, a mixed sum and zero have none, and
    diagonal dressing keeps an element's image."""
    g = load_fixture(name)
    rng = random.Random(f"image-{name}")
    words = enumerate_paths(g, 2)
    pairs = [(p, q) for p in words for q in words if p.final == q.final]
    composed = 0
    for backend in (AX, fock(8)):
        monomials = [backend.normal_form(Monomial(p, q)) for p, q in pairs]
        for _ in range(150):
            m1, m2 = rng.choice(monomials), rng.choice(monomials)
            m = compose(m1, m2)
            if m is not None:
                composed += 1
                assert backend.normal_form(m).letters == free_product(m1.letters, m2.letters)

        e = parse_word(g, g.edges[0].id)
        x = AlgebraElement.generator(g, backend, e)
        assert x.image == ((e.edges[0], 1),)
        assert x.adjoint().image == ((e.edges[0], -1),)
        assert (x + x.adjoint()).image is None
        assert AlgebraElement.zero(g, backend).image is None
        for m in rng.sample(monomials, min(8, len(monomials))):
            # every normal form with m's image, e.g. L[pe]L*[qe] next to L[p]L*[q]
            y = AlgebraElement.make(
                g, backend, {n: rng.choice((1, -2)) for n in monomials if n.image == m.image}
            )
            d = DiagonalElement.make(g, {v: rng.choice((1, 2, 3)) for v in g.vertices})
            for dressed in (d * y, y * d, d * y * d):
                assert dressed.image == y.image == m.letters
    assert composed > 0
