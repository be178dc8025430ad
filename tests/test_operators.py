import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprob import (
    AlgebraElement,
    Backend,
    DepthError,
    DomainError,
    Monomial,
    PathWord,
    enumerate_paths,
    parse_word,
    reduce_word,
    required_depth,
)
from graphprob.operators import apply_generator_word, cancel_final_segment, compose, fock_apply
from graphprob.records import to_json

from .conftest import FIXTURE_NAMES, load_fixture
from .strategies import generator_words, generators, graphs, read_letter


# ---- backends ----


def test_backend_forms():
    ax = Backend.axiomatic()
    fk = Backend.fock(5)
    assert str(ax) == "axiomatic" and str(fk) == "fock(depth=5)"
    assert not ax.is_fock and fk.is_fock
    assert to_json(ax) == {"kind": "axiomatic"}
    assert to_json(fk) == {"kind": "fock", "depth": 5}


def test_backend_rejects_bad_shapes():
    with pytest.raises(DomainError):
        Backend("axiomatic", 3)
    with pytest.raises(DomainError):
        Backend.fock(-1)
    with pytest.raises(DomainError):
        Backend("bogus", 0)


def test_backend_gate_and_normal_form(one_loop):
    ax, fk = Backend.axiomatic(), Backend.fock(2)
    ax.gate(10**6)
    fk.gate(2)
    with pytest.raises(DepthError) as err:
        fk.gate(3)
    assert (err.value.required, err.value.depth) == (3, 2)
    l, ll = parse_word(one_loop, "l"), parse_word(one_loop, "l.l")
    assert ax.normal_form(Monomial(ll, l)) == Monomial.generator(l)
    assert fk.normal_form(Monomial(ll, l)) == Monomial(ll, l)
    with pytest.raises(DepthError) as err:
        fk.normal_form(Monomial(parse_word(one_loop, "l.l.l"), l))
    assert (err.value.required, err.value.depth) == (3, 2)


# ---- generators and monomials ----


def test_vertex_symbol_is_self_adjoint(c3):
    v = PathWord.vertex(c3, "v1")
    m = Monomial.generator(v, starred=True)
    assert m == Monomial.generator(v) == Monomial.vertex(c3, "v1")
    assert m.adjoint() == m
    assert str(m) == "L[@v1]"


def test_symbol_adjoint_involution(c3):
    m = Monomial.generator(parse_word(c3, "e1"))
    assert m.adjoint().adjoint() == m
    assert str(m) == "L[e1]" and str(m.adjoint()) == "L*[e1]"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_generator_rules_on_every_short_word(name):
    """The rules a separate letter type used to enforce: L*[@v] is the
    projection at v, and L*[w] is the adjoint of L[w]."""
    graph = load_fixture(name)
    for w in enumerate_paths(graph, 3):
        assert Monomial.generator(w, True) == Monomial.generator(w).adjoint()
    for v in graph.vertices:
        assert Monomial.generator(PathWord.vertex(graph, v), True) == Monomial.vertex(graph, v)


def test_monomial_needs_shared_final_vertex(c3):
    e1 = parse_word(c3, "e1")
    e2 = parse_word(c3, "e2")
    with pytest.raises(DomainError):
        Monomial(e1, e2)


def test_monomial_display_forms(c3):
    e1 = parse_word(c3, "e1")
    v2 = PathWord.vertex(c3, "v2")
    assert str(Monomial(e1, v2)) == "L[e1]"
    assert str(Monomial(v2, e1)) == "L*[e1]"
    assert str(Monomial(v2, v2)) == "L[@v2]"
    assert str(Monomial(e1, e1)) == "L[e1]L*[e1]"


def test_generator_sides(c3):
    e1 = parse_word(c3, "e1")
    m = Monomial.generator(e1)
    assert m.creation == e1 and m.annihilation == PathWord.vertex(c3, "v2")
    ms = Monomial.generator(e1, starred=True)
    assert ms.creation == PathWord.vertex(c3, "v2") and ms.annihilation == e1


# ---- reduction ----


def _gen(graph, text, starred=False):
    return Monomial.generator(parse_word(graph, text), starred)


def test_reduce_relation_examples(single_edge):
    ax = Backend.axiomatic()
    fk = Backend.fock(4)
    # L*[e] L[e] compresses to the final vertex under both backends
    for b in (ax, fk):
        m = reduce_word(b, [_gen(single_edge, "e", True), _gen(single_edge, "e")])
        assert m == Monomial.vertex(single_edge, "v2")
    # L[e] L*[e] is where the two backends part ways
    m_ax = reduce_word(ax, [_gen(single_edge, "e"), _gen(single_edge, "e", True)])
    assert m_ax == Monomial.vertex(single_edge, "v1")
    e = parse_word(single_edge, "e")
    m_fk = reduce_word(fk, [_gen(single_edge, "e"), _gen(single_edge, "e", True)])
    assert m_fk == Monomial(e, e)


def test_reduce_inadmissible_product_is_zero(c3):
    for b in (Backend.axiomatic(), Backend.fock(6)):
        assert reduce_word(b, [_gen(c3, "e2"), _gen(c3, "e1")]) is None
        assert reduce_word(b, [_gen(c3, "e1"), _gen(c3, "e1")]) is None


def test_reduce_mixed_prefix_cases(c3):
    ax = Backend.axiomatic()
    # L*[e1] applied to L[e1.e2] strips the prefix
    m = reduce_word(ax, [_gen(c3, "e1", True), _gen(c3, "e1.e2")])
    assert m == _gen(c3, "e2")
    # over-stripping: L*[e1.e2] L[e1] leaves an annihilator remainder
    m2 = reduce_word(ax, [_gen(c3, "e1.e2", True), _gen(c3, "e1")])
    assert m2 == _gen(c3, "e2", True)
    assert reduce_word(ax, [_gen(c3, "e2", True), _gen(c3, "e1")]) is None


def test_reduce_empty_and_mixed_graph_rejected(c3, one_loop):
    with pytest.raises(DomainError):
        reduce_word(Backend.axiomatic(), [])
    with pytest.raises(DomainError):
        reduce_word(Backend.axiomatic(), [_gen(c3, "e1"), _gen(one_loop, "l")])


def test_required_depth_and_strictness(one_loop):
    word = [_gen(one_loop, "l"), _gen(one_loop, "l.l", True), _gen(one_loop, "l")]
    assert required_depth(word) == 4
    with pytest.raises(DepthError):
        reduce_word(Backend.fock(3), word)
    assert reduce_word(Backend.fock(4), word) is not None


def test_cancel_final_segment(one_loop):
    l = parse_word(one_loop, "l")
    ll = parse_word(one_loop, "l.l")
    v = PathWord.vertex(one_loop, "v")
    assert cancel_final_segment(Monomial(l, l)) == Monomial.vertex(one_loop, "v")
    assert cancel_final_segment(Monomial(ll, l)) == Monomial(l, v)
    assert cancel_final_segment(Monomial(l, v)) == Monomial(l, v)


# ---- associativity of the axiomatic product ----


def _reduced_monomials(graph, max_len):
    paths = enumerate_paths(graph, max_len)
    out = []
    for p in paths:
        for q in paths:
            if p.final == q.final and cancel_final_segment(Monomial(p, q)) == Monomial(p, q):
                out.append(Monomial(p, q))
    return out


def _axiomatic_mul(m1, m2):
    if m1 is None or m2 is None:
        return None
    out = compose(m1, m2)
    return None if out is None else cancel_final_segment(out)


# Sides of length 2 give 98 and 410 monomials on the last two fixtures,
# too many triples for a quick run; SAMPLED_CASES covers them by sample.
ASSOCIATIVITY_CASES = [("parallel_edges", 2, 10), ("lollipop", 2, 18), ("c3", 2, 15),
                       ("mixed_exits", 1, 24), ("loops_bridge", 1, 34)]


@pytest.mark.parametrize(
    "name, max_len, count", ASSOCIATIVITY_CASES,
    ids=[f"{name}-{count}" for name, _, count in ASSOCIATIVITY_CASES],
)
def test_axiomatic_product_is_associative_on_short_monomials(name, max_len, count):
    """Every triple of reduced monomials with sides of length <= max_len."""
    monomials = _reduced_monomials(load_fixture(name), max_len)
    mul = _axiomatic_mul
    bad = [
        (m1, m2, m3)
        for m1 in monomials
        for m2 in monomials
        for m3 in monomials
        if mul(mul(m1, m2), m3) != mul(m1, mul(m2, m3))
    ]
    assert bad == []
    assert len(monomials) == count


SAMPLED_CASES = [("mixed_exits", 98), ("loops_bridge", 410)]


@pytest.mark.parametrize(
    "name, count", SAMPLED_CASES, ids=[f"{name}-{count}" for name, count in SAMPLED_CASES]
)
def test_axiomatic_product_is_associative_on_sampled_monomials(name, count):
    """A seeded sample of triples of reduced monomials with sides of
    length <= 2, on the graphs that mix branching vertices and sole exits.
    Each outer factor is drawn among the monomials whose facing side starts
    where the middle factor's side starts, so many products are nonzero."""
    monomials = _reduced_monomials(load_fixture(name), 2)
    by_annihilation, by_creation = defaultdict(list), defaultdict(list)
    for m in monomials:
        by_annihilation[m.annihilation.initial].append(m)
        by_creation[m.creation.initial].append(m)
    rng = random.Random(0)
    mul = _axiomatic_mul
    bad, nonzero = [], 0
    for _ in range(10000):
        m2 = rng.choice(monomials)
        m1 = rng.choice(by_annihilation[m2.creation.initial])
        m3 = rng.choice(by_creation[m2.annihilation.initial])
        left = mul(mul(m1, m2), m3)
        if left != mul(m1, mul(m2, m3)):
            bad.append((m1, m2, m3))
        nonzero += left is not None
    assert bad == []
    assert len(monomials) == count
    assert nonzero >= 500


def test_axiomatic_associativity_witnesses():
    ax = Backend.axiomatic()
    g = load_fixture("parallel_edges")
    e1_star = AlgebraElement.generator(g, ax, parse_word(g, "e1"), starred=True)
    e2 = AlgebraElement.generator(g, ax, parse_word(g, "e2"))
    e2_star = e2.adjoint()
    # L[e2]L*[e2] is not the projection at v1, which e1 also leaves
    assert (e1_star * e2) * e2_star == e1_star * (e2 * e2_star)
    assert ((e1_star * e2) * e2_star).is_zero
    b = load_fixture("bouquet3")
    word = [_gen(b, "l1.l2"), _gen(b, "l1.l2", True), _gen(b, "l2")]
    assert reduce_word(ax, word) is None
    assert reduce_word(ax, [m.adjoint() for m in reversed(word)]) is None


# ---- the letter-stack oracle ----


def _stack_normal_form(backend, word):
    """Read a generator word letter by letter against a stack: ``L*[e]L[e]``
    pops, ``L*[e]L[f]`` with e != f is zero, and on axiomatic ``L[e]L*[e]``
    pops where e is its vertex's sole exit.  A word that is not composable
    is zero.  The letters left spell the normal form ``L[p]L*[q]``."""
    letters = [read_letter(m) for m in word]
    graph = letters[0][0].graph
    sole = frozenset() if backend.is_fock else graph.sole_exits

    def ends(w, starred):  # (range vertex, vertex it leaves from)
        return (w.final, w.initial) if starred else (w.initial, w.final)

    if any(ends(*s)[1] != ends(*t)[0] for s, t in zip(letters, letters[1:])):
        return None
    stack = []
    for w, starred in letters:
        for e in reversed(w.edges) if starred else w.edges:
            if stack and stack[-1][1] and not starred:
                if stack.pop()[0] != e:
                    return None
            elif stack and stack[-1] == (e, False) and starred and e in sole:
                stack.pop()
            else:
                stack.append((e, starred))

    def side(edges, v):
        return PathWord.from_edges(graph, edges) if edges else PathWord.vertex(graph, v)

    p = [e for e, starred in stack if not starred]
    q = [e for e, starred in reversed(stack) if starred]
    return Monomial(side(p, ends(*letters[0])[0]), side(q, ends(*letters[-1])[1]))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_reduce_word_agrees_with_the_letter_stack(name, data):
    """The normal form is P_v, v the first generator's range vertex, exactly
    when the stack ends empty; otherwise the stack spells it."""
    graph = load_fixture(name)
    word = data.draw(generator_words(graph))
    for backend in (Backend.axiomatic(), Backend.fock(max(1, required_depth(word)))):
        assert reduce_word(backend, word) == _stack_normal_form(backend, word)


# ---- basis action ----


def test_fock_apply_examples(single_edge):
    fk = Backend.fock(3)
    e = parse_word(single_edge, "e")
    v1 = PathWord.vertex(single_edge, "v1")
    v2 = PathWord.vertex(single_edge, "v2")
    # L[e] glues onto a final-vertex word, L*[e] strips back down
    assert fock_apply(fk, Monomial.generator(e), v2) == e
    assert fock_apply(fk, Monomial.generator(e, True), e) == v2
    assert fock_apply(fk, Monomial.generator(e), v1) is None
    assert fock_apply(fk, Monomial.generator(e, True), v1) is None
    assert fock_apply(fk, Monomial.generator(v1), v1) == v1
    assert fock_apply(fk, Monomial.generator(v1), v2) is None
    # L[e]L*[e] strips e and glues it back: the projection onto words
    # starting with e
    assert fock_apply(fk, Monomial(e, e), e) == e
    assert fock_apply(fk, Monomial(e, e), v1) is None


def test_fock_apply_depth_edges(one_loop):
    fk = Backend.fock(2)
    l = parse_word(one_loop, "l")
    ll = parse_word(one_loop, "l.l")
    # gluing beyond the truncation vanishes instead of overflowing
    assert fock_apply(fk, Monomial.generator(l), ll) is None
    with pytest.raises(DepthError):
        fock_apply(fk, Monomial.generator(l), parse_word(one_loop, "l.l.l"))
    with pytest.raises(DomainError):
        fock_apply(Backend.axiomatic(), Monomial.generator(l), l)


def test_apply_generator_word_matches_reduction(c3):
    fk = Backend.fock(6)
    word = [_gen(c3, "e1"), _gen(c3, "e1", True), _gen(c3, "e1")]
    m = reduce_word(fk, word)
    assert m == _gen(c3, "e1")
    for u in (PathWord.vertex(c3, "v2"), parse_word(c3, "e2")):
        assert apply_generator_word(fk, word, u) == fock_apply(fk, m, u)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_two_sided_action_is_strip_then_glue(name, data):
    """L[p]L*[q] acts on every basis word up to the depth as L*[q] and
    then L[p], the depth cut included."""
    graph = load_fixture(name)
    depth = 4
    paths = enumerate_paths(graph, 2)
    p = data.draw(st.sampled_from(paths))
    q = data.draw(st.sampled_from([q for q in paths if q.final == p.final]))
    fk = Backend.fock(depth)
    m = Monomial(p, q)
    pieces = [Monomial.generator(p), Monomial.generator(q, True)]
    for u in enumerate_paths(graph, depth):
        assert fock_apply(fk, m, u) == apply_generator_word(fk, pieces, u)


# ---- properties ----


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_axiomatic_reduction_is_confluent(data):
    """Reducing a generator word by any association order gives one normal form."""
    g = data.draw(graphs(min_edges=1))
    n = data.draw(st.integers(2, 5))
    syms = [data.draw(generators(g)) for _ in range(n)]
    ax = Backend.axiomatic()
    expected = reduce_word(ax, syms)

    def reduce_random(lo, hi):
        if hi - lo == 1:
            return cancel_final_segment(syms[lo])
        cut = data.draw(st.integers(lo + 1, hi - 1))
        left = reduce_random(lo, cut)
        right = reduce_random(cut, hi)
        if left is None or right is None:
            return None
        out = compose(left, right)
        return None if out is None else cancel_final_segment(out)

    assert reduce_random(0, n) == expected


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_reduction_respects_adjoint(data):
    g = data.draw(graphs(min_edges=1))
    n = data.draw(st.integers(1, 4))
    syms = [data.draw(generators(g)) for _ in range(n)]
    for b in (Backend.axiomatic(), Backend.fock(2 * n)):
        m = reduce_word(b, syms)
        m_adj = reduce_word(b, [s.adjoint() for s in reversed(syms)])
        if m is None:
            assert m_adj is None
        else:
            assert m_adj == m.adjoint()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fock_reduction_agrees_with_basis_action(data):
    """The reduced monomial induces the same partial map the word does,
    on basis words short enough that no intermediate glue truncates."""
    g = data.draw(graphs(min_edges=1))
    n = data.draw(st.integers(1, 3))
    syms = [data.draw(generators(g, max_len=2)) for _ in range(n)]
    headroom = 3
    depth = required_depth(syms) + headroom
    fk = Backend.fock(depth)
    m = reduce_word(fk, syms)

    for u in enumerate_paths(g, headroom):
        direct = apply_generator_word(fk, syms, u)
        assert direct == (None if m is None else fock_apply(fk, m, u))
