import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprob import (
    AlgebraElement,
    Backend,
    CumulantFunctional,
    DiagonalElement,
    DomainError,
    cumulant_to_moment,
    mixed_cumulant_scan,
    enumerate_paths,
    parse_word,
)
from graphprob.algebra import SeriesTerm
from graphprob.cli import main, parse_element
from graphprob.cumulants import MixedScanReport, ScanFinding, cumulant_series
from graphprob.errors import ArityBoundError
from graphprob.nestings import (
    NCPartition,
    PairSource,
    catalan,
    dressed_tags,
    enumerate_nc,
    moment_to_cumulant,
    nested_evaluate,
)
from graphprob.operators import free_product
from graphprob.records import to_json

from .conftest import FIXTURE_NAMES, fixture_path, load_fixture
from .strategies import (
    elements,
    generator_words,
    graphs,
    graphs_without_sole_exits,
    read_letter,
)

AX = Backend.axiomatic()


# ---- partitions ----


def test_partition_validation():
    NCPartition(3, (((1, 3)), (2,)))
    with pytest.raises(DomainError):
        NCPartition(3, ((1,), (2,)))  # not a cover
    with pytest.raises(DomainError):
        NCPartition(3, ((1, 2), (2, 3)))  # overlap
    with pytest.raises(DomainError):
        NCPartition(4, ((1, 3), (2, 4)))  # crossing


def test_partition_str_and_fullness():
    pi = NCPartition(4, ((1, 4), (2, 3)))
    assert str(pi) == "{1,4}{2,3}"
    assert not pi.is_full
    assert NCPartition(2, ((1, 2),)).is_full


def test_enumerate_counts_match_catalan():
    for n in range(1, 9):
        assert len(enumerate_nc(n)) == catalan(n)


def test_enumerate_is_deterministic_and_noncrossing():
    out = enumerate_nc(4)
    assert out == enumerate_nc(4)
    assert len(set(out)) == len(out)
    assert NCPartition(4, ((1, 2, 3, 4),)) in out
    assert [str(pi) for pi in out] == [
        "{1}{2}{3}{4}", "{1}{2}{3,4}", "{1}{2,3}{4}", "{1}{2,4}{3}", "{1}{2,3,4}",
        "{1,2}{3}{4}", "{1,2}{3,4}", "{1,3}{2}{4}", "{1,4}{2}{3}", "{1,4}{2,3}",
        "{1,2,3}{4}", "{1,2,4}{3}", "{1,3,4}{2}", "{1,2,3,4}",
    ]


def test_enumerate_bounds():
    with pytest.raises(DomainError):
        enumerate_nc(0)
    with pytest.raises(ArityBoundError):
        enumerate_nc(11)
    assert len(enumerate_nc(10)) == catalan(10)


# ---- functional basics ----


def test_first_two_brackets(one_loop):
    a = AlgebraElement.symmetrized_generator(one_loop, AX, parse_word(one_loop, "l"))
    f = CumulantFunctional()
    assert f.valuation((a,)) == a.expectation()
    k2 = f.valuation((a, a))
    assert k2 == (a * a).expectation() - a.expectation() * a.expectation()
    with pytest.raises(DomainError):
        f.valuation(())


def test_brackets_evaluate_the_order_asked_for(one_loop, capsys):
    """A library bracket has no order limit: k_10 of the symmetrized loop
    generator is the order-10 row of the cumulants command."""
    a = AlgebraElement.symmetrized_generator(one_loop, AX, parse_word(one_loop, "l"))
    k10 = CumulantFunctional().valuation((a,) * 10)
    assert k10 == DiagonalElement.vertex_unit(one_loop, "v", 28)
    argv = ["cumulants", str(fixture_path("one_loop")), "a:l", "--max-order", "10",
            "--backend", "axiomatic", "--format", "json"]
    assert main(argv) == 0
    row = json.loads(capsys.readouterr().out)["cumulants"][-1]
    assert row == to_json(SeriesTerm(10, k10))


def _edge_law(graph, backend, e, pattern):
    """The closed form of k_n over L[e] ("a") and L*[e] ("a*"): on fock,
    and on axiomatic where e is not its vertex's sole exit, only
    k_2(L*[e], L[e]) = P_final(e) is nonzero.  At a sole exit, L[e] is a
    partial isometry: an alternating tuple of length 2m has the bracket
    (-1)^(m-1) Catalan(m-1), at e's initial vertex when it starts with a
    and at its final vertex when it starts with a*."""
    alternating = len(pattern) % 2 == 0 and all(x != y for x, y in zip(pattern, pattern[1:]))
    at = e.initial if pattern[0] == "a" else e.final
    if backend.kind == "axiomatic" and e.id in graph.sole_exits:
        if not alternating:
            return DiagonalElement.zero(graph)
        m = len(pattern) // 2
        return DiagonalElement.vertex_unit(graph, at, (-1) ** (m - 1) * comb(2 * m - 2, m - 1) // m)
    if pattern == ("a*", "a"):
        return DiagonalElement.vertex_unit(graph, e.final)
    return DiagonalElement.zero(graph)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_edge_brackets_follow_the_edge_law(name):
    """Every bracket over {L[e], L*[e]} to order 6, for every edge of the
    fixture on both backends, against ``_edge_law``: the law of the
    building block W*({L_e}, D_G) of the free product decomposition."""
    g = load_fixture(name)
    for backend in (AX, Backend.fock(6)):
        for e in g.edges:
            word = parse_word(g, e.id)
            sides = {"a": AlgebraElement.generator(g, backend, word),
                     "a*": AlgebraElement.generator(g, backend, word, starred=True)}
            f = CumulantFunctional()
            for n in range(1, 7):
                for pattern in itertools.product(sides, repeat=n):
                    got = f.valuation(tuple(sides[x] for x in pattern))
                    assert got == _edge_law(g, backend, e, pattern), (backend, e.id, pattern)


class _LetterLaw:
    """The closed-form brackets of letters: ``L[e]`` tagged "a e",
    ``L*[e]`` tagged "a* e" and ``P_v`` tagged "@ v".  Brackets on one
    edge follow ``_edge_law``, brackets mixing edges are zero (the edge
    blocks are free over D_G), ``k_1(P_v) = P_v``, and a longer bracket
    that holds a ``P_v`` is zero.  Each letter x is ``x P_r`` for one
    vertex r (final(e) for L[e], initial(e) for L*[e], v for P_v), so a
    slot dressed with d scales the bracket by d at r."""

    def __init__(self, graph, backend):
        self.graph, self.backend = graph, backend

    def valuation(self, slots) -> DiagonalElement:
        g = self.graph
        letters = [slot.tag.split() for slot in slots]
        scale = Fraction(1)
        for (kind, name), slot in zip(letters, slots):
            right = name
            if kind != "@":
                right = g.edge(name).final if kind == "a" else g.edge(name).initial
            scale = slot.right.coeff(right) * scale
        names = {name for _, name in letters}
        if any(kind == "@" for kind, _ in letters):
            value = DiagonalElement.vertex_unit(g, letters[0][1]) if len(slots) == 1 else None
        elif len(names) == 1:
            value = _edge_law(g, self.backend, g.edge(names.pop()), tuple(k for k, _ in letters))
        else:
            value = None
        return DiagonalElement.zero(g) if value is None else value * scale


def _letter_tags(word) -> list[str]:
    """The letters a generator word spells: ``L[w]`` the edges of w in
    order, ``L*[w]`` them starred in reverse, a vertex word its ``P_v``."""
    tags = []
    for w, starred in map(read_letter, word):
        if w.is_vertex:
            tags.append(f"@ {w.initial}")
        else:
            edges = reversed(w.edges) if starred else w.edges
            tags += [f"{'a*' if starred else 'a'} {e}" for e in edges]
    return tags


def _joins_every_piece(pi, piece_of, pieces) -> bool:
    """Whether pi ∨ sigma = 1, where sigma groups the letters of each
    piece: the blocks of pi link all the pieces."""
    reached, grown = {0}, True
    while grown:
        grown = False
        for block in pi.blocks:
            linked = {piece_of[i - 1] for i in block}
            if linked & reached and not linked <= reached:
                reached |= linked
                grown = True
    return len(reached) == pieces


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_products_follow_krawczyk_speicher(name, data):
    """Brackets with products as arguments: k_n(monomials) is the sum,
    over pi in NC(letters) with pi ∨ sigma = 1, of the nested evaluation
    of pi with the closed-form letter brackets (Krawczyk and Speicher,
    J. Combin. Theory Ser. A 90, 2000, in the D_G-valued form).  The
    monomials cut a balanced word w w* of at most 8 letters into 2 to 4
    consecutive pieces; the reference shares no code with the engine's
    moments, cuts or grading."""
    g = load_fixture(name)
    word = data.draw(generator_words(g, max_symbols=2, max_len=2, mirror=True))
    tags = _letter_tags(word)
    n = len(tags)
    pieces = data.draw(st.integers(2, min(4, n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=pieces - 1,
                                    max_size=pieces - 1)))
    bounds = list(zip([0, *cuts], [*cuts, n]))
    piece_of = [i for i, (lo, hi) in enumerate(bounds) for _ in range(lo, hi)]
    partitions = [pi for pi in enumerate_nc(n) if _joins_every_piece(pi, piece_of, pieces)]
    for backend in (AX, Backend.fock(8)):
        def letter(tag):
            kind, name = tag.split()
            if kind == "@":
                return AlgebraElement.vertex_projection(g, backend, name)
            return AlgebraElement.generator(g, backend, parse_word(g, name), starred=kind == "a*")

        monomials = []
        for lo, hi in bounds:
            product = letter(tags[lo])
            for tag in tags[lo + 1:hi]:
                product = product * letter(tag)
            monomials.append(product)
        source, args = _LetterLaw(g, backend), dressed_tags(g, tags)
        want = DiagonalElement.zero(g)
        for pi in partitions:
            want = want + nested_evaluate(pi, args, source)
        got = CumulantFunctional().valuation(tuple(monomials))
        assert got == want, (backend, tags, bounds)


def test_cumulant_series_is_each_order_bracket(one_loop):
    """The series is k_n(a, ..., a) for n = 1..max_order, and a fock depth
    below max_order times the degree (2 here) fails before any bracket."""
    from graphprob import DepthError

    sums = parse_element(one_loop, Backend.fock(12), "2 a:l - 1/3 L[l]L*[l]")
    for a in (AlgebraElement.symmetrized_generator(one_loop, AX, parse_word(one_loop, "l")), sums):
        assert cumulant_series(a, 6) == [moment_to_cumulant((a,) * n) for n in range(1, 7)]
    with pytest.raises(DepthError) as err:
        cumulant_series(sums, 7)
    assert err.value.required == 14


@pytest.mark.parametrize("name, text", [
    ("one_loop", "a:l"), ("bouquet3", "a:l1+a:l2+a:l3"), ("c3", "a:e1.e2.e3"),
])
def test_series_brackets_cost_no_more_than_moments(name, text, monkeypatch):
    """Every term leaves one vertex, so no gap dresses a slot, and the
    brackets read only the moments E(a^k): the series composes no more
    monomial pairs than the moments do."""
    import graphprob.algebra as algebra

    calls = [0]

    def counting(m1, m2, compose=algebra.compose):
        calls[0] += 1
        return compose(m1, m2)

    monkeypatch.setattr(algebra, "compose", counting)
    g = load_fixture(name)
    for backend in (AX, Backend.fock(24)):
        a = parse_element(g, backend, text)
        assert a.annihilation_vertex is not None
        calls[0] = 0
        a.moments(8)
        moments = calls[0]
        calls[0] = 0
        cumulant_series(a, 8)
        assert 0 < calls[0] <= moments, (str(backend), calls[0], moments)


def test_nested_evaluate_interval_block(one_loop):
    """For {1,4}{2,3} the inner pair dresses the first argument."""
    a = AlgebraElement.symmetrized_generator(one_loop, AX, parse_word(one_loop, "l"))
    f = CumulantFunctional()
    pi = NCPartition(4, ((1, 4), (2, 3)))
    inner = f.valuation((a, a))
    dressed = f.valuation((a * inner, a))
    assert nested_evaluate(pi, (a, a, a, a), f) == dressed


def test_moment_cumulant_round_trip(one_loop, single_edge):
    cases = []
    a = AlgebraElement.symmetrized_generator(one_loop, AX, parse_word(one_loop, "l"))
    cases.append((a, a, a))
    e = parse_word(single_edge, "e")
    le = AlgebraElement.generator(single_edge, Backend.fock(4), e)
    cases.append((le, le.adjoint(), le, le.adjoint()))
    for args in cases:
        f = CumulantFunctional()
        prod = args[0]
        for x in args[1:]:
            prod = prod * x
        assert cumulant_to_moment(args, f) == prod.expectation()


def test_moment_to_cumulant_matches_functional(one_loop):
    a = AlgebraElement.symmetrized_generator(one_loop, AX, parse_word(one_loop, "l"))
    f = CumulantFunctional()
    assert moment_to_cumulant((a, a, a, a)) == f.valuation((a, a, a, a))


@pytest.mark.parametrize("backend", [AX, Backend.fock(12)], ids=["axiomatic", "fock"])
@pytest.mark.parametrize("name", ["loops_bridge", "lollipop"])
def test_recursion_matches_partition_sum(graphs, name, backend):
    """The first-block recursion against the sum over enumerate_nc, on
    tuples dressed with diagonals on both sides."""
    g = graphs[name]
    rng = random.Random(f"{name}-{backend.kind}")
    pools = []
    for w in enumerate_paths(g, 1):
        if not w.is_vertex:
            x = AlgebraElement.generator(g, backend, w)
            s = x + x.adjoint()
            pools.append((x, x.adjoint(), s, s * s))

    def diagonal():
        return DiagonalElement.make(
            g, {v: Fraction(rng.choice((-1, 1, 2))) for v in g.vertices}
        )

    nonzero = 0
    for _ in range(24):
        n = rng.randint(2, 6)
        pool = rng.choice(pools)
        args = tuple(diagonal() * rng.choice(pool) * diagonal() for _ in range(n))
        f = CumulantFunctional()
        k = f.valuation(args)
        prod = args[0]
        for x in args[1:]:
            prod = prod * x
        want_k = prod.expectation()
        want_moment = DiagonalElement.zero(g)
        for pi in enumerate_nc(n):
            val = nested_evaluate(pi, args, f)
            want_moment = want_moment + val
            if not pi.is_full:
                want_k = want_k - val
        assert k == want_k
        assert cumulant_to_moment(args, f) == want_moment
        nonzero += not k.is_zero
    assert nonzero > 0


class PartitionSumSource:
    """k_n by definition: E(a_1 ... a_n) minus the partition sum over the
    non-full members of ``enumerate_nc``, memoized and never graded."""

    def __init__(self):
        self.memo = {}

    def valuation(self, args):
        args = tuple(args)
        if args not in self.memo:
            prod = args[0]
            for x in args[1:]:
                prod = prod * x
            total = prod.expectation()
            for pi in enumerate_nc(len(args)):
                if not pi.is_full:
                    total = total - nested_evaluate(pi, args, self)
            self.memo[args] = total
        return self.memo[args]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_graded_recursion_matches_partition_sums(name):
    """The graded functional against the ungraded brute force on dressed
    tuples, on both backends, by thirds: random homogeneous tuples (mostly
    unbalanced), balanced homogeneous tuples, and balanced tuples with one
    argument replaced by a sum of no single image."""
    g = load_fixture(name)
    rng = random.Random(f"graded-{name}")
    words = [w for w in enumerate_paths(g, 2) if not w.is_vertex]

    def diagonal():
        return DiagonalElement.make(
            g, {v: Fraction(rng.choice((-1, 1, 2))) for v in g.vertices}
        )

    def balanced(gens, n):
        """n arguments whose images multiply to 1: pairs L*[w] ... L[w]
        nested like brackets, and projections L[w]L*[w]."""
        x = rng.choice(gens[::2])
        if n < 2 or rng.random() < 0.5:
            return [x * x.adjoint(), *balanced(gens, n - 1)] if n else []
        inner = rng.choice((n - 2, rng.randrange(n - 1)))
        return [x.adjoint(), *balanced(gens, inner), x, *balanced(gens, n - 2 - inner)]

    seen = {"unbalanced": 0, "graded nonzero": 0, "sums": 0, "sums nonzero": 0,
            "one-vertex sums": 0, "two-vertex sums": 0}
    for backend in (AX, Backend.fock(24)):
        oracle, f = PartitionSumSource(), CumulantFunctional()
        for i in range(36):
            gens = []
            for w in rng.sample(words, min(len(words), rng.choice((1, 2)))):
                x = AlgebraElement.generator(g, backend, w)
                gens += [x, x.adjoint()]
            n = rng.randint(2, 6)
            if i == 0:  # k_3(L*[w], L[w]L*[w], L[w]) is a vertex projection
                n, picked = 3, [gens[1], gens[0] * gens[1], gens[0]]
            elif i % 3:
                picked = balanced(gens, n)
                if i % 3 == 2:
                    j = rng.randrange(n)
                    picked[j] = picked[j] + picked[j].adjoint()
            else:
                pool = gens + [x * x.adjoint() for x in gens]
                picked = [rng.choice(pool) for _ in range(n)]
            args = tuple(diagonal() * x * diagonal() for x in picked)
            k = f.valuation(args)
            assert k == oracle.valuation(args)
            images = [a.image for a in args]
            if None in images:
                seen["sums"] += 1
                seen["sums nonzero"] += not k.is_zero
            else:
                product = ()
                for image in images:
                    product = free_product(product, image)
                seen["unbalanced"] += product != ()
                seen["graded nonzero"] += n > 2 and not k.is_zero

        # Sums to order 7, of two kinds.  All terms of a:l on a loop, and
        # of x + P_v with v the vertex the terms of x leave from, leave one
        # vertex: a bracket keeps such an argument and scales its block by
        # a gap moment's value there.  The terms of L[w] + L*[w] on a
        # non-loop w, and of x + P_u with u another vertex, leave two
        # vertices: the bracket dresses the argument.
        def with_sum(x, two_vertices):
            v = x.annihilation_vertex
            if two_vertices:
                v = rng.choice([u for u in g.vertices if u != v])
            return x + AlgebraElement.vertex_projection(g, backend, v)

        symmetric = {False: [], True: []}
        for w in words:
            if w.length == 1:
                a = AlgebraElement.symmetrized_generator(g, backend, w)
                symmetric[a.annihilation_vertex is None].append(a)
        for n in range(2, 8):
            for two_vertices in [False, True] if len(g.vertices) > 1 else [False]:
                picked = balanced(gens, n)
                for j in rng.sample(range(n), min(n - 1, 2)):
                    picked[j] = with_sum(picked[j], two_vertices)
                tuples = [picked]
                if symmetric[two_vertices]:
                    tuples.append([rng.choice(symmetric[two_vertices])] * n)
                for picked in tuples:
                    args = tuple(x * diagonal() for x in picked)
                    assert all(a.annihilation_vertex for a in args) != two_vertices
                    k = f.valuation(args)
                    assert k == oracle.valuation(args)
                    seen["two-vertex sums" if two_vertices else "one-vertex sums"] += not k.is_zero
    if len(g.vertices) == 1:
        del seen["two-vertex sums"]
    assert all(seen.values()), seen


# ---- abstract pair source ----


def test_pair_source_even_moments(one_loop):
    gamma = Fraction(1, 3)
    c2 = DiagonalElement.vertex_unit(one_loop, "v", gamma)
    (t,) = dressed_tags(one_loop, ["t"])
    src = PairSource(c2)
    for n in (2, 4, 6):
        val = cumulant_to_moment((t,) * n, src)
        assert val == DiagonalElement.vertex_unit(
            one_loop, "v", gamma ** (n // 2) * catalan(n // 2)
        )
    assert cumulant_to_moment((t,) * 5, src).is_zero


def test_pair_source_odd_brackets_vanish(one_loop):
    src = PairSource(DiagonalElement.vertex_unit(one_loop, "v", 1))
    (t,) = dressed_tags(one_loop, ["t"])
    assert src.valuation((t,)).is_zero
    assert src.valuation((t, t, t)).is_zero
    assert not src.valuation((t, t)).is_zero


# ---- multilinearity ----


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bracket_is_multilinear(data):
    g = data.draw(graphs(min_edges=1))
    b = data.draw(st.sampled_from([AX, Backend.fock(8)]))
    n = data.draw(st.integers(2, 3))
    slot = data.draw(st.integers(0, n - 1))
    args = [data.draw(elements(g, b, max_terms=2)) for _ in range(n)]
    x = data.draw(elements(g, b, max_terms=2))
    y = data.draw(elements(g, b, max_terms=2))
    c = data.draw(st.sampled_from([Fraction(2), Fraction(-1, 2)]))

    f = CumulantFunctional()

    def at(val):
        t = list(args)
        t[slot] = val
        return f.valuation(tuple(t))

    assert at(x + y) == at(x) + at(y)
    assert at(x.scale(c)) == at(x) * c


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_backends_agree_where_no_edge_is_a_sole_exit(data):
    # Axiomatic cancels only sole exits, so on a graph without one it
    # cancels nothing, and at full depth fock truncates nothing: moments,
    # series brackets and mixed brackets agree exactly.
    g = data.draw(graphs_without_sole_exits())
    assert not g.sole_exits
    drawn = [data.draw(elements(g, AX)) for _ in range(data.draw(st.integers(1, 4)))]
    order = data.draw(st.integers(2, 5))
    a = drawn[0]
    fock = Backend.fock(order * max(1, a.degree, *(x.degree for x in drawn)))
    on_fock = [AlgebraElement.make(g, fock, dict(x.terms)) for x in drawn]
    assert a.moments(order) == on_fock[0].moments(order)
    assert cumulant_series(a, order) == cumulant_series(on_fock[0], order)
    args = tuple(drawn[:order])
    fock_args = tuple(on_fock[:order])
    assert CumulantFunctional().valuation(args) == CumulantFunctional().valuation(fock_args)


# ---- mixed scans ----


def test_mixed_scan_parallel_edges(graphs):
    g = graphs["parallel_edges"]
    b = Backend.fock(4)
    x = AlgebraElement.generator(g, b, parse_word(g, "e1"))
    y = AlgebraElement.generator(g, b, parse_word(g, "e2"))
    report = mixed_cumulant_scan([x], [y], 4)
    assert report.free_to_order
    assert report.nonzero == ()
    assert report.tuples_checked > 0


def test_mixed_scan_shared_element_is_never_free(one_loop):
    b = Backend.fock(4)
    a = AlgebraElement.symmetrized_generator(one_loop, b, parse_word(one_loop, "l"))
    report = mixed_cumulant_scan([a], [a], 2)
    # an element belonging to both families makes every tuple mixed
    assert report.tuples_checked > 0
    assert not report.free_to_order


def test_mixed_scan_detects_dependence(one_loop):
    b = Backend.fock(12)
    al = AlgebraElement.symmetrized_generator(one_loop, b, parse_word(one_loop, "l"))
    all_ = AlgebraElement.symmetrized_generator(one_loop, b, parse_word(one_loop, "l.l"))
    report = mixed_cumulant_scan([al], [all_], 3, labels={al: "a", all_: "b"})
    assert not report.free_to_order
    patterns = {f.pattern for f in report.nonzero}
    assert ("a", "a", "b") in patterns


def test_mixed_scan_labels_and_shape(graphs):
    g = graphs["parallel_edges"]
    b = Backend.fock(4)
    x = AlgebraElement.generator(g, b, parse_word(g, "e1"))
    y = AlgebraElement.generator(g, b, parse_word(g, "e2"))
    report = mixed_cumulant_scan([x], [y], 2, labels={x: "x", y: "y"})
    assert set(report.family_a) == {"x", str(x.adjoint())}
    d = to_json(report)
    assert d["max_order"] == 2 and d["nonzero"] == []
    # Partly overlapping closures: the pool is closure A, then the rest of
    # closure B, and a tuple is mixed once it holds an entry of A (all of
    # A lies in B): 2 of 4 at order 1, 16 - 4 at order 2, 64 - 8 at order 3.
    labels = {x: "x", x.adjoint(): "x*", y: "y", y.adjoint(): "y*"}
    report = mixed_cumulant_scan([x], [x.adjoint(), y], 3, labels=labels)
    assert report.family_a == ("x", "x*")
    assert report.family_b == ("x*", "y", "x", "y*")
    assert report.tuples_checked == 2 + 12 + 56
    assert [(f.order, f.pattern) for f in report.nonzero] == [(2, ("x*", "x"))]


def product_scan(family_a, family_b, max_order, *, labels=None):
    """The reference scan: every tuple of ``itertools.product`` over the
    pool, and ``valuation`` on each mixed one."""

    def closure(family):
        out = list(dict.fromkeys(family))
        return list(dict.fromkeys(out + [a.adjoint() for a in out]))

    closed_a, closed_b = closure(family_a), closure(family_b)
    labels = dict(labels or {})

    def label(x):
        return labels.get(x, str(x))

    pool = list(dict.fromkeys(closed_a + closed_b))
    in_a, in_b = set(closed_a), set(closed_b)
    f = CumulantFunctional()
    findings = []
    checked = 0
    for n in range(1, max_order + 1):
        for tup in itertools.product(pool, repeat=n):
            if in_a.isdisjoint(tup) or in_b.isdisjoint(tup):
                continue
            checked += 1
            val = f.valuation(tup)
            if not val.is_zero:
                findings.append(ScanFinding(n, tuple(label(x) for x in tup), val))
    return MixedScanReport(
        tuple(label(x) for x in closed_a),
        tuple(label(x) for x in closed_b),
        max_order,
        checked,
        tuple(findings),
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_scan_walk_matches_product_scan(name):
    """The depth-first walk against every product tuple: monomial
    families, sum families (no image, so nothing is pruned) and
    overlapping families, on both backends; ``tuples_checked`` is the
    closed form over the pool."""
    g = load_fixture(name)
    first, last = g.edges[0].id, g.edges[-1].id
    two = next((f"{a.id}.{b.id}" for a in g.edges for b in g.edges if a.final == b.initial), None)
    found = 0
    for backend in (AX, Backend.fock(10)):

        def el(text):
            return parse_element(g, backend, text)

        cases = [
            ([el(f"L[{first}]")], [el(f"L[{last}]")], 5),
            ([el(f"a:{first}")], [el(f"a:{last}")], 4),
            ([el(f"L[{first}]")], [el(f"L*[{first}]"), el(f"L[{last}]")], 4),
        ]
        if two:
            cases.append(([el(f"L[{first}]")], [el(f"L[{two}]"), el(f"a:{last}")], 3))
            cases.append(([el(f"L[{first}]"), el(f"L[{last}]")], [el(f"L[{two}]")], 4))
        for family_a, family_b, order in cases:
            pool = family_a + family_b
            labels = {x: f"x{i}" for i, x in enumerate(pool + [x.adjoint() for x in pool])}
            report = mixed_cumulant_scan(family_a, family_b, order, labels=labels)
            assert report == product_scan(family_a, family_b, order, labels=labels)
            closed_a = set(family_a) | {x.adjoint() for x in family_a}
            closed_b = set(family_b) | {x.adjoint() for x in family_b}
            size = len(closed_a | closed_b)
            assert report.tuples_checked == sum(
                size**n - (size - len(closed_a)) ** n - (size - len(closed_b)) ** n
                for n in range(1, order + 1)
            )
            found += len(report.nonzero)
    assert found > 0
