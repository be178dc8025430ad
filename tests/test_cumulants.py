import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprob import (
    AlgebraElement,
    Backend,
    CumulantFunctional,
    DiagonalElement,
    DomainError,
    NCPartition,
    cumulant_to_moment,
    enumerate_nc,
    mixed_cumulant_scan,
    enumerate_paths,
    moment_to_cumulant,
    parse_word,
)
from graphprob.cli import main
from graphprob.cumulants import (
    CumulantSource,
    PairSource,
    SeriesTerm,
    catalan,
    dressed_tags,
    nested_evaluate,
)
from graphprob.errors import ArityBoundError
from graphprob.operators import free_product
from graphprob.records import to_json

from .conftest import FIXTURE_NAMES, fixture_path, load_fixture
from .strategies import elements, graphs

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


class PartitionSumSource(CumulantSource):
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

    seen = {"unbalanced": 0, "graded nonzero": 0, "sums": 0, "sums nonzero": 0}
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
