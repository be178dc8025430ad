"""Checks of the benchmark's closed forms against brute-force counting.

    python3 -m pytest bench/test_oracles.py

None of this imports graphprob: the oracles must stand on their own.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import oracles


def set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def noncrossing(n):
    for part in set_partitions(list(range(n))):
        if not any(
            a < b < c < d
            for p, q in combinations(part, 2)
            for x, y in ((p, q), (q, p))
            for a, c in combinations(sorted(x), 2)
            for b, d in combinations(sorted(y), 2)
        ):
            yield part


def vacuum_returns(word) -> bool:
    """Whether a word of (color, creates) letters, applied rightmost first
    to the vacuum of a full Fock space, returns to the vacuum."""
    stack = []
    for color, creates in reversed(word):
        if creates:
            stack.append(color)
        elif not stack or stack.pop() != color:
            return False
    return not stack


def test_semicircle_moments_count_colored_dyck_words():
    for count, top in ((1, 8), (2, 8), (3, 6)):
        letters = [(c, up) for c in range(count) for up in (True, False)]
        for n in range(1, top + 1):
            walks = sum(vacuum_returns(w) for w in product(letters, repeat=n))
            assert walks == oracles.semicircle_sum_moment(n, count), (count, n)


def test_partial_isometry_cumulants_match_haar_unitary_brute_force():
    # Moments of a Haar unitary: 1 when the word has as many u as u*.
    @lru_cache(maxsize=None)
    def kappa(word):
        moment = Fraction(int(sum(word) == 0))
        lower = Fraction(0)
        for part in noncrossing(len(word)):
            if len(part) > 1:
                prod = Fraction(1)
                for block in part:
                    prod *= kappa(tuple(word[i] for i in sorted(block)))
                lower += prod
        return moment - lower

    for k in range(1, 5):
        assert kappa((1, -1) * k) == oracles.partial_isometry_cumulant(k)
        assert kappa((-1, 1) * k) == oracles.partial_isometry_cumulant(k)
    assert kappa((1, 1, -1, -1)) == 0
    assert kappa((1, -1, -1, 1)) == 0


def test_free_cumulants_invert_the_noncrossing_moment_sum():
    for moments in (
        [oracles.arcsine_moment(n) for n in range(1, 9)],
        [oracles.semicircle_sum_moment(n, 3) for n in range(1, 9)],
        [1, 2, 5, 15, 52, 203],
    ):
        ks = oracles.free_cumulants(moments)
        for n in range(1, len(moments) + 1):
            total = Fraction(0)
            for part in noncrossing(n):
                prod = Fraction(1)
                for block in part:
                    prod *= ks[len(block) - 1]
                total += prod
            assert total == moments[n - 1], (moments, n)


def test_arcsine_and_semicircle_cumulant_closed_forms():
    arcsine = oracles.free_cumulants([oracles.arcsine_moment(n) for n in range(1, 11)])
    for n, k in enumerate(arcsine, start=1):
        want = 0 if n % 2 else 2 * oracles.partial_isometry_cumulant(n // 2)
        assert k == want, n
    semicircle = oracles.free_cumulants([oracles.semicircle_sum_moment(n, 3) for n in range(1, 9)])
    assert semicircle == [0, 3, 0, 0, 0, 0, 0, 0]


def test_mixed_tuple_count():
    pool = ["a", "a*", "b", "b*"]
    brute = sum(
        1
        for n in range(1, 7)
        for t in product(pool, repeat=n)
        if any(x[0] == "a" for x in t) and any(x[0] == "b" for x in t)
    )
    assert brute == oracles.mixed_tuple_count(2, 2, 6) == 5208


def mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def test_primitive_closed_words():
    _, bouquet = oracles.read_graph(
        "vertices: v\nedge l1: v -> v\nedge l2: v -> v\nedge l3: v -> v\n"
    )
    words = oracles.primitive_closed_words(bouquet, 3)
    for n in range(1, 4):
        necklace_words = sum(mobius(d) * 3 ** (n // d) for d in range(1, n + 1) if n % d == 0)
        assert sum(1 for w in words if w.count(".") == n - 1) == necklace_words
    _, cycle = oracles.read_graph(
        "# 3-cycle\nvertices: a b c\nedge x: a -> b\nedge y: b -> c\nedge z: c -> a\n"
    )
    assert oracles.primitive_closed_words(cycle, 3) == {"x.y.z", "y.z.x", "z.x.y"}
    _, edge = oracles.read_graph("vertices: a b\nedge e: a -> b\n")
    assert oracles.primitive_closed_words(edge, 3) == set()
    assert not oracles.branching(cycle) and oracles.branching(bouquet)


def test_rendering_of_diagonal_values():
    assert oracles.diagonal_text({"v": Fraction(1, 2)}) == "1/2*L[@v]"
    assert oracles.diagonal_text({"v": 0}) == "0"
    assert oracles.coeffs_json({"v1": -1, "v2": 0}) == {"v1": {"re": "-1/1", "im": "0/1"}}
