"""Expected values for the benchmark's output checks.

Everything here is computed with ``int`` and ``Fraction`` from closed forms
or by brute force over the graph text, and nothing imports ``graphprob``:
an operation's output is compared with these values, never with a stored
copy of an earlier run.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def semicircle_sum_moment(n: int, count: int) -> int:
    """E(a^n) for a sum of ``count`` free standard semicirculars:
    ``count^(n/2) * Catalan(n/2)`` for even n, 0 for odd n."""
    if n % 2:
        return 0
    return count ** (n // 2) * catalan(n // 2)


def partial_isometry_cumulant(k: int) -> int:
    """Alternating free cumulant of order 2k of a Haar-unitary-like partial
    isometry: ``(-1)^(k-1) * Catalan(k-1)``."""
    return (-1) ** (k - 1) * catalan(k - 1)


def arcsine_moment(n: int) -> int:
    """Moments of L + L* when L L* = L* L = 1: ``C(n, n/2)`` for even n."""
    return 0 if n % 2 else math.comb(n, n // 2)


def free_cumulants(moments: list) -> list[Fraction]:
    """Scalar free cumulants k_1..k_N of the moments m_1..m_N.

    Solves ``m_n = sum_s k_s * sum_{i_1+..+i_s = n-s} m_{i_1}..m_{i_s}``
    (with m_0 = 1) for k_n, order by order.
    """
    m = [Fraction(1)] + [Fraction(x) for x in moments]
    size = len(moments)
    # comp[s][j]: sum over compositions of j into s nonnegative parts of
    # the product of the moments indexed by the parts.
    comp = [[Fraction(0)] * (size + 1) for _ in range(size + 1)]
    comp[0][0] = Fraction(1)
    for s in range(1, size + 1):
        for j in range(size + 1):
            comp[s][j] = sum(
                (m[i] * comp[s - 1][j - i] for i in range(j + 1)), Fraction(0)
            )
    k = [Fraction(0)] * (size + 1)
    for n in range(1, size + 1):
        lower = sum((k[s] * comp[s][n - s] for s in range(1, n)), Fraction(0))
        k[n] = m[n] - lower
    return k[1:]


def mixed_tuple_count(size_a: int, size_b: int, max_order: int) -> int:
    """Tuples over a pool of ``size_a + size_b`` elements that use both
    families, orders 1..max_order."""
    return sum(
        (size_a + size_b) ** n - size_a**n - size_b**n for n in range(1, max_order + 1)
    )


# ---- graph files ----

_EDGE = re.compile(r"edge\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)$")


def read_graph(text: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Vertices and ``(edge, initial, final)`` triples of a graph file."""
    vertices: list[str] = []
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("vertices:"):
            vertices = line[len("vertices:"):].split()
        elif line:
            m = _EDGE.match(line)
            if m is None:
                raise ValueError(f"unreadable graph line: {raw!r}")
            edges.append(m.groups())
    return vertices, edges


def branching(edges) -> bool:
    """Whether some vertex has two or more outgoing edges."""
    starts = [e[1] for e in edges]
    return len(set(starts)) != len(starts)


def primitive_closed_words(edges, max_len: int) -> set[str]:
    """Closed edge words of length 1..max_len that are not a power of a
    shorter word, written ``e1.e2``; found by trying every edge sequence."""
    by_id = {e[0]: e for e in edges}
    out = set()
    for n in range(1, max_len + 1):
        for seq in itertools.product([e[0] for e in edges], repeat=n):
            steps = [by_id[x] for x in seq]
            if any(a[2] != b[1] for a, b in zip(steps, steps[1:])):
                continue
            if steps[-1][2] != steps[0][1]:
                continue
            if any(n % d == 0 and seq == seq[:d] * (n // d) for d in range(1, n)):
                continue
            out.add(".".join(seq))
    return out


def diagonal_text(coeffs: dict) -> str:
    """The program's rendering of a diagonal element ``{vertex: Fraction}``:
    nonzero terms ``c*L[@v]`` joined by `` + `` in vertex order, or ``0``."""
    terms = [f"{c}*L[@{v}]" for v, c in sorted(coeffs.items()) if c]
    return " + ".join(terms) if terms else "0"


def coeffs_json(coeffs: dict) -> dict:
    """The program's JSON form of a real diagonal element."""
    return {
        v: {"re": f"{c.numerator}/{c.denominator}", "im": "0/1"}
        for v, c in sorted((v, Fraction(c)) for v, c in coeffs.items())
        if c
    }
