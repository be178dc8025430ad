"""Diagonal-valued brackets of algebra elements, and the mixed-cumulant scan.

The brackets are Speicher's D_G-valued cumulants.  Their convention: a
nested sub-partition's value right-multiplies the argument to its left
inside the enclosing block, and outer blocks multiply left to right in
the diagonal.  Grouping the non-crossing partitions of 1..n by the block
B that holds 1, the nestings inside each gap of B and after it sum to
moments, so

    k_n(a_1, ..., a_n) = E(a_1 ... a_n)
        - sum over first blocks B = (1 = b_1 < ... < b_m), m < n, of
          k_m(a_(b_1) g_1, ..., a_(b_m) g_m) * E(tail)

with g_i = E(a_(b_i + 1) ... a_(b_(i+1) - 1)), the moment of the gap
after b_i (the unit when there is none), and E(tail) that of
a_(b_m + 1) ... a_n.  No Moebius coefficients appear, and a bracket
visits at most 2^(n-1) - 1 first blocks, never Catalan(n) - 1
partitions.

Brackets are D_G-bimodule multilinear.  When every term of a_(b_i)
leaves one vertex v (``AlgebraElement.annihilation_vertex``: every
monomial, and ``a:l`` on a loop), ``a_(b_i) g_i`` is g_i(v) times
a_(b_i), so the slot keeps a_(b_i) and the block's value is scaled by
g_i(v).  Lower brackets then repeat the same argument tuples and hit
the memo.

Brackets are graded by the free-group image (``AlgebraElement.image``):
products multiply images and E keeps only image 1, so a bracket whose
arguments' images multiply to something else is zero.  Where the images
are known, a bracket evaluates only balanced tuples and visits only the
first blocks whose gaps and tail are balanced, and a mixed scan walks
only the prefixes that can still balance.  An unknown image (a sum of
differently graded terms) counts as balanced.

Moments come from one ``algebra.MomentTable`` per functional, which
meets in the middle.  Explicit sums over nestings (``cumulant_to_moment``,
the abstract ``PairSource``, and the brute-force reference
``enumerate_nc`` with ``nested_evaluate``) live in ``nestings``; the
ones a tracing tool reads through this module are re-exported here on
first use, and the rest (``NCPartition``, ``DressedTag``, ...) are read
from ``nestings``.
"""

from __future__ import annotations

import sys

from . import _first_use
from .errors import ArityBoundError, DomainError
from .algebra import AlgebraElement, DiagonalElement, MomentTable
from .operators import free_product
from .records import Record

# The names of nestings that callers read through this module, each
# imported on first use.
__getattr__ = _first_use(globals(), dict.fromkeys(
    ("catalan", "enumerate_nc", "nested_evaluate", "moment_to_cumulant", "cumulant_to_moment",
     "PairSource"),
    "nestings",
))


def _first_blocks(lo: int, hi: int, balanced=lambda i, j: True) -> list[tuple[int, ...]]:
    """The blocks of {lo..hi} that contain lo, in lexicographic order.

    ``balanced(i, j)`` says whether positions i+1..j may carry a nonzero
    sum; a block skips a gap (b+1..c-1) only when ``balanced(b, c - 1)``
    and ends at b only when ``balanced(b, hi)``.
    """
    out = []

    def grow(block):
        b = block[-1]
        if balanced(b, hi):
            out.append(block)
        for c in range(b + 1, hi + 1):
            if c == b + 1 or balanced(b, c - 1):
                grow(block + (c,))

    grow((lo,))
    return out


def _grading(args):
    """``balanced(i, j)`` over positions of ``args``: False only when
    a_{i+1} ... a_j all have known images and their product is not 1.

    It compares prefix keys (u, w): u counts the unknown images among the
    arguments so far, w is the reduced product of the images after the
    last unknown one.
    """
    keys = [(0, ())]
    for a in args:
        unknown, word = keys[-1]
        if a.image is None:
            keys.append((unknown + 1, ()))
        else:
            keys.append((unknown, free_product(word, a.image)))

    def balanced(i: int, j: int) -> bool:
        return keys[i] == keys[j] or keys[i][0] != keys[j][0]

    return balanced


class CumulantFunctional:
    """The cumulants of algebra elements, by the graded first-block
    recursion (see the module docstring).

    Values are memoized per argument tuple and moments come from one
    ``MomentTable``, so a functional shared across a scan or a series
    computes each lower bracket, moment and half product once.  The depth
    gate takes the arguments' total degree before a bracket is evaluated.
    """

    def __init__(self):
        self._memo: dict = {}
        self._table = MomentTable()

    def _block(self, args, block) -> DiagonalElement | None:
        """The term of the first block ``block``: its bracket, with each
        gap's moment dressing the slot before it, times the moment of the
        tail; None when a dressing or the tail is zero."""
        last = block[-1]
        tail = self._table.moment(args[last:]) if last < len(args) else None
        if tail is not None and tail.is_zero:
            return None
        slots, scale = [], None
        for b, nxt in zip(block, block[1:] + (last + 1,)):
            arg = args[b - 1]
            if nxt > b + 1:
                gap = self._table.moment(args[b:nxt - 1])
                v = arg.annihilation_vertex
                if v is None:
                    arg = arg * gap
                    if arg.is_zero:
                        return None
                else:
                    # arg * gap is gap(v) * arg: keep arg, scale the value.
                    c = gap.coeff(v)
                    if c.is_zero:
                        return None
                    scale = c if scale is None else scale * c
            slots.append(arg)
        val = self.valuation(tuple(slots))
        if scale is not None:
            val = val * scale
        if tail is not None and not val.is_zero:
            val = val * tail
        return val

    def valuation(self, args) -> DiagonalElement:
        args = tuple(args)
        n = len(args)
        if n == 0:
            raise DomainError("empty argument tuple")
        cached = self._memo.get(args)
        if cached is not None:
            return cached
        graph = args[0].graph
        if any(a.is_zero for a in args):
            return DiagonalElement.zero(graph)
        args[0].backend.gate(sum(a.degree for a in args))
        balanced = _grading(args)
        total = DiagonalElement.zero(graph)
        if balanced(0, n):
            total = self._table.moment(args)
            for block in _first_blocks(1, n, balanced):
                if len(block) < n:
                    val = self._block(args, block)
                    if val is not None and not val.is_zero:
                        total = total - val
        self._memo[args] = total
        return total


def cumulant_series(a: AlgebraElement, max_order: int) -> list[DiagonalElement]:
    """The brackets k_n(a, ..., a) for n = 1..max_order, from one
    functional whose memo the orders share.  A fock depth below
    ``max_order * a.degree`` raises DepthError before any bracket."""
    if max_order < 1:
        raise DomainError("max order must be positive")
    a.backend.gate(max_order * a.degree)
    f = CumulantFunctional()
    return [f.valuation((a,) * n) for n in range(1, max_order + 1)]


class ScanFinding(Record):
    """A nonzero mixed bracket and the pattern of its arguments."""

    order: int
    pattern: tuple[str, ...]
    value: DiagonalElement

    def json_form(self) -> dict:
        return {"order": self.order, "pattern": self.pattern, **self.value.json_form()}


class MixedScanReport(Record):
    """All nonzero mixed cumulants between two families, up to an order."""

    family_a: tuple[str, ...]
    family_b: tuple[str, ...]
    max_order: int
    tuples_checked: int
    nonzero: tuple[ScanFinding, ...]
    _json_keys = ("family_a", "family_b", "max_order", "tuples_checked", "nonzero",
                  "free_to_order")

    @property
    def free_to_order(self) -> bool:
        return not self.nonzero


def _adjoint_closure(family) -> list[AlgebraElement]:
    out = list(dict.fromkeys(family))
    return list(dict.fromkeys(out + [a.adjoint() for a in out]))


# The scan's walk recurses once per slot, and a bracket at its leaf at
# most twice more per slot (``valuation`` and ``_block`` per nested
# bracket, or ``_first_blocks``' ``grow``); the headroom is for the
# caller's frames and the arithmetic under the deepest bracket.
_FRAMES_PER_SLOT = 3
_FRAME_HEADROOM = 100


def mixed_cumulant_scan(family_a, family_b, max_order: int, *, labels=None) -> MixedScanReport:
    """Evaluate every mixed cumulant over the adjoint closures of two
    families, orders 1..max_order, and report the nonzero ones.

    The pool is closure A, then the rest of closure B; a tuple over it is
    mixed when at least one entry represents each family, and without
    mixed tuples (an empty family) the report is empty.  The fock depth
    is gated once, before any bracket, at a mixed tuple's largest degree.

    Tuples are walked depth-first in ``itertools.product`` order,
    carrying the reduced image of each prefix (``free_product``), and one
    stable sort by order puts the findings in report order.  Only mixed
    tuples of image 1 reach ``valuation``, and a prefix whose image is
    longer than its remaining slots times the longest pool image is not
    extended: every other bracket is zero.  When a pool element has no
    image (a sum), nothing is pruned and every mixed tuple goes to
    ``valuation``, which grades it.  ``tuples_checked`` counts all mixed
    tuples, by closed form.

    An order whose walk and brackets would need more frames than
    ``sys.getrecursionlimit()`` allows raises ArityBoundError first.
    """
    if max_order < 1:
        raise DomainError("max order must be positive")
    limit = sys.getrecursionlimit()
    reach = (limit - _FRAME_HEADROOM) // _FRAMES_PER_SLOT
    if max_order > reach:
        raise ArityBoundError(
            f"scan order {max_order} exceeds {reach}, the deepest the recursion limit "
            f"{limit} allows"
        )
    closed_a = _adjoint_closure(family_a)
    closed_b = _adjoint_closure(family_b)
    labels = dict(labels or {})

    def label(x: AlgebraElement) -> str:
        return labels.get(x, str(x))

    pool = list(dict.fromkeys(closed_a + closed_b))
    findings: list[ScanFinding] = []
    if closed_a and closed_b:
        smaller, larger = sorted(max(x.degree for x in c) for c in (closed_a, closed_b))
        pool[0].backend.gate((max_order - 1) * larger + smaller)
        in_a, in_b = set(closed_a), set(closed_b)
        images = [x.image for x in pool]
        if None in images:
            # A sum has no image: every tuple counts as balanced, and each
            # bracket grades itself.
            images = [()] * len(pool)
        longest = max(map(len, images))
        steps = [(x, image, x in in_a, x in in_b) for x, image in zip(pool, images)]
        f = CumulantFunctional()

        def walk(prefix, word, has_a, has_b):
            n = len(prefix)
            if has_a and has_b and not word:
                val = f.valuation(prefix)
                if not val.is_zero:
                    findings.append(ScanFinding(n, tuple(label(x) for x in prefix), val))
            if n >= max_order:
                return
            room = (max_order - n - 1) * longest
            for x, image, a, b in steps:
                nxt = free_product(word, image)
                if len(nxt) <= room:
                    walk(prefix + (x,), nxt, has_a or a, has_b or b)

        walk((), (), False, False)
    size, out_a, out_b = len(pool), len(pool) - len(closed_a), len(pool) - len(closed_b)
    checked = sum(size**n - out_a**n - out_b**n for n in range(1, max_order + 1))
    return MixedScanReport(
        tuple(label(x) for x in closed_a),
        tuple(label(x) for x in closed_b),
        max_order,
        checked,
        tuple(sorted(findings, key=lambda finding: finding.order)),
    )
