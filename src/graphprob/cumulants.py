"""Non-crossing partitions and diagonal-valued moment/cumulant transforms.

The bracket convention: a nested sub-partition's value right-multiplies
the argument to its left inside the enclosing block, and outer blocks
multiply left to right in the diagonal.  With that convention the
subtraction recursion

    k_n(a_1, ..., a_n) = E(a_1 ... a_n) - sum over proper non-crossing
    partitions of the nested lower brackets

inverts exactly, without Moebius coefficients.  Every such sum is taken
by the first-block recursion: per span, each block holding its first
position, with gap and tail sums computed once, so a top-level bracket
visits at most 2^(n-1) - 1 first blocks, not Catalan(n) - 1 partitions.

Brackets are graded by the free-group image (``AlgebraElement.image``):
products multiply images and E keeps only image 1, so a bracket whose
arguments' images multiply to something else is zero.  Where the images
are known, a bracket evaluates only balanced tuples and visits only the
first blocks whose gaps and tail are balanced, and a mixed scan walks
only the prefixes that can still balance.  An unknown image (a sum of
differently graded terms) counts as balanced.  ``enumerate_nc`` and
``nested_evaluate`` remain as the ungraded brute-force reference.

A bracket's moment ``E(a_1 ... a_n)`` joins the prefix product
``a_1 ... a_(n-1)`` with ``a_n`` on vertex terms.  Prefix products are
memoized per argument prefix, so sibling tuples and nested brackets
share them, and each is cut to the terms E can still see
(``AlgebraElement.visible``).
"""

from __future__ import annotations

import itertools
import math

from .errors import ArityBoundError, DomainError
from .algebra import AlgebraElement, DiagonalElement, SeriesTerm  # noqa: F401  (re-exported)
from .operators import free_product
from .records import Record

NC_ENUMERATION_LIMIT = 10


def catalan(k: int) -> int:
    """The k-th Catalan number C(2k, k) / (k + 1)."""
    if k < 0:
        raise DomainError("catalan numbers need k >= 0")
    return math.comb(2 * k, k) // (k + 1)


def _blocks_cross(b1, b2) -> bool:
    # Merge the two blocks and count label alternations; three or more
    # switches is exactly the a < b < c < d interleaving pattern.
    merged = sorted([(p, 0) for p in b1] + [(p, 1) for p in b2])
    switches = 0
    for i in range(1, len(merged)):
        if merged[i][1] != merged[i - 1][1]:
            switches += 1
    return switches >= 3


class NCPartition(Record):
    """A non-crossing partition of {1, ..., n}, blocks ordered by minimum."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        last_min = 0
        for block in self.blocks:
            if not block:
                raise DomainError("empty block")
            if any(b <= a for a, b in zip(block, block[1:])):
                raise DomainError("block elements must increase")
            if block[0] <= last_min:
                raise DomainError("blocks must be ordered by their minima")
            last_min = block[0]
            seen.update(block)
        total = sum(len(block) for block in self.blocks)
        if seen != set(range(1, self.n + 1)) or total != self.n:
            raise DomainError(f"blocks do not partition 1..{self.n}")
        for b1, b2 in itertools.combinations(self.blocks, 2):
            if _blocks_cross(b1, b2):
                raise DomainError(f"crossing blocks: {b1} and {b2}")

    @property
    def is_full(self) -> bool:
        return len(self.blocks) == 1

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


def _first_blocks(lo: int, hi: int, balanced=lambda i, j: True) -> list[tuple[int, ...]]:
    """The blocks of {lo..hi} that contain lo: by size, then lexicographically.

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
    out.sort(key=len)
    return out


def _nc_of(lo: int, hi: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    if lo > hi:
        return ((),)
    out = []
    for head in _first_blocks(lo, hi):
        ends = head[1:] + (hi + 1,)
        parts = [_nc_of(b + 1, e - 1) for b, e in zip(head, ends)]
        for combo in itertools.product(*parts):
            out.append(tuple(sorted((head,) + sum(combo, ()))))
    return tuple(out)


def enumerate_nc(n: int) -> tuple[NCPartition, ...]:
    """All non-crossing partitions of {1..n}; |result| is the n-th Catalan
    number.  The brute-force reference for the bracket recursion, which
    never enumerates; the limit caps this enumeration only."""
    if n < 1:
        raise DomainError("non-crossing partitions need n >= 1")
    if n > NC_ENUMERATION_LIMIT:
        raise ArityBoundError(f"enumeration bound exceeded: {n} > {NC_ENUMERATION_LIMIT}")
    return tuple(NCPartition(n, blocks) for blocks in _nc_of(1, n))


class CumulantSource:
    """Order-indexed brackets with diagonal values, summed over nestings.

    Subclasses supply ``valuation(args)``.  A nested gap's value dresses
    the argument to its left as ``arg * diag``, the right D_G action, so
    the arguments a source takes must define ``*`` by a diagonal element.
    """

    def valuation(self, args) -> DiagonalElement:
        raise NotImplementedError


def _nestings(args, source: CumulantSource, first_blocks) -> DiagonalElement:
    """Sum the nestings of brackets on positions 1..n whose block at the
    start of each span (lo, hi) is one of ``first_blocks(lo, hi)``; each
    span's sum is computed once per call, and a span with no block is
    zero.  A slot before a gap is dressed as ``arg * span(gap)``."""
    memo: dict = {}

    def span(lo: int, hi: int) -> DiagonalElement:
        if (lo, hi) in memo:
            return memo[lo, hi]
        total = None
        for block in first_blocks(lo, hi):
            slots = []
            for b, nxt in zip(block, block[1:] + (None,)):
                arg = args[b - 1]
                if nxt is not None and nxt > b + 1:
                    arg = arg * span(b + 1, nxt - 1)
                slots.append(arg)
            val = source.valuation(tuple(slots))
            if block[-1] < hi and not val.is_zero:
                val = val * span(block[-1] + 1, hi)
            total = val if total is None else total + val
        if total is None:
            total = DiagonalElement.zero(args[0].graph)
        memo[lo, hi] = total
        return total

    return span(1, len(args))


def nested_evaluate(pi: NCPartition, args, source: CumulantSource) -> DiagonalElement:
    """Evaluate one non-crossing nesting of brackets; summed over
    ``enumerate_nc``, the brute-force reference for the recursion.

    Outer blocks multiply left to right; inside a block, the value of the
    sub-partition nested in a gap right-multiplies the argument before
    the gap.
    """
    args = tuple(args)
    if len(args) != pi.n:
        raise DomainError(
            f"arity mismatch: partition of {pi.n}, {len(args)} arguments"
        )
    starting = {block[0]: block for block in pi.blocks}
    return _nestings(args, source, lambda lo, hi: (starting[lo],))


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


class CumulantFunctional(CumulantSource):
    """The cumulants of algebra elements, by the graded first-block
    recursion.

    Values are memoized per argument tuple, and the prefix products
    a_1...a_k per argument prefix, each cut to the terms E can still see
    (``AlgebraElement.visible``); so one functional instance shared
    across a scan or a series avoids recomputing lower brackets and
    shared prefixes.  The depth gate takes the arguments' total degree,
    the bound on every product's degree, before a bracket is evaluated.
    """

    def __init__(self):
        self._memo: dict = {}
        self._prefixes: dict = {}

    def _prefix(self, args) -> AlgebraElement:
        """The product of ``args`` cut to its visible creation words."""
        prod = self._prefixes.get(args)
        if prod is None:
            prod = args[0] if len(args) == 1 else self._prefix(args[:-1]) * args[-1]
            prod = self._prefixes[args] = prod.visible("creation")
        return prod

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
            if n == 1:
                total = args[0].expectation()
            else:
                # The last factor only feeds the expectation, so it is
                # joined on vertex terms instead of multiplied out.
                total = self._prefix(args[:-1]).expect_product(args[-1])

                # Gaps and tails of graded blocks are balanced spans, so
                # every span the walk reaches is balanced.
                def proper(lo, hi):
                    return [b for b in _first_blocks(lo, hi, balanced) if len(b) < n]

                total = total - _nestings(args, self, proper)
        self._memo[args] = total
        return total


def cumulant_series(a: AlgebraElement, max_order: int) -> list[DiagonalElement]:
    """The brackets k_n(a, ..., a) for n = 1..max_order, from one
    functional whose memo the orders share.  A fock depth below
    ``max_order * a.degree`` raises DepthError before any bracket."""
    a.backend.gate(max_order * a.degree)
    f = CumulantFunctional()
    return [f.valuation((a,) * n) for n in range(1, max_order + 1)]


def moment_to_cumulant(args) -> DiagonalElement:
    """k_n of a tuple of algebra elements."""
    return CumulantFunctional().valuation(tuple(args))


def cumulant_to_moment(args, source: CumulantSource) -> DiagonalElement:
    """Sum of all non-crossing nestings: restores E(a_1 ... a_n) when the
    source is the cumulant functional of the same elements."""
    args = tuple(args)
    if not args:
        raise DomainError("empty argument tuple")
    return _nestings(args, source, _first_blocks)


class DressedTag(Record):
    """Opaque argument for abstract sources, carrying the diagonal
    dressing accumulated from nested gaps."""

    tag: str
    right: DiagonalElement

    def __str__(self) -> str:
        return self.tag

    def __mul__(self, diag: DiagonalElement) -> "DressedTag":
        return DressedTag(self.tag, self.right * diag)


def dressed_tags(graph, tags) -> tuple[DressedTag, ...]:
    unit = DiagonalElement.unit(graph)
    return tuple(DressedTag(t, unit) for t in tags)


class PairSource(CumulantSource):
    """Abstract bracket family whose only nonzero order is two: every
    pair evaluates to one fixed diagonal value times the dressings its
    slots accumulated."""

    def __init__(self, pair_value: DiagonalElement):
        self.pair_value = pair_value
        self.graph = pair_value.graph

    def valuation(self, args) -> DiagonalElement:
        if len(args) != 2:
            return DiagonalElement.zero(self.graph)
        out = self.pair_value
        for slot in args:
            out = out * slot.right
        return out


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


def mixed_cumulant_scan(family_a, family_b, max_order: int, *, labels=None) -> MixedScanReport:
    """Evaluate every mixed cumulant over the adjoint closures of two
    families, orders 1..max_order, and report the nonzero ones.

    The pool is closure A, then the rest of closure B; a tuple over it is
    mixed when at least one entry represents each family, and without
    mixed tuples (an empty family) the report is empty.  The fock depth
    is gated once, before any bracket, at a mixed tuple's largest degree.

    Tuples are walked depth-first in ``itertools.product`` order, each
    order's findings in turn, carrying the reduced image of each prefix
    (``free_product``).  Only mixed tuples of image 1 reach
    ``valuation``, and a prefix whose image is longer than its remaining
    slots times the longest pool image is not extended: every other
    bracket is zero.  When a pool element has no image (a sum), nothing
    is pruned and every mixed tuple goes to ``valuation``, which grades
    it.  ``tuples_checked`` counts all mixed tuples, by closed form.
    """
    closed_a = _adjoint_closure(family_a)
    closed_b = _adjoint_closure(family_b)
    labels = dict(labels or {})

    def label(x: AlgebraElement) -> str:
        return labels.get(x, str(x))

    pool = list(dict.fromkeys(closed_a + closed_b))
    findings: list[list[ScanFinding]] = [[] for _ in range(max_order + 1)]
    if closed_a and closed_b:
        smaller, larger = sorted(max(x.degree for x in c) for c in (closed_a, closed_b))
        pool[0].backend.gate((max_order - 1) * larger + smaller)
        in_a, in_b = set(closed_a), set(closed_b)
        images = [x.image for x in pool]
        if None in images:
            # A sum has no image: every tuple counts as balanced, and each
            # bracket grades itself.
            images = [()] * len(pool)
        reach = max(map(len, images))
        steps = [(x, image, x in in_a, x in in_b) for x, image in zip(pool, images)]
        f = CumulantFunctional()

        def walk(prefix, word, has_a, has_b):
            n = len(prefix)
            if has_a and has_b and not word:
                val = f.valuation(prefix)
                if not val.is_zero:
                    findings[n].append(ScanFinding(n, tuple(label(x) for x in prefix), val))
            if n >= max_order:
                return
            room = (max_order - n - 1) * reach
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
        tuple(itertools.chain.from_iterable(findings)),
    )
