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
first blocks whose gaps and tail are balanced.  An unknown image (a sum
of differently graded terms) counts as balanced.  ``enumerate_nc`` and
``nested_evaluate`` remain as the ungraded brute-force reference.
"""

from __future__ import annotations

import itertools
import math

from .errors import ArityBoundError, DomainError
from .algebra import AlgebraElement, DiagonalElement
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

    Subclasses supply ``valuation(args)``; ``absorb(arg, diag)`` dresses
    an argument with a diagonal factor on the right, algebra
    multiplication by default.
    """

    def valuation(self, args) -> DiagonalElement:
        raise NotImplementedError

    def absorb(self, arg, diag: DiagonalElement):
        return arg * diag


def _nestings(args, source: CumulantSource, first_blocks) -> DiagonalElement:
    """Sum the nestings of brackets on positions 1..n whose block at the
    start of each span (lo, hi) is one of ``first_blocks(lo, hi)``; each
    span's sum is computed once per call, and a span with no block is
    zero."""
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
                    arg = source.absorb(arg, span(b + 1, nxt - 1))
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

    Values are memoized per argument tuple, so one functional instance
    shared across a scan avoids recomputing lower brackets.  The depth
    gate takes the arguments' total degree, the bound on every product's
    degree, before a bracket is evaluated.
    """

    def __init__(self):
        self._memo: dict = {}

    def valuation(self, args) -> DiagonalElement:
        args = tuple(args)
        n = len(args)
        if n == 0:
            raise DomainError("empty argument tuple")
        graph = args[0].graph
        if any(a.is_zero for a in args):
            return DiagonalElement.zero(graph)
        cached = self._memo.get(args)
        if cached is not None:
            return cached
        args[0].backend.gate(sum(a.degree for a in args))
        balanced = _grading(args)
        total = DiagonalElement.zero(graph)
        if balanced(0, n):
            # The last factor only feeds the expectation, so it is joined
            # on vertex terms instead of multiplied out.
            prod = args[0]
            for a in args[1:-1]:
                prod = prod * a
                if prod.is_zero:
                    break
            total = prod.expect_product(args[-1]) if n > 1 else prod.expectation()
            if n > 1:
                # Gaps and tails of graded blocks are balanced spans, so
                # every span the walk reaches is balanced.
                def proper(lo, hi):
                    return [b for b in _first_blocks(lo, hi, balanced) if len(b) < n]

                total = total - _nestings(args, self, proper)
        self._memo[args] = total
        return total


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

    def absorb(self, arg: DressedTag, diag: DiagonalElement) -> DressedTag:
        return DressedTag(arg.tag, arg.right * diag)


class SeriesTerm(Record):
    """The diagonal value at one order of a moment or cumulant series."""

    order: int
    value: DiagonalElement

    def json_form(self) -> dict:
        return {"order": self.order, **self.value.json_form()}


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

    A tuple is mixed when at least one entry represents each family;
    without mixed tuples (an empty family) the report is empty.
    """
    closed_a = _adjoint_closure(family_a)
    closed_b = _adjoint_closure(family_b)
    labels = dict(labels or {})

    def label(x: AlgebraElement) -> str:
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
                findings.append(
                    ScanFinding(n, tuple(label(x) for x in tup), val)
                )
    return MixedScanReport(
        tuple(label(x) for x in closed_a),
        tuple(label(x) for x in closed_b),
        max_order,
        checked,
        tuple(findings),
    )
