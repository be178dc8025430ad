"""Explicit sums over non-crossing nestings of brackets.

``cumulant_to_moment`` sums every nesting of a source's brackets, span
by span over first blocks, and restores the moment when the source is
``CumulantFunctional``.  ``PairSource`` and ``DressedTag`` are an
abstract pair law whose slots carry their dressings.  ``enumerate_nc``,
``NCPartition`` and ``nested_evaluate`` (one nesting) are the
brute-force reference the tests compare the bracket recursion with.
No command calls these, so the commands that take brackets do not
compile this module.  ``cumulants`` re-exports, on first use, only the
names a tracing tool reads through it; the rest are read from here.
"""

from __future__ import annotations

import itertools
import math

from .algebra import DiagonalElement
from .cumulants import CumulantFunctional, _first_blocks
from .errors import ArityBoundError, DomainError
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


def _nestings(args, source, first_blocks) -> DiagonalElement:
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


def nested_evaluate(pi: NCPartition, args, source) -> DiagonalElement:
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


def moment_to_cumulant(args) -> DiagonalElement:
    """k_n of a tuple of algebra elements."""
    return CumulantFunctional().valuation(tuple(args))


def cumulant_to_moment(args, source) -> DiagonalElement:
    """Sum of all non-crossing nestings of ``source.valuation`` brackets:
    E(a_1 ... a_n) when the source is ``CumulantFunctional``.  A gap's
    value dresses the slot to its left as ``arg * diag`` (right D_G action)."""
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


class PairSource:
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
