"""Structure checkers and comparison reports.

Every checker recomputes through the public algebra operations, so a
report is reproducible from its inputs.

Each report renders as text with ``to_text`` and as JSON with
``to_json_dict``, the ``records.to_json`` walk.  Both names are bound in
each report class's own body, where tracing tools wrap them.  The text
table is ``records.format_table``, beside the JSON walk.  The entry
points and reports of the decomposition (``structure``) and the audit
(``audit``) are re-exported here on first use (PEP 562), so a check
compiles neither; their rows and blocks are read from those modules.
"""

from __future__ import annotations

import itertools

from . import _first_use
from .algebra import AlgebraElement, DiagonalElement, SeriesTerm
from .cumulants import MixedScanReport, ScanFinding, cumulant_series, mixed_cumulant_scan
from .errors import DomainError
from .graphs import Graph, PathWord, diagram_distinct
from .operators import Backend
from .records import Record, format_table, to_json

# The names of structure and audit that callers read through this
# module, each imported on first use.
__getattr__ = _first_use(globals(), {
    **dict.fromkeys(("DecompositionReport", "decompose"), "structure"),
    **dict.fromkeys(("AuditReport", "claims_audit"), "audit"),
})


def _findings_table(findings) -> str:
    rows = [[str(f.order), "(" + ", ".join(f.pattern) + ")", str(f.value)] for f in findings]
    return format_table(["order", "pattern", "value"], rows)


# ==== semicircularity ====


def build_semicircular_system(graph: Graph, backend: Backend, loops) -> list[AlgebraElement]:
    """Symmetrized generators L[l] + L*[l] for pairwise diagram-distinct loops."""
    loops = list(loops)
    for w in loops:
        if w.is_vertex or not w.is_loop:
            raise DomainError(f"not a loop: {w}")
    for w1, w2 in itertools.combinations(loops, 2):
        if not diagram_distinct(w1, w2):
            raise DomainError(f"loops are not diagram-distinct: {w1} and {w2}")
    return [AlgebraElement.symmetrized_generator(graph, backend, w) for w in loops]


class SemicircularReport(Record):
    element: str
    backend: str
    max_checked_order: int
    k2: DiagonalElement
    offenders: tuple[SeriesTerm, ...]
    verdict: bool

    to_json_dict = to_json

    def to_text(self) -> str:
        rows = [["2", str(self.k2), "variance"]]
        for t in self.offenders:
            rows.append([str(t.order), str(t.value), "offender"])
        table = format_table(["order", "bracket", "role"], rows)
        head = f"semicircularity of {self.element}  [{self.backend}]"
        tail = (
            f"verdict: semicircular to order {self.max_checked_order}"
            if self.verdict
            else f"verdict: not semicircular (nonzero brackets besides order 2)"
        )
        return "\n".join([head, table, tail])


def check_semicircular(a: AlgebraElement, max_order: int) -> SemicircularReport:
    """Brackets k_n(a, ..., a) for n = 1..max_order; semicircular means
    the only nonzero bracket is the variance at order 2.  A fock depth
    below ``max_order * a.degree`` raises DepthError before any bracket."""
    if max_order < 2:
        raise DomainError("semicircularity needs max order at least 2")
    if not a.is_self_adjoint():
        raise DomainError("semicircularity check needs a self-adjoint element")
    values = cumulant_series(a, max_order)
    k2 = values[1]
    offenders = tuple(
        SeriesTerm(n, v) for n, v in enumerate(values, start=1) if n != 2 and not v.is_zero
    )
    return SemicircularReport(str(a), str(a.backend), max_order, k2, offenders, not offenders)


# ==== R-diagonality ====


class RDiagonalReport(Record):
    word: str
    backend: str
    max_checked_order: int
    nonzero: tuple[ScanFinding, ...]
    verdict: bool

    to_json_dict = to_json

    def to_text(self) -> str:
        table = _findings_table(self.nonzero)
        head = f"R-diagonality of a = L[{self.word}]  [{self.backend}]"
        tail = (
            "verdict: true (every nonzero bracket alternates a, a*)"
            if self.verdict
            else "verdict: false (nonzero bracket with a non-alternating pattern)"
        )
        return "\n".join([head, table, tail])


def _alternating(pattern: tuple[str, ...]) -> bool:
    if len(pattern) % 2:
        return False
    return all(pattern[i] != pattern[i + 1] for i in range(len(pattern) - 1))


def check_r_diagonal(graph: Graph, kind: str, word: PathWord, max_order: int) -> RDiagonalReport:
    """Scan every bracket over {L[w], L*[w]} up to max_order on the
    backend of that kind; R-diagonal means nonzero brackets occur only on
    even alternating patterns.  On fock the depth is ``|w| * max_order``,
    the degree bound the scan's tuples reach."""
    if max_order < 2:
        raise DomainError("R-diagonality needs max order at least 2")
    if word.is_vertex:
        raise DomainError("R-diagonality concerns path generators, not vertices")
    backend = Backend.of(kind, word.length * max_order)
    c = AlgebraElement.generator(graph, backend, word)
    s = AlgebraElement.generator(graph, backend, word, starred=True)
    # Each family's adjoint closure is {a, a*}, so every tuple is mixed.
    scan = mixed_cumulant_scan([c], [s], max_order, labels={c: "a", s: "a*"})
    verdict = all(_alternating(f.pattern) for f in scan.nonzero)
    return RDiagonalReport(str(word), str(backend), max_order, scan.nonzero, verdict)


# ==== freeness ====


class FreenessReport(Record):
    family_a: tuple[str, ...]
    family_b: tuple[str, ...]
    backend: str
    max_order: int
    scan: MixedScanReport
    prediction: str
    non_distinct_pairs: tuple[tuple[str, str], ...]
    agreement: str
    _json_keys = ("family_a", "family_b", "backend", "max_order", "scan", "free_to_order",
                  "prediction", "non_distinct_pairs", "agreement")

    @property
    def free_to_order(self) -> bool:
        return self.scan.free_to_order

    to_json_dict = to_json

    def to_text(self) -> str:
        head = (
            f"freeness of {{{', '.join(self.family_a)}}} vs "
            f"{{{', '.join(self.family_b)}}}  [{self.backend}]"
        )
        lines = [
            head,
            f"mixed tuples checked: {self.scan.tuples_checked} (orders 1..{self.max_order})",
            _findings_table(self.scan.nonzero),
            f"computed: {'free' if self.free_to_order else 'not free'} to order {self.max_order}",
            f"diagram prediction: {self.prediction}",
            f"agreement: {self.agreement}",
        ]
        return "\n".join(lines)


def check_freeness(family_a, family_b, max_order: int) -> FreenessReport:
    """Mixed-cumulant scan next to the diagram-distinctness prediction.

    The prediction compares the path words supporting each family: all
    cross pairs diagram-distinct predicts freeness.  Families supported
    only on vertices predict vacuously.
    """
    family_a = list(family_a)
    family_b = list(family_b)
    if not family_a or not family_b:
        raise DomainError("freeness check needs two nonempty families")
    backend = family_a[0].backend
    scan = mixed_cumulant_scan(family_a, family_b, max_order)
    words_a, words_b = (
        sorted({w for x in family for w in x.support()}, key=PathWord.key)
        for family in (family_a, family_b)
    )
    bad = tuple(
        (str(wa), str(wb))
        for wa in words_a
        for wb in words_b
        if not diagram_distinct(wa, wb)
    )
    prediction = "diagram-distinct" if not bad else "not-diagram-distinct"
    agreement = "agree" if scan.free_to_order == (not bad) else "disagree"
    return FreenessReport(
        scan.family_a,
        scan.family_b,
        str(backend),
        max_order,
        scan,
        prediction,
        bad,
        agreement,
    )
