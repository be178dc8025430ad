"""Structure checkers and comparison reports.

Every checker recomputes through the public algebra operations, so a
report is reproducible from its inputs.  The audit table compares stated
reference identities for these algebras against the values each backend
actually computes; disagreement is data, not an error.

Each report renders as text with ``to_text`` and as JSON with
``to_json_dict``, the ``records.to_json`` walk.  Both names are bound in
each report class's own body, where tracing tools wrap them.
"""

from __future__ import annotations

import itertools

from .algebra import AlgebraElement, DiagonalElement, SeriesTerm, faithfulness_probe
from .cumulants import (
    CumulantFunctional, MixedScanReport, ScanFinding, cumulant_series, mixed_cumulant_scan,
)
from .errors import DomainError
from .graphs import Graph, PathWord, classify_edges, diagram_distinct
from .operators import Backend
from .records import Record, to_json
# The decomposition and the text table live in structure; re-exported here.
from .structure import (  # noqa: F401
    BasicLoopRow, DecompositionReport, DiagonalBlock, EdgeBlock, decompose, format_table,
)


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
    if not a.is_self_adjoint():
        raise DomainError("semicircularity check needs a self-adjoint element")
    values = cumulant_series(a, max_order)
    k2 = values[1] if max_order >= 2 else DiagonalElement.zero(a.graph)
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


def check_r_diagonal(
    graph: Graph, backend: Backend, word: PathWord, max_order: int
) -> RDiagonalReport:
    """Scan every bracket over {L[w], L*[w]} up to max_order; R-diagonal
    means nonzero brackets occur only on even alternating patterns."""
    if word.is_vertex:
        raise DomainError("R-diagonality concerns path generators, not vertices")
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
        sorted({w for x in family for w in x.support().path_support}, key=PathWord.key)
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


# ==== stated-vs-computed audit ====


class AuditRow(Record):
    id: str
    claim: str
    stated: str
    computed: dict
    verdict: str


class AuditReport(Record):
    graph: str
    backends: tuple[str, ...]
    rows: tuple[AuditRow, ...]

    to_json_dict = to_json

    def to_text(self) -> str:
        headers = ["id", "claim", "stated"] + list(self.backends) + ["verdict"]
        rows = []
        for r in self.rows:
            rows.append(
                [r.id, r.claim, r.stated]
                + [r.computed[b] for b in self.backends]
                + [r.verdict]
            )
        return "\n".join(
            [f"stated-vs-computed audit  [{self.graph}]", format_table(headers, rows)]
        )


def _verdict(matches) -> str:
    vals = set(matches)
    if vals == {True}:
        return "match"
    if vals == {False}:
        return "mismatch"
    return "backend-dependent"


def _variance(graph: Graph, backend: Backend, word: PathWord) -> DiagonalElement:
    a = AlgebraElement.symmetrized_generator(graph, backend, word)
    return CumulantFunctional().valuation((a, a))


def _half_variance(graph: Graph, backend: Backend, word: PathWord) -> DiagonalElement:
    from fractions import Fraction  # the audit's only non-integral value

    return _variance(graph, backend, word) * Fraction(1, 2)


def _fourth_moment(graph: Graph, backend: Backend, word: PathWord) -> DiagonalElement:
    return AlgebraElement.symmetrized_generator(graph, backend, word).moments(4)[3]


def _vertex_multiple(coeff, value_of):
    """A row whose diagonal value_of(graph, backend, word) should equal
    coeff times the unit at the subject's vertex."""

    def compute(graph, backend, word, vertex):
        value = value_of(graph, backend, word)
        return str(value), value == DiagonalElement.vertex_unit(graph, vertex, coeff)

    return compute


def _range_projection(graph, backend, word, vertex):
    lw = AlgebraElement.generator(graph, backend, word)
    prod = lw * lw.adjoint()
    return str(prod), prod == AlgebraElement.vertex_projection(graph, backend, vertex)


def _faithful(graph, backend, word, vertex):
    samples = [
        AlgebraElement.generator(graph, backend, word),
        AlgebraElement.generator(graph, backend, word, starred=True),
    ]
    probe = faithfulness_probe(graph, backend, samples)
    if probe.faithful_on_samples:
        return "no counterexamples", True
    return f"counterexample: a = {probe.counterexamples[0]}", False


def _semicircular(graph, backend, word, vertex):
    rep = check_semicircular(AlgebraElement.symmetrized_generator(graph, backend, word), 6)
    if rep.verdict:
        return "verdict true", True
    orders = ",".join(str(t.order) for t in rep.offenders)
    return f"verdict false (nonzero at orders {orders})", False


# The audit rows in order: (id, subject, claim, stated, compute).  The
# subject is the graph's first edge ("edge") or first loop edge ("loop");
# a row is skipped when the graph has none.  Claim and stated text are
# formatted with the subject's word {w} and initial vertex {v}, and
# compute(graph, backend, word, vertex) returns (computed text, matches).
_AUDIT_ROWS = (
    ("R1", "edge", "range projection: L[{w}]L*[{w}] equals the projection at @{v}",
     "1*L[@{v}]", _range_projection),
    ("R2", "loop", "second bracket of a = L[{w}] + L*[{w}] equals 2*L[@{v}]",
     "2*L[@{v}]", _vertex_multiple(2, _variance)),
    ("R3", "loop", "fourth moment E(a^4) of a = L[{w}] + L*[{w}] equals 8*L[@{v}]",
     "8*L[@{v}]", _vertex_multiple(8, _fourth_moment)),
    ("R4", "edge", "the diagonal compression is faithful: E(a* a) = 0 implies a = 0",
     "no counterexamples", _faithful),
    ("R5", "loop", "the symmetrized loop generator is semicircular "
     "(only the order-2 bracket is nonzero, checked to order 6)",
     "verdict true", _semicircular),
    ("R6", "loop", "halving the loop variance (squared 1/sqrt(2) normalization) "
     "gives the unit second bracket",
     "1*L[@{v}]", _vertex_multiple(1, _half_variance)),
)
# The fock depth each subject's rows need: the edge rows multiply two
# degree-1 factors, and R5 takes brackets of order 6 of a loop generator.
AUDIT_DEPTHS = {"edge": 2, "loop": 6}


def claims_audit(graph: Graph, backends) -> AuditReport:
    """Audit rows R1..R6 where the graph supplies a subject.

    R1 and R4 need any edge, the loop rows R2, R3, R5, R6 need a loop
    edge; a fock depth too small for the rows that run raises DepthError
    before any row runs.  Mismatching rows are reported, never raised.
    """
    backends = list(backends)
    kinds = [b.kind for b in backends]
    if len(set(kinds)) != len(kinds):
        raise DomainError("one backend per kind in an audit")
    loops = classify_edges(graph).eloop
    subjects = {
        "edge": graph.edges[0] if graph.edges else None,
        "loop": graph.edge(loops[0]) if loops else None,
    }
    need = max([AUDIT_DEPTHS[s] for s, edge in subjects.items() if edge], default=0)
    for b in backends:
        b.gate(need)
    rows = []
    for rid, subject, claim, stated, compute in _AUDIT_ROWS:
        edge = subjects[subject]
        if edge is None:
            continue
        word = PathWord.from_edges(graph, [edge.id])
        v = edge.initial
        results = {b.kind: compute(graph, b, word, v) for b in backends}
        rows.append(
            AuditRow(
                rid,
                claim.format(w=word, v=v),
                stated.format(v=v),
                {kind: text for kind, (text, _) in results.items()},
                _verdict(ok for _, ok in results.values()),
            )
        )
    return AuditReport(graph.summary(), tuple(kinds), tuple(rows))
