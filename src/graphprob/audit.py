"""The stated-vs-computed audit: reference identities for these
algebras, stated as text, next to the values each backend computes.
Disagreement is data, not an error.

``claims_audit`` runs the rows R1..R6 on a graph's first edge and first
loop edge.  The checkers in ``analyzers`` do not need it, so they do not
compile it; ``analyzers`` re-exports its names on first use.
"""

from __future__ import annotations

from .algebra import AlgebraElement, DiagonalElement, faithfulness_probe
from .analyzers import check_semicircular
from .errors import DomainError
from .graphs import Graph, PathWord, classify_edges
from .operators import AXIOMATIC, FOCK, Backend
from .records import Record, format_table, to_json


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


def _edge_cells(graph, backend, word):
    """The edge rows R1 and R4 from one pair L[w], L*[w]: each row's
    (computed text, matches)."""
    lw = AlgebraElement.generator(graph, backend, word)
    lw_star = AlgebraElement.generator(graph, backend, word, starred=True)
    prod = lw * lw_star
    bad = faithfulness_probe([lw, lw_star])
    return {
        "R1": (str(prod), prod == AlgebraElement.vertex_projection(graph, backend, word.initial)),
        "R4": (f"counterexample: a = {bad[0]}", False) if bad else ("no counterexamples", True),
    }


def _loop_cells(graph, backend, word):
    """The loop rows R2, R3, R5 and R6 of a = L[w] + L*[w]: one
    semicircularity check to order 6, whose variance R2 and R6 read, and
    the fourth moment."""
    from fractions import Fraction  # the audit's only non-integral value

    a = AlgebraElement.symmetrized_generator(graph, backend, word)
    rep = check_semicircular(a, 6)

    def vertex_multiple(value, coeff):
        return str(value), value == DiagonalElement.vertex_unit(graph, word.initial, coeff)

    orders = ",".join(str(t.order) for t in rep.offenders)
    return {
        "R2": vertex_multiple(rep.k2, 2),
        "R3": vertex_multiple(a.moments(4)[3], 8),
        "R5": ("verdict true", True) if rep.verdict
        else (f"verdict false (nonzero at orders {orders})", False),
        "R6": vertex_multiple(rep.k2 * Fraction(1, 2), 1),
    }


# The audit rows in order: (id, subject, claim, stated).  The subject is
# the graph's first edge ("edge") or first loop edge ("loop"); a row is
# skipped when the graph has none.  Claim and stated text are formatted
# with the subject's word {w} and initial vertex {v}; ``_SUBJECT_CELLS``
# computes every row of a subject at once.
_AUDIT_ROWS = (
    ("R1", "edge", "range projection: L[{w}]L*[{w}] equals the projection at @{v}",
     "1*L[@{v}]"),
    ("R2", "loop", "second bracket of a = L[{w}] + L*[{w}] equals 2*L[@{v}]",
     "2*L[@{v}]"),
    ("R3", "loop", "fourth moment E(a^4) of a = L[{w}] + L*[{w}] equals 8*L[@{v}]",
     "8*L[@{v}]"),
    ("R4", "edge", "the diagonal compression is faithful: E(a* a) = 0 implies a = 0",
     "no counterexamples"),
    ("R5", "loop", "the symmetrized loop generator is semicircular "
     "(only the order-2 bracket is nonzero, checked to order 6)", "verdict true"),
    ("R6", "loop", "halving the loop variance (squared 1/sqrt(2) normalization) "
     "gives the unit second bracket", "1*L[@{v}]"),
)
_SUBJECT_CELLS = {"edge": _edge_cells, "loop": _loop_cells}
# The fock depth each subject's rows need: the edge rows multiply two
# degree-1 factors, and R5 takes brackets of order 6 of a loop generator.
AUDIT_DEPTHS = {"edge": 2, "loop": 6}


def claims_audit(graph: Graph, kinds=(AXIOMATIC, FOCK)) -> AuditReport:
    """Audit rows R1..R6 where the graph supplies a subject, one column
    per backend kind.  R1 and R4 need any edge, the loop rows R2, R3, R5,
    R6 need a loop edge.  The fock depth is the largest ``AUDIT_DEPTHS``
    entry of the graph's subjects, and each subject is evaluated once per
    backend.  Mismatching rows are reported, never raised.
    """
    kinds = tuple(kinds)
    if len(set(kinds)) != len(kinds):
        raise DomainError("one backend per kind in an audit")
    loops = classify_edges(graph).eloop
    firsts = {"edge": [e.id for e in graph.edges[:1]], "loop": loops[:1]}
    words = {s: PathWord.from_edges(graph, ids) for s, ids in firsts.items() if ids}
    depth = max([AUDIT_DEPTHS[s] for s in words], default=0)
    cells: dict = {}
    for backend in [Backend.of(kind, depth) for kind in kinds]:
        for subject, word in words.items():
            for rid, cell in _SUBJECT_CELLS[subject](graph, backend, word).items():
                cells.setdefault(rid, {})[backend.kind] = cell
    rows = tuple(
        AuditRow(
            rid,
            claim.format(w=words[subject], v=words[subject].initial),
            stated.format(v=words[subject].initial),
            {kind: text for kind, (text, _) in cells[rid].items()},
            _verdict(ok for _, ok in cells[rid].values()),
        )
        for rid, subject, claim, stated in _AUDIT_ROWS
        if subject in words
    )
    return AuditReport(graph.summary(), kinds, rows)
