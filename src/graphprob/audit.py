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
from .cumulants import CumulantFunctional
from .errors import DomainError
from .graphs import Graph, PathWord, classify_edges
from .operators import Backend
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
    bad = faithfulness_probe(samples)
    if not bad:
        return "no counterexamples", True
    return f"counterexample: a = {bad[0]}", False


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
