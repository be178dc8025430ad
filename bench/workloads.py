"""The benchmark's workloads: fixed ``graphprob`` CLI operations and the
checks their outputs must pass.

Every input is a bundled fixture; nothing here depends on a random seed.
Each check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

FIXTURES = (
    "bouquet3",
    "c3",
    "lollipop",
    "loops_bridge",
    "one_loop",
    "parallel_edges",
    "single_edge",
)


@dataclass(frozen=True)
class Build:
    """One element the operation builds: fixture, expression, backend, fock depth."""

    fixture: str
    element: str
    backend: str
    depth: int = 0


@dataclass(frozen=True)
class Operation:
    """``graphprob`` arguments (the graph file comes first), the output
    check, and the elements the operation builds before its real work."""

    argv: tuple[str, ...]
    check: Callable[[str, Path], list[str]]
    builds: tuple[Build, ...] = field(default=())

    @property
    def fixture(self) -> str:
        return Path(self.argv[1]).stem


def _graph(root: Path, fixture: str):
    return oracles.read_graph((root / "fixtures" / f"{fixture}.graph").read_text())


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


# ---- moments-fock ----


def check_bouquet_moments(out: str, root: Path) -> list[str]:
    problems: list[str] = []
    data = json.loads(out)
    _expect(problems, "backend", data["backend"], {"kind": "fock", "depth": 8})
    _expect(problems, "orders", [m["order"] for m in data["moments"]], list(range(1, 9)))
    for m in data["moments"]:
        want = oracles.semicircle_sum_moment(m["order"], 3)
        _expect(problems, f"E(a^{m['order']})", m["coeffs"], oracles.coeffs_json({"v": want}))
    return problems


# ---- bracket-scan ----


def check_parallel_freeness(out: str, root: Path) -> list[str]:
    problems: list[str] = []
    data = json.loads(out)
    scan = data["scan"]
    _expect(problems, "tuples_checked", scan["tuples_checked"], oracles.mixed_tuple_count(2, 2, 6))
    _expect(problems, "nonzero mixed cumulants", scan["nonzero"], [])
    _expect(problems, "free_to_order", data["free_to_order"], True)
    _expect(problems, "prediction", data["prediction"], "diagram-distinct")
    _expect(problems, "agreement", data["agreement"], "agree")
    return problems


def check_edge_rdiagonal(out: str, root: Path) -> list[str]:
    problems: list[str] = []
    data = json.loads(out)
    _expect(problems, "verdict", data["verdict"], True)
    want = []
    for k in range(1, 7 // 2 + 1):
        value = oracles.partial_isometry_cumulant(k)
        for first, other, vertex in (("a", "a*", "v1"), ("a*", "a", "v2")):
            want.append((2 * k, [first, other] * k, oracles.coeffs_json({vertex: value})))
    got = [(f["order"], f["pattern"], f["coeffs"]) for f in data["nonzero"]]
    _expect(problems, "nonzero brackets", got, want)
    return problems


# ---- audit-sweep ----


def check_decompose(fixture: str):
    def check(out: str, root: Path) -> list[str]:
        problems: list[str] = []
        _, edges = _graph(root, fixture)
        data = json.loads(out)
        _expect(problems, "block_count", data["block_count"], 1 + len(edges))
        got_blocks = [(b["edge"], b["kind"]) for b in data["edge_blocks"]]
        want_blocks = [(e, "loop" if a == b else "nonloop") for e, a, b in edges]
        _expect(problems, "edge blocks", got_blocks, want_blocks)
        _expect(problems, "loop_length_bound", data["loop_length_bound"], 3)
        words = [row["word"] for row in data["basic_loops"]]
        _expect(problems, "basic loops", sorted(words), sorted(oracles.primitive_closed_words(edges, 3)))
        _expect(problems, "basic loops listed once", len(words), len(set(words)))
        starts = {e: a for e, a, _ in edges}
        for row in data["basic_loops"]:
            _expect(problems, f"vertex of {row['word']}", row["vertex"], starts[row["word"].split(".")[0]])
        return problems

    return check


def _audit_values(edges, backend: str) -> dict[str, str]:
    """The computed column the audit must show for ``backend``: every row
    on fock, and on axiomatic only when no vertex branches, where the
    axiomatic product is associative."""
    w, start = edges[0][0], edges[0][1]
    loops = [a for _, a, b in edges if a == b]
    want: dict[str, str] = {}
    diagonal: dict[str, dict] = {}
    if backend == "fock":
        want["R1"] = f"1*L[{w}]L*[{w}]"
        want["R4"] = f"counterexample: a = 1*L*[{w}]"
        if loops:
            diagonal = {
                "R2": {loops[0]: oracles.semicircle_sum_moment(2, 1)},
                "R3": {loops[0]: oracles.semicircle_sum_moment(4, 1)},
                "R6": {loops[0]: Fraction(1, 2)},
            }
            want["R5"] = "verdict true"
    elif not oracles.branching(edges):
        want["R1"] = oracles.diagonal_text({start: 1})
        want["R4"] = "no counterexamples"
        if loops:
            ks = oracles.free_cumulants([oracles.arcsine_moment(n) for n in range(1, 7)])
            diagonal = {
                "R2": {loops[0]: ks[1]},
                "R3": {loops[0]: oracles.arcsine_moment(4)},
                "R6": {loops[0]: ks[1] / 2},
            }
            offenders = ",".join(str(n) for n, k in enumerate(ks, start=1) if k and n != 2)
            want["R5"] = f"verdict false (nonzero at orders {offenders})"
    for rid, coeffs in diagonal.items():
        want[rid] = oracles.diagonal_text(coeffs)
    return want


def check_audit(fixture: str):
    """Rows R1/R4 exist whenever there is an edge, R2/R3/R5/R6 when there
    is a loop, each verdict agrees with the stated and computed strings,
    and the computed values are those of ``_audit_values``."""

    def check(out: str, root: Path) -> list[str]:
        problems: list[str] = []
        _, edges = _graph(root, fixture)
        data = json.loads(out)
        backends = ["axiomatic", "fock"]
        _expect(problems, "backends", data["backends"], backends)
        rows = {r["id"]: r for r in data["rows"]}
        loops = any(a == b for _, a, b in edges)
        want_ids = ["R1", "R4"] + (["R2", "R3", "R5", "R6"] if loops else [])
        _expect(problems, "row ids", sorted(rows), sorted(want_ids))
        for r in data["rows"]:
            same = [r["computed"][b] == r["stated"] for b in backends]
            verdict = "match" if all(same) else "mismatch" if not any(same) else "backend-dependent"
            _expect(problems, f"{r['id']} verdict", r["verdict"], verdict)
        for backend in backends:
            for rid, value in _audit_values(edges, backend).items():
                if rid in rows:
                    _expect(problems, f"{rid} {backend}", rows[rid]["computed"][backend], value)
        return problems

    return check


def _first_edge_builds(fixture: str, root: Path) -> tuple[Build, ...]:
    _, edges = _graph(root, fixture)
    e = edges[0][0]
    return (Build(fixture, f"a:{e}", "axiomatic"), Build(fixture, f"a:{e}", "fock", 8))


def workloads(root: Path) -> dict[str, list[Operation]]:
    """Workload name -> its operations, in the order one round runs them."""
    fx = "fixtures/{}.graph".format
    audit_ops = []
    for name in FIXTURES:
        audit_ops.append(
            Operation(("audit", fx(name), "--format", "json"), check_audit(name), _first_edge_builds(name, root))
        )
        audit_ops.append(
            Operation(("decompose", fx(name), "--format", "json"), check_decompose(name))
        )
    return {
        "moments-fock": [
            Operation(
                ("moments", fx("bouquet3"), "a:l1+a:l2+a:l3", "--max-order", "8", "--format", "json"),
                check_bouquet_moments,
                (Build("bouquet3", "a:l1+a:l2+a:l3", "fock", 8),),
            ),
        ],
        "bracket-scan": [
            Operation(
                (
                    "check-freeness", fx("parallel_edges"),
                    "--family-a", "L[e1]", "--family-b", "L[e2]",
                    "--max-order", "6", "--format", "json",
                ),
                check_parallel_freeness,
                (Build("parallel_edges", "L[e1]", "fock", 6), Build("parallel_edges", "L[e2]", "fock", 6)),
            ),
            Operation(
                ("check-rdiagonal", fx("single_edge"), "e", "--max-order", "7", "--backend", "axiomatic", "--format", "json"),
                check_edge_rdiagonal,
                (Build("single_edge", "L[e]", "axiomatic"), Build("single_edge", "L*[e]", "axiomatic")),
            ),
        ],
        "audit-sweep": audit_ops,
    }

