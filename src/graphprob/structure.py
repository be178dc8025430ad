"""The free-product block picture of W*(G), read off the graph alone.

``decompose`` lists the blocks ``W*({L_e}, D_G)`` over the diagonal and
the basic loops they generate.  It needs only the graph and its paths,
so ``decompose``, the one command that loads this module, runs without
the algebra or the brackets.  Its text table is ``records.format_table``.
"""

from __future__ import annotations

from .errors import DomainError
from .graphs import Graph, enumerate_paths, primitive_root
from .records import Record, format_table, to_json


class DiagonalBlock(Record):
    vertices: tuple[str, ...]
    label: str


class EdgeBlock(Record):
    edge: str
    kind: str
    base: tuple[str, ...]
    structure: str
    hint: str | None


class BasicLoopRow(Record):
    word: str
    vertex: str
    factorization: tuple[str, ...]
    generated_by: tuple[str, ...]


class DecompositionReport(Record):
    """Free-product block picture: the diagonal plus one block per edge,
    with a finer view listing basic loops generated by those blocks."""

    diagonal: DiagonalBlock
    edge_blocks: tuple[EdgeBlock, ...]
    basic_loops: tuple[BasicLoopRow, ...]
    loop_length_bound: int
    notes: tuple[str, ...]
    _json_keys = ("diagonal", "edge_blocks", "basic_loops", "loop_length_bound", "block_count",
                  "notes")

    @property
    def block_count(self) -> int:
        return 1 + len(self.edge_blocks)

    to_json_dict = to_json

    def to_text(self) -> str:
        rows = [["diagonal", "-", " ".join(self.diagonal.vertices), self.diagonal.label, "-"]]
        for b in self.edge_blocks:
            rows.append([b.edge, b.kind, " ".join(b.base), b.structure, b.hint or "-"])
        table = format_table(["block", "kind", "base", "structure", "hint"], rows)
        loop_rows = [
            [r.word, r.vertex, ".".join(r.factorization), " ".join(r.generated_by)]
            for r in self.basic_loops
        ]
        loops = format_table(["basic loop", "vertex", "factorization", "generated by"], loop_rows)
        parts = [
            f"free product decomposition ({self.block_count} blocks)",
            table,
            f"basic loops to length {self.loop_length_bound}",
            loops,
        ]
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)


def decompose(graph: Graph, loop_length_bound: int = 3) -> DecompositionReport:
    """One block per edge over the common diagonal, with free-group-factor
    hints where several loop edges share a vertex."""
    if loop_length_bound < 1:
        raise DomainError("loop length bound must be positive")
    loops_at: dict[str, int] = {}
    for e in graph.edges:
        if e.is_loop:
            loops_at[e.initial] = loops_at.get(e.initial, 0) + 1
    blocks = []
    for e in graph.edges:
        if e.is_loop:
            k = loops_at[e.initial]
            blocks.append(
                EdgeBlock(
                    e.id,
                    "loop",
                    (e.initial,),
                    f"(W*({{L[{e.id}]}}), tr) ⊗ (D_G, 1)",
                    f"L(F_{k})",
                )
            )
        else:
            blocks.append(
                EdgeBlock(
                    e.id,
                    "nonloop",
                    (e.initial, e.final),
                    f"(W*({{L[{e.id}]}}, D_w), E_w) ⊗ (D_G, 1)",
                    None,
                )
            )
    basic = []
    for w in enumerate_paths(graph, loop_length_bound):
        if w.is_vertex or not w.is_loop:
            continue
        root, power = primitive_root(w)
        if power != 1:
            continue
        basic.append(
            BasicLoopRow(
                str(w), w.initial, w.edges, tuple(sorted(set(w.edges)))
            )
        )
    notes = [
        f"basic loops enumerated to length {loop_length_bound}; "
        "every loop is a power of a basic loop and adds no new block"
    ]
    if loops_at:
        notes.append("free-group-factor hints are annotations, not verified isomorphisms")
    if len(loops_at) >= 2:
        ks = [loops_at[v] for v in graph.vertices if v in loops_at]
        lhs = " *_D ".join(f"L(F_{k})" for k in ks)
        notes.append(f"{lhs} ≠ L(F_{sum(ks)})")
    return DecompositionReport(
        DiagonalBlock(graph.vertices, f"Δ_{len(graph.vertices)}"),
        tuple(blocks),
        tuple(basic),
        loop_length_bound,
        tuple(notes),
    )
