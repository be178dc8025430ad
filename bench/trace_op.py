"""Traced in-process run of one ``graphprob`` CLI operation.

    python3 bench/trace_op.py TRACE_FILE -- <graphprob arguments>

Run from the checkout root with ``src`` on ``PYTHONPATH``.  It wraps the
public functions and methods of each ``graphprob`` module, rebinding every
name that refers to a wrapped function in every module (``compose`` is
also bound in ``graphprob.algebra``, ``check_*`` in ``graphprob.cli``),
then calls ``graphprob.cli.main(argv)`` with stdout captured.  The captured
stdout is written unchanged to this process's stdout, so the caller can
compare it byte for byte with an untraced run; the trace goes to
TRACE_FILE as JSON.

Every wrapped call adds its duration, minus that of the wrapped calls it
made, to its layer's self time.  Hot leaf functions are only counted and
timed that way; coarse calls (the operation, analyzer entries,
``AlgebraElement.__mul__``, top-level ``valuation``, ``expectation``,
report rendering) are also kept as spans that name their parent span.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import weakref
from collections import Counter

LAYERS = ("scalars", "graphs", "operators", "algebra", "cumulants", "analyzers", "cli")


class Tracer:
    def __init__(self):
        self.base = time.perf_counter()
        self.counts: Counter = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.totals: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.stack = [[0.0]]
        self.spans: list[list] = []
        self.open_spans: list[int] = []
        self.max_terms = 0

    def wrap(self, fn, layer, count=None, total=None, before=None, after=None):
        """Wrapper of ``fn`` that counts calls under ``count`` and adds its
        self time to ``layer``.  With ``total``, the outermost calls also add
        their full duration to ``totals[total]`` and are recorded as spans."""
        stack, counts, self_s = self.stack, self.counts, self.self_s
        perf = time.perf_counter
        if total is None:

            def leaf(*args, **kwargs):
                if count:
                    counts[count] += 1
                if before:
                    before(args)
                frame = [0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    self_s[layer] += dt - frame[0]
                    stack[-1][0] += dt
                if after:
                    after(out)
                return out

            return leaf

        depth, totals, spans, open_spans = self.depth, self.totals, self.spans, self.open_spans
        depth[total] = 0
        totals[total] = 0.0

        def coarse(*args, **kwargs):
            if count:
                counts[count] += 1
            if before:
                before(args)
            outer = depth[total] == 0
            depth[total] += 1
            if outer:
                idx = len(spans)
                spans.append([total, open_spans[-1] if open_spans else -1, 0.0, 0.0])
                open_spans.append(idx)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt
                depth[total] -= 1
                if outer:
                    totals[total] += dt
                    spans[idx][2] = t0 - self.base
                    spans[idx][3] = t1 - self.base
                    open_spans.pop()
            if after:
                after(out)
            return out

        return coarse

    def report(self, argv, code) -> dict:
        return {
            "argv": argv,
            "exit_code": code,
            "counts": dict(self.counts),
            "max_terms": self.max_terms,
            "self_s": self.self_s,
            "totals": self.totals,
            "spans": self.spans,
            "span_fields": ["name", "parent", "start_s", "end_s"],
        }


def _rebind(old, new) -> None:
    """Point every ``graphprob`` module-level name bound to ``old`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if name == "graphprob" or name.startswith("graphprob."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def _patch_function(tracer, module, name, layer, **kw) -> None:
    old = getattr(module, name)
    _rebind(old, tracer.wrap(old, layer, **kw))


def _patch_method(tracer, cls, name, layer, **kw) -> None:
    raw = vars(cls)[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(tracer.wrap(raw.__func__, layer, **kw)))
    else:
        setattr(cls, name, tracer.wrap(raw, layer, **kw))


def install(tracer: Tracer):
    """Wrap the layers' public surface; returns the wrapped ``cli.main``."""
    from graphprob import algebra, analyzers, cli, cumulants, graphs, operators, scalars

    counts = tracer.counts
    fn, meth = _patch_function, _patch_method

    for name in ("__add__", "__sub__"):
        meth(tracer, scalars.Scalar, name, "scalars", count="scalars.add_calls")
    for name in ("__mul__", "__rmul__"):
        meth(tracer, scalars.Scalar, name, "scalars", count="scalars.mul_calls")
    for name in ("__neg__", "conjugate"):
        meth(tracer, scalars.Scalar, name, "scalars")

    meth(tracer, graphs.PathWord, "__post_init__", "graphs", count="graphs.pathword_new")
    meth(tracer, graphs.PathWord, "drop_last_edge", "graphs")
    fn(tracer, graphs, "concat", "graphs", count="graphs.concat_calls")
    fn(tracer, graphs, "strip_prefix", "graphs", count="graphs.strip_prefix_calls")
    for name in ("parse_graph", "parse_word", "enumerate_paths", "primitive_root",
                 "diagram_distinct", "classify_edges"):
        fn(tracer, graphs, name, "graphs")

    def compose_hit(out):
        if out is not None:
            counts["operators.compose_hits"] += 1

    fn(tracer, operators, "compose", "operators", count="operators.compose_calls", after=compose_hit)
    fn(tracer, operators, "cancel_final_segment", "operators", count="operators.cancel_calls")
    fn(tracer, operators, "reduce_word", "operators", count="operators.reduce_word_calls")
    for name in ("fock_apply", "apply_generator_word"):
        fn(tracer, operators, name, "operators")
    meth(tracer, operators.Monomial, "__post_init__", "operators")

    AlgebraElement, DiagonalElement = algebra.AlgebraElement, algebra.DiagonalElement

    def term_pairs(args):
        if isinstance(args[1], AlgebraElement):
            counts["algebra.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def materialized(out):
        n = len(out.terms)
        counts["algebra.terms_materialized"] += n
        if n > tracer.max_terms:
            tracer.max_terms = n

    def vertex_terms(out):
        counts["algebra.vertex_terms_read"] += len(out.coeffs)

    meth(tracer, AlgebraElement, "__mul__", "algebra", count="algebra.mul_calls",
         total="algebra.mul", before=term_pairs)
    meth(tracer, AlgebraElement, "make", "algebra", after=materialized)
    meth(tracer, AlgebraElement, "expectation", "algebra", count="algebra.expectation_calls",
         total="algebra.expectation", after=vertex_terms)
    for name in ("__add__", "__sub__", "__neg__", "scale", "power", "adjoint", "support"):
        meth(tracer, AlgebraElement, name, "algebra")
    for name in ("__add__", "__sub__", "__mul__"):
        meth(tracer, DiagonalElement, name, "algebra", count="algebra.diag_ops")
    for name in ("make", "__neg__", "power", "restrict"):
        meth(tracer, DiagonalElement, name, "algebra")
    fn(tracer, algebra, "faithfulness_probe", "algebra")

    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def memo_probe(args):
        functional, key = args[0], tuple(args[1])
        tuples = seen.setdefault(functional, set())
        if key in tuples:
            counts["cumulants.memo_hits"] += 1
        else:
            tuples.add(key)

    def nc_returned(out):
        counts["cumulants.nc_enumerated"] += len(out)

    meth(tracer, cumulants.CumulantFunctional, "valuation", "cumulants",
         count="cumulants.valuation_calls", total="cumulants.valuation", before=memo_probe)
    fn(tracer, cumulants, "nested_evaluate", "cumulants", count="cumulants.partitions_visited")
    fn(tracer, cumulants, "enumerate_nc", "cumulants", after=nc_returned)
    for name in ("mixed_cumulant_scan", "moment_to_cumulant", "cumulant_to_moment", "catalan"):
        fn(tracer, cumulants, name, "cumulants")
    meth(tracer, cumulants.PairSource, "valuation", "cumulants")

    for name in ("check_semicircular", "check_r_diagonal", "check_freeness", "claims_audit",
                 "decompose"):
        fn(tracer, analyzers, name, "analyzers", total="analyzers.check")
    for name in ("build_semicircular_system", "format_table"):
        fn(tracer, analyzers, name, "analyzers")
    for cls in (analyzers.SemicircularReport, analyzers.RDiagonalReport, analyzers.FreenessReport,
                analyzers.DecompositionReport, analyzers.AuditReport):
        for name in ("to_text", "to_json_dict"):
            meth(tracer, cls, name, "analyzers", total="analyzers.render")

    for name in ("parse_element_ast", "ast_degree", "build_element", "parse_element"):
        fn(tracer, cli, name, "cli")
    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        fn(tracer, cli, name, "cli")
    return tracer.wrap(cli.main, "cli", total="cli.operation")


def main(trace_file: str, argv: list[str]) -> int:
    import graphprob.cli  # noqa: F401  (import before wrapping, as the CLI does)

    tracer = Tracer()
    traced_main = install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = traced_main(argv)
    sys.stdout.buffer.write(captured.getvalue().encode("utf-8"))
    sys.stdout.flush()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(argv, code), fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: trace_op.py TRACE_FILE -- <graphprob arguments>")
    sys.exit(main(sys.argv[1], sys.argv[3:]))
