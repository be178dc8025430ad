"""Command line front end.

Element expressions follow the grammar in ``parse_element_ast``: ``a:w``
is ``L[w] + L*[w]``, juxtaposition multiplies, vertex words are ``@v``.

Exit codes: 0 on success, 1 on a reported domain error (a JSON error
object goes to stderr), 2 on argument errors.  Output is deterministic
for fixed inputs.

Each command imports the layers above ``graphs`` when it runs, so a
fresh interpreter compiles only the modules that command uses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import DomainError
from .graphs import IDENT_PATTERN, Graph, enumerate_paths, parse_graph, parse_word
from .records import to_json
from .structure import decompose, format_table


# ---- element expression parsing ----

_WORD_RE = r"@?{0}(?:\.{0})*".format(IDENT_PATTERN)
_FACTOR_RE = re.compile(
    r"L\*\[(?P<lstar>{0})\]|L\[(?P<lword>{0})\]|a:(?P<sym>{0})".format(_WORD_RE)
)
# One term and the whitespace after it (and before it, for the first term).
# Digits and whitespace are ASCII only.
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<rat>\d+(?:/\d+)?)\s*(?:\*\s*)?)?"
    r"(?P<factors>(?:(?:" + _FACTOR_RE.pattern + r")\s*)*)",
    re.ASCII,
)


def _rational(text: str) -> int | Fraction:
    """A ``digits ["/" digits]`` literal: an int when it is integral, and
    only otherwise a ``Fraction``, so integer coefficients never load
    ``fractions``."""
    num, _, den = text.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:  # more digits than the interpreter converts
        raise DomainError(f"coefficient too long: {len(text)} characters") from None
    if not q:
        raise DomainError(f"zero denominator in coefficient {text!r}")
    if not p % q:
        return p // q
    from fractions import Fraction

    return Fraction(p, q)


def parse_element_ast(text: str) -> list[tuple[int | Fraction, list[tuple[str, str]]]]:
    """Parse an element expression, whitespace allowed between tokens:

        element  := ["+"|"-"] term (("+"|"-") term)*
        term     := [rational ["*"]] factor*     (at least one of the two)
        factor   := "L[" word "]" | "L*[" word "]" | "a:" word
        rational := digits ["/" digits]

    One (coefficient, factors) pair per term; a coefficient is an int
    when it is integral and a Fraction otherwise.  A factor is (kind, word):
    "lword" for ``L[w]``, "lstar" for ``L*[w]``, "sym" for ``a:w``."""
    terms, pos = [], 0
    while pos < len(text) or not terms:
        m = _TERM_RE.match(text, pos)
        signed = m["sign"] or not terms
        if not (signed and (m["rat"] or m["factors"])):
            at = m.end() if signed else pos
            raise DomainError(f"bad element syntax at position {at}: {text[at:at + 12]!r}")
        coeff = _rational(m["rat"]) if m["rat"] else 1
        factors = [(f.lastgroup, f[f.lastgroup]) for f in _FACTOR_RE.finditer(m["factors"])]
        terms.append((-coeff if m["sign"] == "-" else coeff, factors))
        pos = m.end()
    return terms


def ast_degree(graph: Graph, ast) -> int:
    """Largest total word length across the terms; the degree bound one
    product with the expression can reach."""
    deg = 0
    for _, factors in ast:
        total = sum(parse_word(graph, word).length for _, word in factors)
        deg = max(deg, total)
    return deg


def build_element(graph: Graph, backend: Backend, ast) -> AlgebraElement:
    from .algebra import AlgebraElement

    total = AlgebraElement.zero(graph, backend)
    for coeff, factors in ast:
        if not factors:
            acc = AlgebraElement.identity(graph, backend)
        else:
            acc = None
            for kind, word_text in factors:
                w = parse_word(graph, word_text)
                if kind == "sym":
                    if w.is_vertex:
                        raise DomainError(f"a:{word_text} needs a path word, not a vertex")
                    el = AlgebraElement.symmetrized_generator(graph, backend, w)
                else:
                    el = AlgebraElement.generator(graph, backend, w, starred=kind == "lstar")
                acc = el if acc is None else acc * el
        total = total + acc.scale(coeff)
    return total


def parse_element(graph: Graph, backend: Backend, text: str) -> AlgebraElement:
    return build_element(graph, backend, parse_element_ast(text))


# ---- shared option plumbing ----


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read graph file: {exc}") from None


def _make_backend(args, degree: int, order: int, need: int | None = None) -> Backend:
    """The backend for work of degree ``degree`` up to order ``order``,
    which needs fock depth ``need``, by default ``degree * order``: a
    smaller ``--depth`` raises DepthError here.  The automatic depth is
    ``max(1, degree) * order``."""
    from .operators import Backend

    if args.backend == "axiomatic":
        if args.depth is not None:
            raise DomainError("depth applies to the fock backend")
        return Backend.axiomatic()
    depth = args.depth if args.depth is not None else max(1, degree) * order
    backend = Backend.fock(depth)
    backend.gate(degree * order if need is None else need)
    return backend


def _prepare(args, families, min_order: int, message: str):
    """The backend and the elements a command works on, given one list
    of expressions per family; the elements come back in one list.

    The work needs fock depth ``(max_order - 1) * larger + smaller``, the
    largest and the smallest family degree: a mixed tuple of two families
    holds an element of each, and with one family it is degree times
    order.  The checks run in a fixed order, so a request with several
    faults always reports the same one: graph file, order, expression
    syntax, words, backend options and depth, element construction.
    """
    graph = _load_graph(args.graph)
    if args.max_order < min_order:
        raise DomainError(message)
    asts = [[parse_element_ast(text) for text in family] for family in families]
    degrees = sorted(max((ast_degree(graph, ast) for ast in f), default=0) for f in asts)
    need = (args.max_order - 1) * degrees[-1] + degrees[0]
    backend = _make_backend(args, degrees[-1], args.max_order, need)
    return backend, [build_element(graph, backend, ast) for f in asts for ast in f]


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None, metavar="FILE")


def _add_backend_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=("fock", "axiomatic"), default="fock")
    p.add_argument(
        "--depth",
        type=int,
        default=None,
        help="fock truncation depth (default: scales with order and word length)",
    )


def _render(args, text_fn, json_fn) -> str:
    if args.format == "json":
        return json.dumps(json_fn(), ensure_ascii=False, indent=2)
    return text_fn()


# ---- subcommands ----


def cmd_validate(args) -> str:
    graph = _load_graph(args.graph)

    def text():
        lines = [f"graph ok: {graph.summary()}", "vertices: " + " ".join(graph.vertices)]
        for e in graph.edges:
            tag = " (loop)" if e.is_loop else ""
            lines.append(f"edge {e.id}: {e.initial} -> {e.final}{tag}")
        return "\n".join(lines)

    def as_json():
        return {
            "summary": graph.summary(),
            "vertices": list(graph.vertices),
            "edges": [
                {"id": e.id, "initial": e.initial, "final": e.final, "loop": e.is_loop}
                for e in graph.edges
            ],
        }

    return _render(args, text, as_json)


def cmd_paths(args) -> str:
    graph = _load_graph(args.graph)
    if args.max_len < 0:
        raise DomainError("max length must be nonnegative")
    words = enumerate_paths(graph, args.max_len)

    def text():
        rows = [
            [str(w), w.initial, w.final, str(w.length), "yes" if w.is_loop else "no"]
            for w in words
        ]
        return format_table(["word", "from", "to", "len", "loop"], rows)

    def as_json():
        return [
            {
                "word": str(w),
                "initial": w.initial,
                "final": w.final,
                "length": w.length,
                "loop": w.is_loop,
            }
            for w in words
        ]

    return _render(args, text, as_json)


def cmd_decompose(args) -> str:
    graph = _load_graph(args.graph)
    report = decompose(graph, args.loop_bound)
    return _render(args, report.to_text, report.to_json_dict)


def _render_series(args, name: str, a: AlgebraElement, backend: Backend, values) -> str:
    """The moments or cumulants of ``a``: ``values`` holds orders 1, 2, ..."""
    from .algebra import SeriesTerm

    terms = [SeriesTerm(n, v) for n, v in enumerate(values, start=1)]

    def text():
        rows = [[str(t.order), str(t.value)] for t in terms]
        return "\n".join([f"{name} of {a}  [{backend}]", format_table(["order", "value"], rows)])

    return _render(args, text, lambda: to_json({"element": str(a), "backend": backend, name: terms}))


def cmd_moments(args) -> str:
    backend, (a,) = _prepare(args, [[args.element]], 1, "max order must be positive")
    return _render_series(args, "moments", a, backend, a.moments(args.max_order))


def cmd_cumulants(args) -> str:
    from .cumulants import cumulant_series

    backend, (a,) = _prepare(args, [[args.element]], 1, "max order must be positive")
    return _render_series(args, "cumulants", a, backend, cumulant_series(a, args.max_order))


def cmd_check_semicircular(args) -> str:
    from .analyzers import check_semicircular

    _, (a,) = _prepare(
        args, [[args.element]], 2, "semicircularity needs max order at least 2"
    )
    report = check_semicircular(a, args.max_order)
    return _render(args, report.to_text, report.to_json_dict)


def cmd_check_rdiagonal(args) -> str:
    from .analyzers import check_r_diagonal

    graph = _load_graph(args.graph)
    if args.max_order < 2:
        raise DomainError("R-diagonality needs max order at least 2")
    word = parse_word(graph, args.word)
    backend = _make_backend(args, word.length, args.max_order)
    report = check_r_diagonal(graph, backend, word, args.max_order)
    return _render(args, report.to_text, report.to_json_dict)


def cmd_check_freeness(args) -> str:
    from .analyzers import check_freeness

    _, elements = _prepare(
        args, [args.family_a, args.family_b], 1, "max order must be positive"
    )
    split = len(args.family_a)
    report = check_freeness(elements[:split], elements[split:], args.max_order)
    return _render(args, report.to_text, report.to_json_dict)


def cmd_audit(args) -> str:
    from .analyzers import AUDIT_DEPTHS, claims_audit
    from .operators import Backend

    graph = _load_graph(args.graph)
    # Degree 0: claims_audit gates the depth its rows need, at most the default.
    backends = [_make_backend(args, 0, max(AUDIT_DEPTHS.values()))]
    if args.backend == "both":
        backends.insert(0, Backend.axiomatic())
    report = claims_audit(graph, backends)
    return _render(args, report.to_text, report.to_json_dict)


# ---- driver ----


def _add_command(sub, name: str, func, help: str, *arguments, backend=False) -> None:
    """One subcommand: the graph file, then its own arguments as
    ``(flags, options)`` pairs, then the backend and output options."""
    p = sub.add_parser(name, help=help)
    p.add_argument("graph")
    for flags, options in arguments:
        p.add_argument(*flags, **options)
    if backend:
        _add_backend_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=func)


def _arg(*flags, **options):
    return flags, options


def _max_order(default: int):
    return _arg("--max-order", type=int, default=default)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphprob",
        description="exact workbench for graph-indexed operator distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    expr_help = "element expression, e.g. 'a:l' or 'L[e] + L*[e]'"
    _add_command(sub, "validate", cmd_validate, "parse a graph file and echo its contents")
    _add_command(
        sub, "paths", cmd_paths, "enumerate admissible words up to a length",
        _arg("--max-len", type=int, default=3),
    )
    _add_command(
        sub, "decompose", cmd_decompose, "free product block decomposition",
        _arg("--loop-bound", type=int, default=3),
    )
    _add_command(
        sub, "moments", cmd_moments, "diagonal moments E(a^n)",
        _arg("element", help=expr_help), _max_order(4), backend=True,
    )
    _add_command(
        sub, "cumulants", cmd_cumulants, "diagonal cumulants k_n(a, ..., a)",
        _arg("element"), _max_order(4), backend=True,
    )
    _add_command(
        sub, "check-semicircular", cmd_check_semicircular, "is the element semicircular?",
        _arg("element"), _max_order(6), backend=True,
    )
    _add_command(
        sub, "check-rdiagonal", cmd_check_rdiagonal, "is the word generator R-diagonal?",
        _arg("word", help="path word, e.g. 'e' or 'e1.e2'"), _max_order(6), backend=True,
    )
    family = {"action": "append", "required": True, "metavar": "EXPR"}
    _add_command(
        sub, "check-freeness", cmd_check_freeness, "mixed cumulants of two families",
        _arg("--family-a", **family), _arg("--family-b", **family), _max_order(4), backend=True,
    )
    _add_command(
        sub, "audit", cmd_audit, "stated-vs-computed audit table",
        _arg("--backend", choices=("both", "fock", "axiomatic"), default="both"),
        _arg("--depth", type=int, default=None),
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        out = args.func(args) + "\n"
        if args.output is None:
            sys.stdout.write(out)
            return 0
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise DomainError(f"cannot write output file: {exc}") from None
    except DomainError as exc:
        sys.stderr.write(json.dumps({"error": exc.payload()}, ensure_ascii=False) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
