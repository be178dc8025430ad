"""Command line front end.

Element expressions follow the grammar in ``parse_element_ast``: ``a:w``
is ``L[w] + L*[w]``, juxtaposition multiplies, vertex words are ``@v``.

``main`` reads the graph file, so its faults come before any other, and
``cmd_<name>(args, graph)`` returns the output as a pair of callables,
(text, JSON value), of which ``main`` writes the one ``--format`` names.

Exit codes: 0 on success, 1 on a reported domain error (a JSON error
object goes to stderr), 2 on argument errors.  Output is deterministic
for fixed inputs.

Each command imports the layers above ``graphs`` when it runs, so a
fresh interpreter compiles only the modules that command uses.  The text
table is ``records.format_table``, so only ``decompose`` loads
``structure``.  A command line of plain tokens is parsed from
``_COMMANDS`` directly; argparse is imported only for help and usage
errors (``_parse_plain``).

No option sets the fock depth.  A command that parses expressions works
it out from them (``_prepare``), as the degree bound of the products it
forms; ``check-rdiagonal`` and ``audit`` pass a kind to their checks,
which choose it.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .errors import DomainError
from .graphs import IDENT_PATTERN, Graph, enumerate_paths, parse_graph, parse_word
from .records import format_table, to_json


# ---- element expression parsing ----

_WORD = r"@?{0}(?:\.{0})*".format(IDENT_PATTERN)
_FACTOR = r"L\*\[(?P<lstar>{0})\]|L\[(?P<lword>{0})\]|a:(?P<sym>{0})".format(_WORD)
# One term and the whitespace after it (and before it, for the first term).
# Digits and whitespace are ASCII only.  The patterns are compiled on
# first use (``re`` caches them), so commands without expressions skip it.
_TERM = (
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<rat>\d+(?:/\d+)?)\s*(?:\*\s*)?)?"
    r"(?P<factors>(?:(?:" + _FACTOR + r")\s*)*)"
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
    term_re, factor_re = re.compile(_TERM, re.ASCII), re.compile(_FACTOR)
    terms, pos = [], 0
    while pos < len(text) or not terms:
        m = term_re.match(text, pos)
        signed = m["sign"] or not terms
        if not (signed and (m["rat"] or m["factors"])):
            at = m.end() if signed else pos
            raise DomainError(f"bad element syntax at position {at}: {text[at:at + 12]!r}")
        coeff = _rational(m["rat"]) if m["rat"] else 1
        factors = [(f.lastgroup, f[f.lastgroup]) for f in factor_re.finditer(m["factors"])]
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


def _prepare(args, graph: Graph, families, min_order: int, message: str):
    """The backend and the elements a command works on, given one list
    of expressions per family; the elements come back in one list.

    The fock depth, the command line's one depth rule, is the largest
    written degree (``ast_degree``) times the max order, at least the
    order.  No product the command forms is longer, so the library's depth
    gates pass.  Faults are reported in a fixed order: graph file (read by
    ``main``), order, expression syntax, words, element construction.
    """
    from .operators import Backend

    if args.max_order < min_order:
        raise DomainError(message)
    asts = [[parse_element_ast(text) for text in family] for family in families]
    written = max(ast_degree(graph, ast) for family in asts for ast in family)
    backend = Backend.of(args.backend, max(1, written) * args.max_order)
    return backend, [build_element(graph, backend, ast) for family in asts for ast in family]


# ---- subcommands ----


def cmd_validate(args, graph: Graph):
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

    return text, as_json


def cmd_paths(args, graph: Graph):
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

    return text, as_json


def cmd_decompose(args, graph: Graph):
    from .structure import decompose

    report = decompose(graph, args.loop_bound)
    return report.to_text, report.to_json_dict


def _series(args, graph: Graph, name: str, values_of):
    """The moments or cumulants of the command's element ``a``:
    ``values_of(a)`` gives orders 1, 2, ..., ``--max-order``."""
    from .algebra import SeriesTerm

    backend, (a,) = _prepare(args, graph, [[args.element]], 1, "max order must be positive")
    terms = [SeriesTerm(n, v) for n, v in enumerate(values_of(a), start=1)]

    def text():
        rows = [[str(t.order), str(t.value)] for t in terms]
        return "\n".join([f"{name} of {a}  [{backend}]", format_table(["order", "value"], rows)])

    return text, lambda: to_json({"element": str(a), "backend": backend, name: terms})


def cmd_moments(args, graph: Graph):
    return _series(args, graph, "moments", lambda a: a.moments(args.max_order))


def cmd_cumulants(args, graph: Graph):
    from .cumulants import cumulant_series

    return _series(args, graph, "cumulants", lambda a: cumulant_series(a, args.max_order))


def cmd_check_semicircular(args, graph: Graph):
    from .analyzers import check_semicircular

    _, (a,) = _prepare(
        args, graph, [[args.element]], 2, "semicircularity needs max order at least 2"
    )
    report = check_semicircular(a, args.max_order)
    return report.to_text, report.to_json_dict


def cmd_check_rdiagonal(args, graph: Graph):
    from .analyzers import check_r_diagonal

    if args.max_order < 2:
        raise DomainError("R-diagonality needs max order at least 2")
    report = check_r_diagonal(graph, args.backend, parse_word(graph, args.word), args.max_order)
    return report.to_text, report.to_json_dict


def cmd_check_freeness(args, graph: Graph):
    from .analyzers import check_freeness

    _, elements = _prepare(
        args, graph, [args.family_a, args.family_b], 1, "max order must be positive"
    )
    split = len(args.family_a)
    report = check_freeness(elements[:split], elements[split:], args.max_order)
    return report.to_text, report.to_json_dict


def cmd_audit(args, graph: Graph):
    from .audit import claims_audit

    kinds = ("axiomatic", "fock") if args.backend == "both" else (args.backend,)
    report = claims_audit(graph, kinds)
    return report.to_text, report.to_json_dict


# ---- driver ----

_OUTPUT_OPTS = (
    ("--format", {"choices": ("text", "json"), "default": "text"}),
    ("--output", {"default": None, "metavar": "FILE"}),
)
_BACKEND = ("--backend", {"choices": ("fock", "axiomatic"), "default": "fock"})
_EXPR_HELP = "element expression, e.g. 'a:l' or 'L[e] + L*[e]'"
_FAMILY = {"action": "append", "required": True, "metavar": "EXPR"}


def _max_order(default: int):
    return ("--max-order", {"type": int, "default": default})


# Each command: its help line and its arguments after the graph file, as
# (name, argparse options) in the order its --help lists them.  A
# command's function is the module's cmd_<name>, looked up when it runs.
_COMMANDS = {
    "validate": ("parse a graph file and echo its contents", _OUTPUT_OPTS),
    "paths": ("enumerate admissible words up to a length",
              (("--max-len", {"type": int, "default": 3}), *_OUTPUT_OPTS)),
    "decompose": ("free product block decomposition",
                  (("--loop-bound", {"type": int, "default": 3}), *_OUTPUT_OPTS)),
    "moments": ("diagonal moments E(a^n)",
                (("element", {"help": _EXPR_HELP}), _max_order(4), _BACKEND,
                 *_OUTPUT_OPTS)),
    "cumulants": ("diagonal cumulants k_n(a, ..., a)",
                  (("element", {}), _max_order(4), _BACKEND, *_OUTPUT_OPTS)),
    "check-semicircular": ("is the element semicircular?",
                           (("element", {}), _max_order(6), _BACKEND, *_OUTPUT_OPTS)),
    "check-rdiagonal": ("is the word generator R-diagonal?",
                        (("word", {"help": "path word, e.g. 'e' or 'e1.e2'"}), _max_order(6),
                         _BACKEND, *_OUTPUT_OPTS)),
    "check-freeness": ("mixed cumulants of two families",
                       (("--family-a", _FAMILY), ("--family-b", _FAMILY), _max_order(4),
                        _BACKEND, *_OUTPUT_OPTS)),
    "audit": ("stated-vs-computed audit table",
              (("--backend", {"choices": ("both", "fock", "axiomatic"), "default": "both"}),
               *_OUTPUT_OPTS)),
}


def _arguments(command: str):
    return (("graph", {}), *_COMMANDS[command][1])


def _parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="graphprob",
        description="exact workbench for graph-indexed operator distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, options in _arguments(command):
            p.add_argument(name, **options)
    parser.commands = sub.choices  # each command's own parser, for its usage errors
    return parser


def _parse_plain(argv):
    """The namespace ``_parser().parse_args(argv)`` gives, for a command
    line of plain tokens only: a command name, then positionals and exact
    option names, each option followed by a value that does not start
    with "-" and that passes its ``type`` and ``choices``.  Anything else
    (help, ``--opt=value``, abbreviations, ``--``, bad, missing or extra
    values) gives None, and argparse parses it, or prints its help or
    usage error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    arguments = _arguments(command)
    options = {name: spec for name, spec in arguments if name.startswith("-")}
    values: dict = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        spec = options.get(token)
        value = next(tokens, None)
        if spec is None or value is None or value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if spec.get("action") == "append":
            values.setdefault(token, []).append(value)
        else:
            values[token] = value
    names = [name for name, _ in arguments if not name.startswith("-")]
    if len(positionals) != len(names):
        return None
    if any(spec.get("required") and name not in values for name, spec in options.items()):
        return None
    values.update(zip(names, positionals))
    fields = {"command": command}
    for name, spec in arguments:
        fields[name.lstrip("-").replace("-", "_")] = values.get(name, spec.get("default"))
    return SimpleNamespace(**fields)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv)
    if args is None:
        try:
            parser = _parser()
            args, extra = parser.parse_known_args(argv)
            if extra:  # the command's usage, unless a token precedes the command's name
                at = parser.commands[args.command] if argv[0] == args.command else parser
                at.error("unrecognized arguments: " + " ".join(extra))
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else int(exc.code)
    try:
        cmd = globals()["cmd_" + args.command.replace("-", "_")]
        text, as_json = cmd(args, _load_graph(args.graph))
        if args.format == "json":
            out = json.dumps(as_json(), ensure_ascii=False, indent=2) + "\n"
        else:
            out = text() + "\n"
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
