import functools
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphprob import Backend, DepthError, DomainError, cli, enumerate_paths, parse_word
from graphprob.cli import (
    ast_degree,
    build_element,
    main,
    parse_element,
    parse_element_ast,
)
from graphprob.nestings import catalan

from .conftest import FIXTURE_NAMES, fixture_path, load_fixture
from .pinned import GOLDENS, PINNED, ROOT, cli_argv

ONE_LOOP = str(fixture_path("one_loop"))
SINGLE_EDGE = str(fixture_path("single_edge"))
C3 = str(fixture_path("c3"))
LOOPS_BRIDGE = str(fixture_path("loops_bridge"))


@functools.cache
def _argparse_parser():
    return cli._parser()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- element expressions ----


def test_parse_element_terms(one_loop):
    ast = parse_element_ast("2*L[l] - 1/2 L*[l] + a:l")
    assert [c for c, _ in ast] == [Fraction(2), Fraction(-1, 2), Fraction(1)]
    l, l_star, a = ("lword", "l"), ("lstar", "l"), ("sym", "l")
    accepted = {
        "-L[l]": [(Fraction(-1), [l])],
        "+ a:l": [(Fraction(1), [a])],
        "2*": [(Fraction(2), [])],
        " L[l] L*[l]\ta:l ": [(Fraction(1), [l, l_star, a])],
        "-3 * a:l L[l]": [(Fraction(-3), [a, l])],
    }
    for text, want in accepted.items():
        assert parse_element_ast(text) == want
    a = build_element(one_loop, Backend.axiomatic(), ast)
    le = parse_word(one_loop, "l")
    from graphprob import AlgebraElement

    want = (
        AlgebraElement.generator(one_loop, Backend.axiomatic(), le).scale(3)
        + AlgebraElement.generator(one_loop, Backend.axiomatic(), le, starred=True).scale(
            Fraction(1, 2)
        )
    )
    assert a == want


def test_parse_element_juxtaposition_multiplies(single_edge):
    a = parse_element(single_edge, Backend.axiomatic(), "L[e]L*[e]")
    from graphprob import AlgebraElement

    assert a == AlgebraElement.vertex_projection(single_edge, Backend.axiomatic(), "v1")


def test_parse_element_vertex_and_scalar_terms(single_edge):
    a = parse_element(single_edge, Backend.axiomatic(), "2 + L[@v1]")
    from graphprob import AlgebraElement

    one = AlgebraElement.identity(single_edge, Backend.axiomatic())
    p = AlgebraElement.vertex_projection(single_edge, Backend.axiomatic(), "v1")
    assert a == one.scale(2) + p


def test_parse_element_errors(one_loop):
    # A malformed expression names the position where no term could go on.
    positions = {
        "": 0, "  ": 2, "L[": 0, "* L[l]": 0, "L[l] L[l] +": 11, "L[l] 2": 5, "2 3": 2,
        "L[l] + $": 7, "- - L[l]": 2, "1/2/3": 3, "L[l]*L[l]": 4, "a:l.": 3,
    }
    for bad, at in positions.items():
        with pytest.raises(DomainError) as err:
            parse_element_ast(bad)
        assert str(err.value) == f"bad element syntax at position {at}: {bad[at:at + 12]!r}"
    for bad in ("a:@v", "1/0", "L[l] + 3/0 L*[l]"):
        with pytest.raises(DomainError):
            parse_element(one_loop, Backend.axiomatic(), bad)


def test_parse_element_long_expressions():
    # Parsing is one left-to-right pass, so long inputs end promptly.
    ok = " + ".join(["2 L[l]L*[l]"] * 10_000)
    assert len(ok) >= 10**5
    assert parse_element_ast(ok) == [(Fraction(2), [("lword", "l"), ("lstar", "l")])] * 10_000
    bad = "a:l " * 25_000 + "$"
    with pytest.raises(DomainError) as err:
        parse_element_ast(bad)
    assert str(err.value) == f"bad element syntax at position {len(bad) - 1}: '$'"


def test_overlong_coefficient_is_a_domain_error(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts digit strings of any length")
    for rat in ("1" * (limit + 1), "1/" + "3" * (limit + 1)):
        want = (
            '{"error": {"code": "domain-error", "message": "coefficient too long: '
            f'{len(rat)} characters"}}}}\n'
        )
        assert run(capsys, "moments", ONE_LOOP, f"{rat} L[l]") == (1, "", want)


def test_ast_degree(one_loop):
    assert ast_degree(one_loop, parse_element_ast("a:l.l")) == 2
    assert ast_degree(one_loop, parse_element_ast("L[l]L[l] + L[l]")) == 2
    assert ast_degree(one_loop, parse_element_ast("L[@v]")) == 0


# ---- command behavior ----


def test_validate_text_and_json(capsys):
    code, out, err = run(capsys, "validate", C3)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "graph ok: 3 vertices, 3 edges"

    code, out, _ = run(capsys, "validate", C3, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["v1", "v2", "v3"]
    assert data["edges"][0] == {"id": "e1", "initial": "v1", "final": "v2", "loop": False}


def test_paths_json(capsys):
    code, out, _ = run(capsys, "paths", ONE_LOOP, "--max-len", "2", "--format", "json")
    assert code == 0
    words = [row["word"] for row in json.loads(out)]
    assert words == ["@v", "l", "l.l"]


def test_moments_auto_depth_suffices(capsys):
    code, out, _ = run(
        capsys, "moments", ONE_LOOP, "a:l", "--max-order", "6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["backend"] == {"kind": "fock", "depth": 6}
    assert data["moments"][5] == {
        "order": 6,
        "value": "5*L[@v]",
        "coeffs": {"v": {"re": "5/1", "im": "0/1"}},
    }


def test_moments_of_three_loops_order_ten(capsys):
    """The sum of three free semicircular loops: 3^k Catalan(k) at order
    2k, zero at odd orders."""
    code, out, _ = run(
        capsys, "moments", str(fixture_path("bouquet3")), "a:l1+a:l2+a:l3",
        "--max-order", "10", "--format", "json",
    )
    assert code == 0
    got = [row["coeffs"] for row in json.loads(out)["moments"]]
    want = [
        {} if n % 2 else {"v": {"re": f"{3 ** (n // 2) * catalan(n // 2)}/1", "im": "0/1"}}
        for n in range(1, 11)
    ]
    assert got == want


def test_cumulants_axiomatic(capsys):
    code, out, _ = run(
        capsys,
        "cumulants",
        ONE_LOOP,
        "a:l",
        "--max-order",
        "4",
        "--backend",
        "axiomatic",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    values = [row["value"] for row in data["cumulants"]]
    assert values == ["0", "2*L[@v]", "0", "-2*L[@v]"]


def test_check_semicircular_exit_zero_on_false(capsys):
    code, out, _ = run(
        capsys,
        "check-semicircular",
        ONE_LOOP,
        "a:l",
        "--backend",
        "axiomatic",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["verdict"] is False


def test_check_rdiagonal(capsys):
    code, out, _ = run(capsys, "check-rdiagonal", SINGLE_EDGE, "e", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert len(data["nonzero"]) == 1


def test_check_freeness(capsys):
    code, out, _ = run(
        capsys,
        "check-freeness",
        str(fixture_path("parallel_edges")),
        "--family-a",
        "L[e1]",
        "--family-b",
        "L[e2]",
        "--max-order",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["agreement"] == "agree" and data["free_to_order"] is True


def test_deep_rdiagonal_scan_has_the_partial_isometry_brackets(capsys):
    # On axiomatic single_edge, e is the sole exit of v1, so L[e] is a
    # partial isometry: its nonzero brackets to order 10 are exactly the
    # even alternating ones, (-1)^(k-1) Catalan(k-1) at order 2k, at v1
    # when the pattern starts with a and at v2 when it starts with a*.
    code, out, _ = run(capsys, "check-rdiagonal", SINGLE_EDGE, "e", "--max-order", "10",
                       "--backend", "axiomatic", "--format", "json")
    assert code == 0
    want = [
        (2 * k, [first, second] * k, f"{(-1) ** (k - 1) * catalan(k - 1)}*L[@{vertex}]")
        for k in range(1, 6)
        for first, second, vertex in (("a", "a*", "v1"), ("a*", "a", "v2"))
    ]
    got = [(f["order"], f["pattern"], f["value"]) for f in json.loads(out)["nonzero"]]
    assert got == want


def test_deep_freeness_scan_counts_every_mixed_tuple(capsys):
    # {L[e1], L*[e1]} and {L[e2], L*[e2]} on parallel_edges, to order 8:
    # 4^n - 2 * 2^n mixed tuples of order n, and no nonzero bracket.
    code, out, _ = run(capsys, "check-freeness", str(fixture_path("parallel_edges")),
                       "--family-a", "L[e1]", "--family-b", "L[e2]", "--max-order", "8",
                       "--format", "json")
    assert code == 0
    scan = json.loads(out)["scan"]
    assert scan["tuples_checked"] == sum(4**n - 2 * 2**n for n in range(1, 9))
    assert scan["nonzero"] == []


@pytest.mark.parametrize(
    "argv, golden", [case[1:] for case in PINNED], ids=[case[0] for case in PINNED]
)
def test_stdout_matches_pinned_bytes(capsys, argv, golden):
    code, out, err = run(capsys, *cli_argv(argv))
    assert (code, err) == (0, "")
    assert out == (GOLDENS / golden).read_text(encoding="utf-8")


def test_audit_exits_zero_on_mismatches(capsys):
    code, out, _ = run(capsys, "audit", ONE_LOOP)
    assert code == 0
    assert "mismatch" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "validate", C3, "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["summary"] == "3 vertices, 3 edges"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_automatic_depth_covers_every_request(capsys, name):
    # Seeded sums and products of L[w], L*[w] and a:w over words of length
    # at most 2, on fock at orders up to 5: the depth each command works
    # out covers every product it forms, so no request is refused for it.
    graph = str(fixture_path(name))
    words = [str(w) for w in enumerate_paths(load_fixture(name), 2) if not w.is_vertex]
    rng = random.Random(f"automatic-depth-{name}")
    star = {"L[{}]": "L*[{}]", "L*[{}]": "L[{}]", "a:{}": "a:{}"}  # each factor's adjoint

    def expression(self_adjoint=False):
        terms = [[(rng.choice(tuple(star)), rng.choice(words)) for _ in range(rng.randint(1, 2))]
                 for _ in range(rng.randint(1, 2))]
        if self_adjoint:
            terms += [[(star[f], w) for f, w in reversed(t)] for t in terms]
        return " + ".join(" ".join(f.format(w) for f, w in t) for t in terms)

    def order(least):
        return ("--max-order", str(rng.randint(least, 5)))

    requests = [("audit", graph, "--backend", "fock"), ("audit", graph)]
    for _ in range(7):
        requests += [
            ("moments", graph, expression(), *order(1)),
            ("cumulants", graph, expression(), *order(1)),
            ("check-semicircular", graph, expression(self_adjoint=True), *order(2)),
            ("check-rdiagonal", graph, rng.choice(words), *order(2)),
            ("check-freeness", graph, "--family-a", expression(), "--family-b", expression(),
             *order(1)),
        ]
    for argv in requests:
        assert run(capsys, *argv)[::2] == (0, ""), argv


# ---- failure modes ----


def test_missing_file_is_domain_error(capsys):
    code, out, err = run(capsys, "validate", "no_such.graph")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "domain-error"


def _file_error(capsys, *argv) -> str:
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "domain-error"
    return error["message"]


def test_output_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "no_dir" / "out.txt"
    message = _file_error(capsys, "validate", C3, "--output", str(target))
    assert message.startswith("cannot write output file: ")
    assert not target.parent.exists()


def test_output_onto_directory(tmp_path, capsys):
    message = _file_error(capsys, "validate", C3, "--output", str(tmp_path))
    assert message.startswith("cannot write output file: ")


def test_graph_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.graph"
    bad.write_bytes(b"vertices: a\n# caf\xe9\n")
    message = _file_error(capsys, "validate", str(bad))
    assert message.startswith("cannot read graph file: ")


def test_syntax_error_payload(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices: a\nedge e a -> a\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    payload = json.loads(err)["error"]
    assert payload["code"] == "graph-syntax"
    assert payload["line"] == 2


def test_depth_gates_the_built_degree(capsys, one_loop):
    # L*[l]L[l] is written with two letters and builds 1*L[@v], of degree
    # 0: building it needs depth 2, and its moments need no more.  The
    # automatic depth still scales with the written degree.
    code, out, _ = run(capsys, "moments", ONE_LOOP, "L*[l]L[l]")
    assert code == 0
    assert out.splitlines()[0] == "moments of 1*L[@v]  [fock(depth=8)]"
    assert [row.split() for row in out.splitlines()[3:]] == [
        [str(n), "1*L[@v]"] for n in range(1, 5)
    ]
    ast = parse_element_ast("L*[l]L[l]")
    a = build_element(one_loop, Backend.fock(2), ast)
    assert [str(m) for m in a.moments(4)] == ["1*L[@v]"] * 4
    with pytest.raises(DepthError) as err:
        build_element(one_loop, Backend.fock(1), ast)
    assert (err.value.required, err.value.depth) == (2, 1)


def test_error_payload_bytes(tmp_path, capsys):
    # One error of each payload shape, pinned byte for byte so that a
    # change in key order or escaping shows.
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices: a\nedge e a -> a\n")
    cases = (
        (("validate", str(bad)),
         '{"error": {"code": "graph-syntax", "message": "line 2, column 1: malformed edge line",'
         ' "line": 2, "column": 1}}\n'),
        (("moments", ONE_LOOP, "a:q"),
         '{"error": {"code": "domain-error", "message": "unknown edge: q"}}\n'),
        (("moments", ONE_LOOP, "L[l] + 3/0 L*[l]"),
         '{"error": {"code": "domain-error", "message": "zero denominator in coefficient'
         ' \'3/0\'"}}\n'),
    )
    for argv, want in cases:
        assert run(capsys, *argv) == (1, "", want)
    # No command line runs short of depth, so the library pins this shape.
    assert json.dumps({"error": DepthError(4, 2).payload()}) == (
        '{"error": {"code": "depth-insufficient", "message": "truncation depth 2 insufficient,'
        ' need at least 4", "required": 4, "depth": 2}}'
    )


def _well_formed(command):
    """A command line of ``command`` on one_loop that exits 0."""
    argv = [command, ONE_LOOP]
    for name, spec in cli._arguments(command)[1:]:
        if not name.startswith("-"):
            argv.append("l" if name == "word" else "a:l")
        elif spec.get("required"):
            argv += [name, "L[l]"]
    return argv


def test_unrecognized_arguments_print_the_command_usage(capsys):
    # Leftovers after a command name are reported by that command's parser;
    # a leftover before the name by the root parser.
    for command in cli._COMMANDS:
        argv = _well_formed(command)
        assert run(capsys, *argv)[0] == 0, argv
        for extra in (["--bogus", "4"], ["--bogus=4"], ["surplus"], ["surplus", "--bogus"]):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (2, ""), argv + extra
            assert err.startswith(f"usage: graphprob {command} "), argv + extra
            assert err.endswith(
                f"graphprob {command}: error: unrecognized arguments: {' '.join(extra)}\n"
            )
        code, out, err = run(capsys, "--bogus", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: graphprob [-h]")
        assert err.endswith("graphprob: error: unrecognized arguments: --bogus\n")


def test_depth_option_is_a_usage_error(capsys):
    # The fock depth is worked out from the request; no option sets it.
    for command in ("moments", "cumulants", "check-semicircular", "check-rdiagonal",
                    "check-freeness", "audit"):
        argv = _well_formed(command)
        assert run(capsys, *argv)[0] == 0, argv
        for depth in (["--depth", "4"], ["--depth=4"], ["--backend", "axiomatic", "--depth", "4"]):
            code, out, err = run(capsys, *argv, *depth)
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --depth" in err, argv + depth
            assert cli._parse_plain(argv + depth) is None
            with pytest.raises(SystemExit) as exit_:
                _argparse_parser().parse_args(argv + depth)
            assert exit_.value.code == 2
            capsys.readouterr()


def test_bad_element_expression(capsys):
    code, _, err = run(capsys, "moments", ONE_LOOP, "L[l")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "domain-error"


def test_element_digits_and_whitespace_are_ascii(capsys):
    # An Arabic-Indic three is no coefficient, a no-break space no separator.
    for text, at in (("\u0663 L[l]", 0), ("2\xa0L[l]", 1)):
        code, out, err = run(capsys, "moments", ONE_LOOP, text)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "domain-error",
            "message": f"bad element syntax at position {at}: {text[at:at + 12]!r}",
        }


def test_word_argument_strips_ascii_whitespace_only(capsys):
    # A no-break space or a line separator is no padding around a word.
    for word in ("\xa0e", "e\u2028", "\xa0e\u2028"):
        code, out, err = run(capsys, "check-rdiagonal", SINGLE_EDGE, word, "--max-order", "2")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {"code": "domain-error",
                                            "message": f"unknown edge: {word}"}
    code, out, _ = run(capsys, "check-rdiagonal", SINGLE_EDGE, " e ", "--max-order", "2")
    assert code == 0
    assert out.startswith("R-diagonality of a = L[e]")


def test_request_faults_are_reported_in_a_fixed_order(capsys):
    # Every expression's syntax, then its words, then element construction.
    def error(family_a, family_b):
        code, out, err = run(
            capsys, "check-freeness", ONE_LOOP, "--family-a", family_a, "--family-b", family_b,
            "--backend", "axiomatic",
        )
        assert (code, out) == (1, "")
        return json.loads(err)["error"]

    steps = (
        ("L[q]", "L[l] 2", "bad element syntax at position 5: '2'"),
        ("L[q]", "L[l] + 2", "unknown edge: q"),
        ("L[l]", "a:@v", "a:@v needs a path word, not a vertex"),
    )
    for family_a, family_b, message in steps:
        assert error(family_a, family_b) == {"code": "domain-error", "message": message}


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["paths"]) == 2
    assert main(["paths", ONE_LOOP, "--max-len", "x"]) == 2
    capsys.readouterr()


# Command lines around the plain form: a well-formed line with valid
# values, then up to two tokens inserted or replaced: option names whole,
# abbreviated and with "=", help flags, "--", other commands, negative
# numbers, and values of the wrong type or outside the choices.
OPTION_NAMES = sorted({name for _, arguments in cli._COMMANDS.values()
                       for name, _ in arguments if name.startswith("-")})
VALUES = ("json", "text", "fock", "axiomatic", "both", "0", "3", "x", "1.5", " 4", "",
          "a:l", "L[e1]", "-1", "-", "--", "-h", "--help", "bogus", "moments")


def _valid_value(spec):
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if "type" in spec:
        return st.integers(-2, 12).map(str)
    return st.sampled_from(["a:l", "L[e1] + L*[e1]", "out.txt"])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [command]
    for name, spec in cli._arguments(command):
        if not name.startswith("-"):
            argv.append(draw(st.sampled_from(["graph.graph", "a:l", "e1"])))
        elif spec.get("required") or draw(st.booleans()):
            for _ in range(draw(st.integers(1, 2))):
                argv += [name, draw(_valid_value(spec))]
    option, value = st.sampled_from(OPTION_NAMES), st.sampled_from(VALUES)
    noise = st.one_of(
        value.map(lambda v: [v]),
        st.tuples(option, value).map(list),
        st.tuples(option, value).map(lambda p: [f"{p[0]}={p[1]}"]),
        st.tuples(option, st.integers(2, 12)).map(lambda p: [p[0][:p[1]]]),
    )
    for at, tokens, replace in draw(st.lists(
        st.tuples(st.integers(0, len(argv) - 1), noise, st.booleans()), max_size=2
    )):
        argv[at:at + replace] = tokens
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_plain_parse_is_argparse_or_none(argv):
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert vars(plain) == vars(_argparse_parser().parse_args(argv))


def test_plain_parse_takes_well_formed_lines():
    for argv in (
        ["moments", "g.graph", "a:l", "--max-order", "8", "--format", "json"],
        ["check-freeness", "g.graph", "--family-a", "L[e1]", "--family-b", "L[e2]",
         "--family-b", "L[e3]", "--backend", "fock"],
        ["audit", "g.graph", "--backend", "both"],
    ):
        plain = cli._parse_plain(argv)
        assert plain is not None and vars(plain) == vars(_argparse_parser().parse_args(argv))
    for argv in (["moments", "g.graph", "a:l", "--max-o", "8"], ["paths", "g.graph", "-h"],
                 ["paths", "g.graph", "--max-len=2"], ["paths", "--", "g.graph"],
                 ["paths", "g.graph", "--max-len", "-1"], ["cumulants", "g.graph"]):
        assert cli._parse_plain(argv) is None


def test_audit_loops_bridge_has_all_rows(capsys):
    code, out, _ = run(capsys, "audit", LOOPS_BRIDGE, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["id"] for r in rows] == ["R1", "R2", "R3", "R4", "R5", "R6"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Importing dataclasses pulls in inspect, ast, dis and tokenize, and
    # building each dataclass compiles its methods: tens of milliseconds
    # on every command.  -S keeps site hooks from loading modules first.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import graphprob.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == ""


# The package modules a cold interpreter loads for each command, and
# ("import") for importing graphprob.cli alone.  Only decompose loads
# structure, since the text table lives in records; only audit loads
# audit, and no command loads nestings.
GRAPH_LAYER = {"cli", "errors", "graphs", "records"}
ALGEBRA_LAYER = GRAPH_LAYER | {"algebra", "operators", "scalars"}
CHECK_LAYER = ALGEBRA_LAYER | {"cumulants", "analyzers"}
PARALLEL = str(fixture_path("parallel_edges"))
LOADS = (
    ((), GRAPH_LAYER),
    (("validate", C3), GRAPH_LAYER),
    (("paths", C3), GRAPH_LAYER),
    (("decompose", C3), GRAPH_LAYER | {"structure"}),
    (("moments", ONE_LOOP, "a:l"), ALGEBRA_LAYER),
    (("cumulants", ONE_LOOP, "a:l"), ALGEBRA_LAYER | {"cumulants"}),
    (("audit", ONE_LOOP), CHECK_LAYER | {"audit"}),
    (("moments", ONE_LOOP, "a:l", "--format", "json"), ALGEBRA_LAYER),
    (("check-semicircular", ONE_LOOP, "a:l", "--format", "json"), CHECK_LAYER),
    (("check-rdiagonal", C3, "e1", "--format", "json"), CHECK_LAYER),
    (("check-freeness", PARALLEL, "--family-a", "L[e1]", "--family-b", "L[e2]",
      "--format", "json"), CHECK_LAYER),
    (("audit", ONE_LOOP, "--format", "json"), CHECK_LAYER | {"audit"}),
)
# A well-formed command line is parsed without argparse, which imports
# gettext, and through it locale.
ARGPARSE = {"argparse", "gettext", "locale"}


def cold_modules(argv) -> set[str]:
    """The modules a cold interpreter holds after ``main(argv)``, or after
    importing graphprob.cli alone when argv is empty."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import graphprob.cli\n"
        "if sys.argv[2:]: assert graphprob.cli.main(sys.argv[2:]) == 0\n"
        "sys.stderr.write(' '.join(sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(ROOT / "src"), *argv],
        capture_output=True, text=True, check=True,
    )
    return set(done.stderr.split())


@pytest.mark.parametrize(
    "argv, modules", LOADS,
    ids=[(argv[0] + "-json" * ("json" in argv)) if argv else "import" for argv, _ in LOADS],
)
def test_each_command_loads_only_its_layers(argv, modules):
    # The package resolves its names on first use and each command imports
    # its own layers, so the graph-only commands compile neither the
    # algebra nor the brackets.  With no argv, only graphprob.cli is imported.
    loaded = cold_modules(argv)
    assert {m.removeprefix("graphprob.") for m in loaded if m.startswith("graphprob.")} == modules
    assert not ARGPARSE & loaded


def test_help_loads_argparse():
    assert "argparse" in cold_modules(("moments", "--help"))


# Scalar parts are ints when integral, so only a non-integral value loads
# fractions (and decimal, which it imports): a p/q literal, or the audit's
# R6 row, which halves the variance.
INTEGER_ONLY = (
    ("decompose", C3),
    ("moments", ONE_LOOP, "a:l"),
    ("cumulants", ONE_LOOP, "2 a:l - L[l]L*[l]"),
    ("check-semicircular", ONE_LOOP, "a:l", "--max-order", "4"),
    ("check-freeness", str(fixture_path("parallel_edges")), "--family-a", "L[e1]",
     "--family-b", "4/2 L[e2]", "--max-order", "3"),
    ("check-rdiagonal", C3, "e1", "--max-order", "4"),
)
NON_INTEGRAL = (
    ("moments", ONE_LOOP, "1/2 L[l]"),
    ("audit", ONE_LOOP),
)


@pytest.mark.parametrize(
    "argv", INTEGER_ONLY + NON_INTEGRAL,
    ids=[a[0] for a in INTEGER_ONLY] + [f"{a[0]}-non-integral" for a in NON_INTEGRAL],
)
def test_only_non_integral_values_load_fractions(argv):
    loaded = cold_modules(argv)
    if argv in NON_INTEGRAL:
        assert "fractions" in loaded
    else:
        assert not {"fractions", "decimal"} & loaded


# One command per analyzer report, and moments, which imports its layers
# as it runs.  The benchmark's trace mode wraps each report class's own
# to_text and to_json_dict, so renaming either breaks it.
TRACED = (
    ("check-semicircular", ONE_LOOP, "a:l", "--max-order", "4"),
    ("check-rdiagonal", C3, "e1", "--max-order", "4"),
    ("check-freeness", str(fixture_path("parallel_edges")), "--family-a", "L[e1]",
     "--family-b", "L[e2]", "--max-order", "3"),
    ("decompose", C3),
    ("audit", SINGLE_EDGE),
    ("moments", ONE_LOOP, "a:l"),
)


@pytest.mark.parametrize("argv", TRACED, ids=[argv[0] for argv in TRACED])
def test_traced_run_prints_the_same_bytes(tmp_path, capsys, argv):
    argv = [*argv, "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_op.py"), str(tmp_path / "trace.json"), "--",
         *argv],
        capture_output=True, cwd=ROOT, env=env,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == out.encode("utf-8")


# Each request bound a command checks before any work, with the message
# it reports.
BOUND_FAULTS = (
    (("moments", ONE_LOOP, "a:l", "--max-order", "0"), "max order must be positive"),
    (("cumulants", ONE_LOOP, "a:l", "--max-order", "0"), "max order must be positive"),
    (("check-freeness", ONE_LOOP, "--family-a", "L[l]", "--family-b", "L*[l]",
      "--max-order", "0"), "max order must be positive"),
    (("check-semicircular", ONE_LOOP, "a:l", "--max-order", "1"),
     "semicircularity needs max order at least 2"),
    (("check-rdiagonal", SINGLE_EDGE, "e", "--max-order", "1"),
     "R-diagonality needs max order at least 2"),
    (("paths", ONE_LOOP, "--max-len", "-1"), "max length must be nonnegative"),
    (("decompose", ONE_LOOP, "--loop-bound", "0"), "loop length bound must be positive"),
)


def test_request_bounds_are_domain_errors(capsys):
    for argv, message in BOUND_FAULTS:
        assert run(capsys, *argv) == (
            1, "", json.dumps({"error": {"code": "domain-error", "message": message}}) + "\n"
        ), argv


def test_path_enumeration_over_the_limit_is_arity_bound(capsys):
    # bouquet3 has 3^n words of length n: counting stops at length 11, the
    # first whose words and letters pass the limit, and no word is built.
    bouquet3 = str(fixture_path("bouquet3"))
    payload = {"error": {"code": "arity-bound", "message": "265720 words with 2790066 letters"
                         " up to length 11 exceed the path enumeration limit 1000000"}}
    for argv in (("paths", bouquet3, "--max-len", "20"),
                 ("decompose", bouquet3, "--loop-bound", "20")):
        assert run(capsys, *argv) == (1, "", json.dumps(payload) + "\n")


def test_missing_graph_file_is_reported_before_the_request(tmp_path, capsys):
    # Every command, with a request fault after a graph file that is not
    # there; validate and audit have no request fault.
    missing = str(tmp_path / "no_such.graph")
    cases = [("validate", missing), ("audit", missing)]
    cases += [(argv[0], missing, *argv[2:]) for argv, _ in BOUND_FAULTS]
    assert {argv[0] for argv in cases} == set(cli._COMMANDS)
    for argv in cases:
        message = _file_error(capsys, *argv)
        assert message.startswith("cannot read graph file: "), argv
