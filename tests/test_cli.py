import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from graphprob import Backend, DomainError, catalan, parse_word
from graphprob.cli import (
    ast_degree,
    build_element,
    main,
    parse_element,
    parse_element_ast,
)

from .conftest import fixture_path
from .pinned import GOLDENS, PINNED, ROOT, cli_argv

ONE_LOOP = str(fixture_path("one_loop"))
SINGLE_EDGE = str(fixture_path("single_edge"))
C3 = str(fixture_path("c3"))
LOOPS_BRIDGE = str(fixture_path("loops_bridge"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- element expressions ----


def test_parse_element_terms(one_loop):
    ast = parse_element_ast("2*L[l] - 1/2 L*[l] + a:l")
    assert [c for c, _ in ast] == [Fraction(2), Fraction(-1, 2), Fraction(1)]
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
    for bad in ("", "L[", "L[l] L[l] +", "* L[l]", "a:@v", "L[l] 2", "1/0", "L[l] + 3/0 L*[l]"):
        with pytest.raises(DomainError):
            parse_element(one_loop, Backend.axiomatic(), bad)


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


def test_depth_error_payload(capsys):
    # A request needs its largest expression degree times its order,
    # checked before any work: 1 * 4, 2 * 5 and 2 * 5 here.
    cases = (
        (("moments", ONE_LOOP, "a:l", "--max-order", "4", "--depth", "2"), 4, 2),
        (("moments", str(fixture_path("bouquet3")), "a:l1.l2 + a:l3", "--max-order", "5",
          "--depth", "9"), 10, 9),
        (("check-freeness", C3, "--family-a", "L[e1.e2]", "--family-b", "L[e3]",
          "--max-order", "5", "--depth", "2"), 10, 2),
    )
    for argv, required, depth in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1
        payload = json.loads(err)["error"]
        assert payload["code"] == "depth-insufficient"
        assert payload["required"] == required and payload["depth"] == depth


def test_depth_error_names_a_depth_that_works(capsys):
    # Every command that takes --depth, each with a depth that is too
    # small: the payload's required depth must then succeed.
    lollipop = str(fixture_path("lollipop"))
    cases = (
        ("moments", ONE_LOOP, "a:l", "--max-order", "4", "--depth", "2"),
        ("cumulants", ONE_LOOP, "a:l", "--max-order", "4", "--depth", "1"),
        ("check-semicircular", str(fixture_path("bouquet3")), "a:l1 + a:l2",
         "--max-order", "4", "--depth", "3"),
        ("check-freeness", C3, "--family-a", "L[e1.e2]", "--family-b", "L[e3]",
         "--max-order", "5", "--depth", "2"),
        ("check-rdiagonal", C3, "e1.e2", "--max-order", "5", "--depth", "6"),
        ("audit", lollipop, "--backend", "fock", "--depth", "2"),
        ("audit", SINGLE_EDGE, "--backend", "fock", "--depth", "1"),
    )
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        payload = json.loads(err)["error"]
        assert payload["code"] == "depth-insufficient" and payload["depth"] == int(argv[-1])
        assert payload["required"] > payload["depth"]
        assert run(capsys, *argv[:-1], str(payload["required"]))[0] == 0, argv


def test_error_payload_bytes(tmp_path, capsys):
    # One error of each payload shape, pinned byte for byte so that a
    # change in key order or escaping shows.
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices: a\nedge e a -> a\n")
    cases = (
        (("validate", str(bad)),
         '{"error": {"code": "graph-syntax", "message": "line 2, column 1: malformed edge line",'
         ' "line": 2, "column": 1}}\n'),
        (("moments", ONE_LOOP, "a:l", "--max-order", "4", "--depth", "2"),
         '{"error": {"code": "depth-insufficient", "message": "truncation depth 2 insufficient,'
         ' need at least 4", "required": 4, "depth": 2}}\n'),
        (("moments", ONE_LOOP, "a:q"),
         '{"error": {"code": "domain-error", "message": "unknown edge: q"}}\n'),
        (("moments", ONE_LOOP, "L[l] + 3/0 L*[l]"),
         '{"error": {"code": "domain-error", "message": "zero denominator in coefficient'
         ' \'3/0\'"}}\n'),
    )
    for argv, want in cases:
        assert run(capsys, *argv) == (1, "", want)


def test_axiomatic_rejects_depth_flag(capsys):
    code, _, err = run(
        capsys, "moments", ONE_LOOP, "a:l", "--backend", "axiomatic", "--depth", "4"
    )
    assert code == 1
    assert "fock" in json.loads(err)["error"]["message"]


def test_bad_element_expression(capsys):
    code, _, err = run(capsys, "moments", ONE_LOOP, "L[l")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "domain-error"


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["paths"]) == 2
    assert main(["paths", ONE_LOOP, "--max-len", "x"]) == 2
    capsys.readouterr()


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


# One command per analyzer report.  The benchmark's trace mode wraps each
# report class's own to_text and to_json_dict, so renaming either breaks it.
TRACED = (
    ("check-semicircular", ONE_LOOP, "a:l", "--max-order", "4"),
    ("check-rdiagonal", C3, "e1", "--max-order", "4"),
    ("check-freeness", str(fixture_path("parallel_edges")), "--family-a", "L[e1]",
     "--family-b", "L[e2]", "--max-order", "3"),
    ("decompose", C3),
    ("audit", SINGLE_EDGE),
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
