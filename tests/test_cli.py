import json
from fractions import Fraction

import pytest

from graphprob import Backend, DomainError, parse_word
from graphprob.cli import (
    ast_degree,
    build_element,
    main,
    parse_element,
    parse_element_ast,
)

from .conftest import GOLDENS, fixture_path, load_golden

ONE_LOOP = str(fixture_path("one_loop"))
SINGLE_EDGE = str(fixture_path("single_edge"))
C3 = str(fixture_path("c3"))
LOOPS_BRIDGE = str(fixture_path("loops_bridge"))
BOUQUET3 = str(fixture_path("bouquet3"))
LOLLIPOP = str(fixture_path("lollipop"))


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
    for bad in ("", "L[", "L[l] L[l] +", "* L[l]", "a:@v", "L[l] 2"):
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


def test_decompose_golden(capsys):
    code, out, _ = run(
        capsys, "decompose", C3, "--loop-bound", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == load_golden("decompose_c3.json")


def test_audit_golden(capsys):
    code, out, _ = run(capsys, "audit", ONE_LOOP, "--format", "json")
    assert code == 0
    assert json.loads(out) == load_golden("audit_one_loop.json")


def _golden_text(name):
    return (GOLDENS / name).read_text(encoding="utf-8")


MOMENTS_ONE_LOOP = """\
moments of 1*L*[l] + 1*L[l]  [axiomatic]
order  value
-----  -------
1      0
2      2*L[@v]
3      0
4      6*L[@v]
"""

CUMULANTS_ONE_LOOP = """\
cumulants of 1*L*[l] + 1*L[l]  [axiomatic]
order  value
-----  --------
1      0
2      2*L[@v]
3      0
4      -2*L[@v]
"""

# Brackets on graphs with a branching vertex, where the axiomatic product
# depends on bracketing: these pin the order in which the cumulant
# recursion multiplies.
FREENESS_BOUQUET3 = """\
freeness of {1*L*[l1] + 1*L[l1]} vs {1*L*[l2] + 1*L[l2]}  [axiomatic]
mixed tuples checked: 22 (orders 1..4)
order  pattern                                                                           value
-----  --------------------------------------------------------------------------------  --------
4      (1*L*[l1] + 1*L[l1], 1*L*[l2] + 1*L[l2], 1*L*[l2] + 1*L[l2], 1*L*[l1] + 1*L[l1])  -1*L[@v]
4      (1*L*[l2] + 1*L[l2], 1*L*[l1] + 1*L[l1], 1*L*[l1] + 1*L[l1], 1*L*[l2] + 1*L[l2])  -1*L[@v]
computed: not free to order 4
diagram prediction: diagram-distinct
agreement: disagree
"""

RDIAGONAL_LOLLIPOP = """\
R-diagonality of a = L[e]  [axiomatic]
order  pattern                value
-----  ---------------------  ---------
2      (a, a*)                1*L[@v1]
2      (a*, a)                1*L[@v2]
4      (a, a*, a, a*)         -1*L[@v1]
4      (a*, a, a*, a)         -1*L[@v2]
6      (a, a*, a, a*, a, a*)  2*L[@v1]
6      (a*, a, a*, a, a*, a)  2*L[@v2]
verdict: true (every nonzero bracket alternates a, a*)
"""

CUMULANTS_BOUQUET3 = """\
cumulants of 1*L*[l1] + 1*L*[l2] + 1*L[l1] + 1*L[l2]  [axiomatic]
order  value
-----  --------
1      0
2      4*L[@v]
3      0
4      -6*L[@v]
5      0
6      18*L[@v]
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["audit", LOOPS_BRIDGE, "--format", "json"], _golden_text("audit_loops_bridge.json")),
        (["audit", ONE_LOOP], _golden_text("audit_one_loop.txt")),
        (["moments", ONE_LOOP, "a:l", "--backend", "axiomatic"], MOMENTS_ONE_LOOP),
        (["cumulants", ONE_LOOP, "a:l", "--backend", "axiomatic"], CUMULANTS_ONE_LOOP),
        (["check-freeness", BOUQUET3, "--family-a", "a:l1", "--family-b", "a:l2",
          "--max-order", "4", "--backend", "axiomatic"], FREENESS_BOUQUET3),
        (["check-rdiagonal", LOLLIPOP, "e", "--max-order", "6", "--backend", "axiomatic"],
         RDIAGONAL_LOLLIPOP),
        (["cumulants", BOUQUET3, "a:l1+a:l2", "--max-order", "6", "--backend", "axiomatic"],
         CUMULANTS_BOUQUET3),
    ],
    ids=["audit-loops_bridge-json", "audit-one_loop-text", "moments-one_loop-text",
         "cumulants-one_loop-text", "freeness-bouquet3-text", "rdiagonal-lollipop-text",
         "cumulants-bouquet3-text"],
)
def test_stdout_matches_pinned_bytes(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


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


def test_syntax_error_payload(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices: a\nedge e a -> a\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    payload = json.loads(err)["error"]
    assert payload["code"] == "graph-syntax"
    assert payload["line"] == 2


def test_depth_error_payload(capsys):
    code, _, err = run(
        capsys, "moments", ONE_LOOP, "a:l", "--max-order", "4", "--depth", "2"
    )
    assert code == 1
    payload = json.loads(err)["error"]
    assert payload["code"] == "depth-insufficient"
    assert payload["required"] == 3 and payload["depth"] == 2


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
