"""End-to-end acceptance gate.

Twelve checks, one per core guarantee: partition counts, moment/cumulant
inversion, the abstract pair law, the defining relations on the path
space, loop semicircularity against brute-force word oracles, corner
compressions, R-diagonality of a single edge, the freeness vs
diagram-distinctness dictionary, nilpotency of non-loop generators,
free-product block structure, bimodule behaviour of the brackets, and
byte-determinism of the command line.  Each check prints one visible
PASS/FAIL line.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from graphprob import (
    AlgebraElement,
    Backend,
    CumulantFunctional,
    DiagonalElement,
    GeneratorSymbol,
    PairSource,
    PathWord,
    apply_generator_word,
    catalan,
    check_freeness,
    check_r_diagonal,
    check_semicircular,
    claims_audit,
    classify_edges,
    cumulant_to_moment,
    decompose,
    dressed_tags,
    enumerate_nc,
    enumerate_paths,
    fock_apply,
    parse_graph,
    parse_word,
    reduce_word,
)
from .conftest import FIXTURE_NAMES, fixture_path, load_fixture, load_golden


@pytest.fixture
def report(capsys):
    """Run one check body and print its PASS/FAIL line outside capture,
    re-raising the original failure so pytest still shows it."""

    def run(name, body):
        failure = None
        try:
            body()
        except BaseException as exc:  # noqa: BLE001  report then re-raise
            failure = exc
        with capsys.disabled():
            print(f"[acceptance] {name}: {'FAIL' if failure else 'PASS'}")
        if failure is not None:
            raise failure

    return run


def _generator_pool(graph, backend, max_len=1):
    pool = [
        AlgebraElement.vertex_projection(graph, backend, v) for v in graph.vertices
    ]
    for w in enumerate_paths(graph, max_len):
        if w.is_vertex:
            continue
        pool.append(AlgebraElement.generator(graph, backend, w))
        pool.append(AlgebraElement.generator(graph, backend, w, starred=True))
    return pool


def _random_graph(rng):
    nv = rng.randint(1, 4)
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(1, nv + 1))]
    for j in range(1, rng.randint(0, 5) + 1):
        lines.append(f"edge e{j}: v{rng.randint(1, nv)} -> v{rng.randint(1, nv)}")
    return parse_graph("\n".join(lines) + "\n")


def _random_diagonal(rng, graph):
    return DiagonalElement.make(
        graph, {v: Fraction(rng.randint(-2, 2)) for v in graph.vertices}
    )


def test_nc_counts(report):
    def body():
        expected = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        for n in range(1, 9):
            parts = enumerate_nc(n)
            assert len(parts) == expected[n]
            assert len(parts) == catalan(n)
            assert len({str(p) for p in parts}) == len(parts)

    report("nc-counts", body)


def test_round_trip_inversion(report):
    def body():
        rng = random.Random(20108)
        checked = 0
        for _ in range(10):
            graph = _random_graph(rng)
            for backend in (Backend.axiomatic(), Backend.fock(6)):
                pool = _generator_pool(graph, backend)
                functional = CumulantFunctional()
                for _ in range(10):
                    args = tuple(
                        rng.choice(pool) for _ in range(rng.randint(1, 5))
                    )
                    prod = args[0]
                    for a in args[1:]:
                        prod = prod * a
                    assert cumulant_to_moment(args, functional) == prod.expectation()
                    checked += 1
        assert checked == 200

    report("round-trip-inversion", body)


def test_combinatorial_semicircular_law(report):
    def body():
        graph = load_fixture("one_loop")
        for gamma in (Fraction(2), Fraction(1, 3)):
            source = PairSource(DiagonalElement.vertex_unit(graph, "v", gamma))
            for n in range(1, 11):
                tags = dressed_tags(graph, tuple(f"x{i}" for i in range(n)))
                moment = cumulant_to_moment(tags, source)
                if n % 2:
                    assert moment.is_zero
                else:
                    half = n // 2
                    assert moment == DiagonalElement.vertex_unit(
                        graph, "v", catalan(half) * gamma**half
                    )

    report("combinatorial-semicircular-law", body)


def test_fock_relations(report):
    def body():
        for name in FIXTURE_NAMES:
            graph = load_fixture(name)
            backend = Backend.fock(6)
            basis = enumerate_paths(graph, 3)
            for w in basis:
                if w.is_vertex:
                    continue
                sym = GeneratorSymbol(w)
                star = GeneratorSymbol(w, True)
                head = GeneratorSymbol(PathWord.vertex(graph, w.initial))
                tail = GeneratorSymbol(PathWord.vertex(graph, w.final))
                for u in basis:
                    image = fock_apply(backend, sym, u)
                    assert apply_generator_word(backend, [head, sym, tail], u) == image
                    assert apply_generator_word(backend, [star, sym], u) == fock_apply(
                        backend, tail, u
                    )
                    assert apply_generator_word(backend, [sym, star, sym], u) == image
                # the other half of the range relation fails on the path
                # space: L[w]L*[w] kills the vacuum at the source vertex
                vac = PathWord.vertex(graph, w.initial)
                assert apply_generator_word(backend, [sym, star], vac) is None
                assert fock_apply(backend, head, vac) == vac
            for v in graph.vertices:
                vw = PathWord.vertex(graph, v)
                proj = GeneratorSymbol(vw)
                assert GeneratorSymbol(vw, True) == proj
                for u in basis:
                    once = fock_apply(backend, proj, u)
                    assert apply_generator_word(backend, [proj, proj], u) == once
            audit = claims_audit(graph, [Backend.axiomatic(), Backend.fock(8)])
            rows = {r.id: r for r in audit.rows}
            # fock never identifies L[e]L*[e] with the vertex projection;
            # axiomatic does only where e is the sole edge out of its vertex
            first = graph.edges[0]
            sole = graph.edges_from(first.initial) == (first,)
            assert rows["R1"].verdict == ("backend-dependent" if sole else "mismatch")

    report("fock-relations", body)


def test_semicircularity_one_loop(report):
    def body():
        graph = load_fixture("one_loop")
        loop = parse_word(graph, "l")
        for backend in (Backend.axiomatic(), Backend.fock(8)):
            a = AlgebraElement.symmetrized_generator(graph, backend, loop)
            for n in range(1, 9):
                # brute force over the 2^n sign words of (L + L*)^n
                counted = 0
                for pattern in itertools.product((False, True), repeat=n):
                    syms = [GeneratorSymbol(loop, s) for s in pattern]
                    m = reduce_word(backend, syms)
                    if m is not None and m.is_vertex:
                        counted += 1
                assert a.power(n).expectation() == DiagonalElement.vertex_unit(
                    graph, "v", counted
                )
                if n % 2:
                    assert counted == 0
                elif backend.is_fock:
                    assert counted == catalan(n // 2)
                else:
                    assert counted == math.comb(n, n // 2)
        fock = Backend.fock(8)
        a = AlgebraElement.symmetrized_generator(graph, fock, loop)
        functional = CumulantFunctional()
        unit = DiagonalElement.vertex_unit(graph, "v")
        for n in range(1, 9):
            val = functional.valuation((a,) * n)
            if n == 2:
                assert val == unit
            else:
                assert val.is_zero
        rep = check_semicircular(a, 8)
        assert rep.verdict and rep.k2 == unit
        audit = claims_audit(graph, [Backend.axiomatic(), fock])
        rows = {r.id: r for r in audit.rows}
        assert rows["R2"].computed == {"axiomatic": "2*L[@v]", "fock": "1*L[@v]"}
        assert rows["R2"].verdict == "backend-dependent"
        assert rows["R3"].stated == "8*L[@v]"
        assert rows["R3"].computed == {"axiomatic": "6*L[@v]", "fock": "2*L[@v]"}
        assert rows["R3"].verdict == "mismatch"
        assert rows["R5"].computed["fock"] == "verdict true"

    report("semicircularity-one-loop", body)


def test_identity_compression(report):
    def body():
        cases = [
            ("one_loop", "l", Backend.axiomatic()),
            ("one_loop", "l", Backend.fock(8)),
            ("c3", "e1.e2.e3", Backend.axiomatic()),
            ("c3", "e1.e2.e3", Backend.fock(18)),
            ("lollipop", "l", Backend.axiomatic()),
            ("lollipop", "l", Backend.fock(8)),
        ]
        for name, text, backend in cases:
            graph = load_fixture(name)
            w = parse_word(graph, text)
            a = AlgebraElement.symmetrized_generator(graph, backend, w)
            p = AlgebraElement.vertex_projection(graph, backend, w.initial)
            for k in range(1, 7):
                ak = a.power(k)
                assert p * ak == ak
                assert ak * p == ak
                assert p * ak * p == ak

    report("identity-compression", body)


def test_r_diagonality_single_edge(report):
    def body():
        graph = load_fixture("single_edge")
        w = parse_word(graph, "e")
        unit1 = DiagonalElement.vertex_unit(graph, "v1")
        unit2 = DiagonalElement.vertex_unit(graph, "v2")

        fock = check_r_diagonal(graph, Backend.fock(8), w, 6)
        assert {(f.order, f.pattern): f.value for f in fock.nonzero} == {
            (2, ("a*", "a")): unit2
        }
        assert fock.verdict

        ax = check_r_diagonal(graph, Backend.axiomatic(), w, 6)
        found = {(f.order, f.pattern): f.value for f in ax.nonzero}
        expected = {}
        for m in (1, 2, 3):
            # alternating brackets carry signed shifted Catalan numbers
            coeff = Fraction((-1) ** (m + 1) * catalan(m - 1))
            expected[(2 * m, ("a", "a*") * m)] = DiagonalElement.vertex_unit(
                graph, "v1", coeff
            )
            expected[(2 * m, ("a*", "a") * m)] = DiagonalElement.vertex_unit(
                graph, "v2", coeff
            )
        assert found == expected
        assert ax.verdict
        assert found[(2, ("a", "a*"))] == unit1

    report("r-diagonality-single-edge", body)


def test_freeness_diagram_matrix(report):
    def body():
        parallel = load_fixture("parallel_edges")
        b6 = Backend.fock(6)
        rep = check_freeness(
            [AlgebraElement.generator(parallel, b6, parse_word(parallel, "e1"))],
            [AlgebraElement.generator(parallel, b6, parse_word(parallel, "e2"))],
            6,
        )
        assert rep.scan.nonzero == ()
        assert rep.free_to_order
        assert rep.prediction == "diagram-distinct"
        assert rep.agreement == "agree"

        lollipop = load_fixture("lollipop")
        b4 = Backend.fock(4)
        rep = check_freeness(
            [AlgebraElement.generator(lollipop, b4, parse_word(lollipop, "e"))],
            [AlgebraElement.generator(lollipop, b4, parse_word(lollipop, "l"))],
            4,
        )
        assert rep.free_to_order and rep.agreement == "agree"
        assert rep.prediction == "diagram-distinct"

        bouquet = load_fixture("bouquet3")
        rep = check_freeness(
            [AlgebraElement.generator(bouquet, b4, parse_word(bouquet, "l1"))],
            [AlgebraElement.generator(bouquet, b4, parse_word(bouquet, "l2"))],
            4,
        )
        assert rep.free_to_order and rep.agreement == "agree"

        # a loop and its square share a primitive root and are not free
        one_loop = load_fixture("one_loop")
        b12 = Backend.fock(12)
        al = AlgebraElement.symmetrized_generator(one_loop, b12, parse_word(one_loop, "l"))
        all_ = AlgebraElement.symmetrized_generator(
            one_loop, b12, parse_word(one_loop, "l.l")
        )
        rep = check_freeness([al], [all_], 3)
        assert not rep.free_to_order
        assert rep.prediction == "not-diagram-distinct"
        assert rep.non_distinct_pairs == (("l", "l.l"),)
        assert rep.agreement == "agree"
        functional = CumulantFunctional()
        assert functional.valuation((al, al, all_)) == DiagonalElement.vertex_unit(
            one_loop, "v"
        )

    report("freeness-diagram-matrix", body)


def test_nilpotency(report):
    def body():
        for name in FIXTURE_NAMES:
            graph = load_fixture(name)
            for eid in classify_edges(graph).eloop_c:
                w = PathWord.from_edges(graph, [eid])
                for backend in (Backend.axiomatic(), Backend.fock(6)):
                    gen = AlgebraElement.generator(graph, backend, w)
                    for k in range(2, 6):
                        assert reduce_word(backend, [GeneratorSymbol(w)] * k) is None
                        assert gen.power(k).is_zero

    report("nilpotency", body)


def test_decomposition_goldens(report):
    def body():
        cases = [
            ("c3", 3, "decompose_c3.json"),
            ("bouquet3", 2, "decompose_bouquet3.json"),
            ("loops_bridge", 2, "decompose_loops_bridge.json"),
        ]
        for name, bound, golden_name in cases:
            rep = decompose(load_fixture(name), bound)
            got = rep.to_json_dict()
            golden = load_golden(golden_name)
            blocks = sorted(json.dumps(b, sort_keys=True) for b in got["edge_blocks"])
            wanted = sorted(
                json.dumps(b, sort_keys=True) for b in golden["edge_blocks"]
            )
            assert blocks == wanted
            assert got["diagonal"] == golden["diagonal"]
            assert got == golden

        c3 = decompose(load_fixture("c3"), 3)
        assert c3.block_count == 4
        bridge = decompose(load_fixture("loops_bridge"), 2)
        assert bridge.block_count == 7
        hints = sorted(b.hint or "-" for b in bridge.edge_blocks)
        assert hints == ["-", "L(F_2)", "L(F_2)", "L(F_3)", "L(F_3)", "L(F_3)"]
        bouquet = decompose(load_fixture("bouquet3"), 2)
        assert [b.hint for b in bouquet.edge_blocks] == ["L(F_3)"] * 3

    report("decomposition-goldens", body)


def test_bimodule_properties(report):
    def body():
        rng = random.Random(7341)
        graphs = [
            load_fixture(n) for n in ("one_loop", "c3", "lollipop", "parallel_edges")
        ]
        functionals = {}
        pools = {}
        for _ in range(100):
            graph = rng.choice(graphs)
            backend = rng.choice((Backend.axiomatic(), Backend.fock(10)))
            key = (graph, backend)
            functional = functionals.setdefault(key, CumulantFunctional())
            pool = pools.setdefault(key, _generator_pool(graph, backend, max_len=2))
            n = rng.randint(2, 4)
            args = [rng.choice(pool) for _ in range(n)]
            d = _random_diagonal(rng, graph)
            dp = _random_diagonal(rng, graph)

            base = functional.valuation(tuple(args))
            dressed = list(args)
            dressed[0] = d.embed(backend) * dressed[0]
            dressed[-1] = dressed[-1] * dp.embed(backend)
            assert functional.valuation(tuple(dressed)) == d * base * dp

            j = rng.randrange(n - 1)
            left = list(args)
            left[j] = left[j] * d.embed(backend)
            right = list(args)
            right[j + 1] = d.embed(backend) * right[j + 1]
            assert functional.valuation(tuple(left)) == functional.valuation(
                tuple(right)
            )

    report("bimodule-properties", body)


CLI_CASES = [
    ("validate", "c3", "--format", "json"),
    ("validate", "missing_file", "--format", "json"),
    ("paths", "bouquet3", "--max-len", "2", "--format", "json"),
    ("decompose", "loops_bridge", "--format", "json"),
    ("moments", "one_loop", "a:l", "--max-order", "4", "--format", "json"),
    ("moments", "one_loop", "a:l", "--max-order", "4", "--backend", "axiomatic"),
    ("cumulants", "one_loop", "a:l", "--max-order", "4", "--format", "json"),
    (
        "check-semicircular",
        "one_loop",
        "a:l",
        "--max-order",
        "6",
        "--backend",
        "axiomatic",
        "--format",
        "json",
    ),
    ("check-rdiagonal", "single_edge", "e", "--max-order", "6", "--format", "json"),
    (
        "check-freeness",
        "parallel_edges",
        "--family-a",
        "L[e1]",
        "--family-b",
        "L[e2]",
        "--max-order",
        "4",
        "--format",
        "json",
    ),
    ("audit", "one_loop",),
]


def _run_cli(args, seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    return subprocess.run(
        [sys.executable, "-m", "graphprob", *args],
        capture_output=True,
        env=env,
        check=False,
    )


def test_cli_determinism(report):
    def body():
        first = {}
        for case in CLI_CASES:
            args = [case[0], str(fixture_path(case[1]))] + list(case[2:])
            a = _run_cli(args, "0")
            b = _run_cli(args, "1")
            assert a.stdout == b.stdout, case
            assert a.stderr == b.stderr, case
            assert a.returncode == b.returncode, case
            first[case[0:2]] = a
        ok = first[("validate", "c3")]
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["vertices"] == ["v1", "v2", "v3"]
        bad = first[("validate", "missing_file")]
        assert bad.returncode == 1 and bad.stdout == b""
        assert json.loads(bad.stderr)["error"]["code"] == "domain-error"
        audit = first[("audit", "one_loop")]
        assert audit.returncode == 0
        assert b"mismatch" in audit.stdout

    report("cli-determinism", body)
