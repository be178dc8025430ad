import pytest

from graphprob import (
    AlgebraElement,
    Backend,
    DiagonalElement,
    DomainError,
    build_semicircular_system,
    check_freeness,
    check_r_diagonal,
    check_semicircular,
    claims_audit,
    decompose,
    parse_word,
)

from .conftest import load_golden

AX = Backend.axiomatic()


# ---- semicircularity ----


def test_semicircular_one_loop_backends_disagree(one_loop):
    l = parse_word(one_loop, "l")
    a_fk = AlgebraElement.symmetrized_generator(one_loop, Backend.fock(6), l)
    rep_fk = check_semicircular(a_fk, 6)
    assert rep_fk.verdict
    assert str(rep_fk.k2) == "1*L[@v]"
    assert rep_fk.offenders == ()

    a_ax = AlgebraElement.symmetrized_generator(one_loop, AX, l)
    rep_ax = check_semicircular(a_ax, 6)
    assert not rep_ax.verdict
    assert str(rep_ax.k2) == "2*L[@v]"
    assert [t.order for t in rep_ax.offenders] == [4, 6]
    assert str(rep_ax.offenders[0].value) == "-2*L[@v]"


def test_semicircular_rejects_non_self_adjoint(one_loop):
    a = AlgebraElement.generator(one_loop, AX, parse_word(one_loop, "l"))
    with pytest.raises(DomainError):
        check_semicircular(a, 4)


def test_semicircular_report_serializes(one_loop):
    a = AlgebraElement.symmetrized_generator(one_loop, Backend.fock(4), parse_word(one_loop, "l"))
    rep = check_semicircular(a, 4)
    d = rep.to_json_dict()
    assert d["verdict"] is True
    assert d["k2"]["value"] == "1*L[@v]"
    assert "semicircular to order 4" in rep.to_text()


def test_build_semicircular_system(graphs):
    g = graphs["bouquet3"]
    loops = [parse_word(g, "l1"), parse_word(g, "l2")]
    system = build_semicircular_system(g, Backend.fock(4), loops)
    assert [str(a) for a in system] == ["1*L*[l1] + 1*L[l1]", "1*L*[l2] + 1*L[l2]"]

    with pytest.raises(DomainError, match="diagram-distinct"):
        build_semicircular_system(g, AX, [parse_word(g, "l1"), parse_word(g, "l1.l1")])

    lol = graphs["lollipop"]
    with pytest.raises(DomainError, match="not a loop"):
        build_semicircular_system(lol, AX, [parse_word(lol, "e")])


# ---- R-diagonality ----


def test_r_diagonal_single_edge(single_edge):
    e = parse_word(single_edge, "e")
    rep_fk = check_r_diagonal(single_edge, "fock", e, 6)
    assert rep_fk.verdict
    assert [(f.order, f.pattern, str(f.value)) for f in rep_fk.nonzero] == [
        (2, ("a*", "a"), "1*L[@v2]")
    ]

    rep_ax = check_r_diagonal(single_edge, "axiomatic", e, 6)
    assert rep_ax.verdict
    got = {(f.order, f.pattern): str(f.value) for f in rep_ax.nonzero}
    assert got[(2, ("a", "a*"))] == "1*L[@v1]"
    assert got[(2, ("a*", "a"))] == "1*L[@v2]"
    assert got[(4, ("a", "a*", "a", "a*"))] == "-1*L[@v1]"
    assert len(got) == 6


def test_r_diagonal_rejects_vertex(single_edge):
    from graphprob import PathWord

    with pytest.raises(DomainError):
        check_r_diagonal(single_edge, "axiomatic", PathWord.vertex(single_edge, "v1"), 4)


def test_r_diagonal_longer_word(c3):
    w = parse_word(c3, "e1.e2")
    rep = check_r_diagonal(c3, "fock", w, 4)
    assert rep.verdict
    assert [(f.order, f.pattern) for f in rep.nonzero] == [(2, ("a*", "a"))]


# ---- freeness ----


def test_freeness_parallel_edges(graphs):
    g = graphs["parallel_edges"]
    b = Backend.fock(4)
    x = AlgebraElement.generator(g, b, parse_word(g, "e1"))
    y = AlgebraElement.generator(g, b, parse_word(g, "e2"))
    rep = check_freeness([x], [y], 4)
    assert rep.free_to_order
    assert rep.prediction == "diagram-distinct"
    assert rep.agreement == "agree"
    assert rep.non_distinct_pairs == ()


def test_freeness_power_dependence(one_loop):
    b = Backend.fock(12)
    al = AlgebraElement.symmetrized_generator(one_loop, b, parse_word(one_loop, "l"))
    all_ = AlgebraElement.symmetrized_generator(one_loop, b, parse_word(one_loop, "l.l"))
    rep = check_freeness([al], [all_], 3)
    assert not rep.free_to_order
    assert rep.prediction == "not-diagram-distinct"
    assert rep.non_distinct_pairs == (("l", "l.l"),)
    assert rep.agreement == "agree"


def test_freeness_rejects_empty_family(one_loop):
    a = AlgebraElement.vertex_projection(one_loop, AX, "v")
    with pytest.raises(DomainError):
        check_freeness([a], [], 2)


def test_library_checks_name_the_depth_of_the_whole_call(one_loop, c3):
    """Each check gates the largest degree its brackets reach before any
    bracket, so the depth a DepthError names is enough to rerun, and the
    reports there equal those one depth deeper.  A mixed tuple holds an
    element of each family, so families of degrees 2 and 1 at order 5
    need 4 x 2 + 1 = 9, not 5 x 2."""
    from graphprob import DepthError
    from graphprob.cumulants import mixed_cumulant_scan

    def one_loop_calls(backend):
        l = parse_word(one_loop, "l")
        a = AlgebraElement.symmetrized_generator(one_loop, backend, l)
        g = AlgebraElement.generator(one_loop, backend, l)
        g_star = AlgebraElement.generator(one_loop, backend, l, starred=True)
        return [
            lambda: check_semicircular(a, 6),
            lambda: mixed_cumulant_scan([g], [g_star], 6),
            lambda: check_freeness([g], [g_star], 6),
        ]

    def c3_calls(backend):
        long, short = (
            AlgebraElement.generator(c3, backend, parse_word(c3, w)) for w in ("e1.e2", "e3")
        )
        return [
            lambda: mixed_cumulant_scan([long], [short], 5),
            lambda: check_freeness([long], [short], 5),
        ]

    def without_backend(report):
        return {f: getattr(report, f) for f in report._fields if f != "backend"}

    for calls, required in ((one_loop_calls, 6), (c3_calls, 9)):
        for depth in range(required - 3, required):
            for call in calls(Backend.fock(depth)):
                with pytest.raises(DepthError) as err:
                    call()
                assert err.value.required == required
        exact = [call() for call in calls(Backend.fock(required))]
        deeper = [call() for call in calls(Backend.fock(required + 1))]
        assert [without_backend(r) for r in exact] == [without_backend(r) for r in deeper]


def test_depth_error_names_a_depth_that_works(graphs):
    """Every entry point a command calls, at a depth too small for it: the
    DepthError names that depth and a required one at which the same call
    runs.  A mixed tuple of families of degrees 2 and 1 at order 5 needs
    4 x 2 + 1 = 9."""
    from graphprob import DepthError
    from graphprob.cli import parse_element
    from graphprob.cumulants import cumulant_series

    def el(name, text, backend):
        return parse_element(graphs[name], backend, text)

    cases = (
        (lambda b: el("one_loop", "a:l", b).moments(4), 2, 4),
        (lambda b: el("bouquet3", "a:l1.l2 + a:l3", b).moments(5), 9, 10),
        (lambda b: cumulant_series(el("one_loop", "a:l", b), 4), 1, 4),
        (lambda b: check_semicircular(el("bouquet3", "a:l1 + a:l2", b), 4), 3, 4),
        (lambda b: check_freeness([el("c3", "L[e1.e2]", b)], [el("c3", "L[e3]", b)], 5), 2, 9),
    )
    for call, depth, required in cases:
        with pytest.raises(DepthError) as err:
            call(Backend.fock(depth))
        assert (err.value.required, err.value.depth) == (required, depth)
        call(Backend.fock(required))


# ---- decomposition ----


def test_decompose_c3(c3):
    rep = decompose(c3, 3)
    assert rep.block_count == 4
    assert rep.diagonal.label == "Δ_3"
    assert all(b.kind == "nonloop" and b.hint is None for b in rep.edge_blocks)
    words = [r.word for r in rep.basic_loops]
    assert words == ["e1.e2.e3", "e2.e3.e1", "e3.e1.e2"]
    assert rep.to_json_dict() == load_golden("decompose_c3.json")


def test_decompose_bouquet3(graphs):
    rep = decompose(graphs["bouquet3"], 2)
    assert rep.block_count == 4
    assert {b.hint for b in rep.edge_blocks} == {"L(F_3)"}
    assert rep.to_json_dict() == load_golden("decompose_bouquet3.json")


def test_decompose_loops_bridge(graphs):
    rep = decompose(graphs["loops_bridge"], 2)
    assert rep.block_count == 7
    hints = sorted(b.hint or "-" for b in rep.edge_blocks)
    assert hints == ["-", "L(F_2)", "L(F_2)", "L(F_3)", "L(F_3)", "L(F_3)"]
    assert any("≠ L(F_5)" in n for n in rep.notes)
    assert rep.to_json_dict() == load_golden("decompose_loops_bridge.json")


def test_decompose_lollipop_shapes(lollipop):
    rep = decompose(lollipop, 3)
    assert rep.block_count == 3
    loop_block = rep.edge_blocks[0]
    assert loop_block.kind == "loop" and loop_block.hint == "L(F_1)"
    edge_block = rep.edge_blocks[1]
    assert edge_block.kind == "nonloop" and edge_block.base == ("v1", "v2")
    assert [r.word for r in rep.basic_loops] == ["l"]


def test_decompose_rejects_bad_bound(c3):
    with pytest.raises(DomainError):
        decompose(c3, 0)


# ---- audit ----


def _audit(graph):
    return claims_audit(graph)


def test_audit_one_loop_rows(one_loop):
    rep = _audit(one_loop)
    by_id = {r.id: r for r in rep.rows}
    assert list(by_id) == ["R1", "R2", "R3", "R4", "R5", "R6"]
    assert by_id["R1"].verdict == "backend-dependent"
    assert by_id["R2"].verdict == "backend-dependent"
    assert by_id["R2"].computed == {"axiomatic": "2*L[@v]", "fock": "1*L[@v]"}
    assert by_id["R3"].verdict == "mismatch"
    assert by_id["R3"].computed == {"axiomatic": "6*L[@v]", "fock": "2*L[@v]"}
    assert by_id["R4"].verdict == "backend-dependent"
    assert by_id["R5"].verdict == "backend-dependent"
    assert by_id["R6"].verdict == "backend-dependent"
    assert rep.to_json_dict() == load_golden("audit_one_loop.json")


def test_audit_single_edge_rows(single_edge):
    rep = _audit(single_edge)
    assert [r.id for r in rep.rows] == ["R1", "R4"]
    by_id = {r.id: r for r in rep.rows}
    assert by_id["R1"].computed["axiomatic"] == "1*L[@v1]"
    assert by_id["R1"].computed["fock"] == "1*L[e]L*[e]"
    assert by_id["R4"].computed["fock"].startswith("counterexample")
    assert rep.to_json_dict() == load_golden("audit_single_edge.json")


def test_audit_single_backend(one_loop):
    rep = claims_audit(one_loop, ["axiomatic"])
    assert rep.backends == ("axiomatic",)
    by_id = {r.id: r for r in rep.rows}
    assert by_id["R2"].verdict == "match"
    assert by_id["R3"].verdict == "mismatch"
    assert by_id["R5"].verdict == "mismatch"
    assert by_id["R6"].verdict == "match"


def test_audit_rejects_duplicate_kinds(one_loop):
    with pytest.raises(DomainError):
        claims_audit(one_loop, ["fock", "fock"])


def test_audit_text_renders(one_loop):
    text = _audit(one_loop).to_text()
    assert "R3" in text and "backend-dependent" in text


# ---- the checks' own backends ----


def test_r_diagonal_takes_the_depth_its_scan_needs(graphs):
    """check_r_diagonal builds its backend from a kind: on fock at
    |w| x max_order, the degree of its longest tuples, and one level less
    stops the same scan."""
    from graphprob import DepthError, enumerate_paths
    from graphprob.cumulants import mixed_cumulant_scan

    for g in graphs.values():
        for w in enumerate_paths(g, 2):
            if w.is_vertex:
                continue
            for n in range(2, 7):
                depth = w.length * n
                assert check_r_diagonal(g, "fock", w, n).backend == f"fock(depth={depth})"
                short = Backend.fock(depth - 1)
                pair = [AlgebraElement.generator(g, short, w, starred=s) for s in (False, True)]
                with pytest.raises(DepthError) as err:
                    mixed_cumulant_scan(pair[:1], pair[1:], n)
                assert err.value.required == depth


def test_checks_reject_unknown_and_repeated_kinds(one_loop):
    l = parse_word(one_loop, "l")
    for kind in ("both", "Fock", AX):
        with pytest.raises(DomainError, match="unknown backend kind"):
            check_r_diagonal(one_loop, kind, l, 2)
        with pytest.raises(DomainError, match="unknown backend kind"):
            claims_audit(one_loop, [kind])
    with pytest.raises(DomainError, match="one backend per kind"):
        claims_audit(one_loop, ["axiomatic", "fock", "axiomatic"])


def test_audit_evaluates_each_subject_once_per_backend(graphs, monkeypatch):
    """One semicircularity check per backend reads the loop rows, and one
    faithfulness probe the edge rows; the fock depth is 6 with a loop
    edge and 2 without."""
    import graphprob.audit as audit

    calls = []

    def counting(name):
        real = getattr(audit, name)

        def call(subject, *rest):
            element = subject[0] if name == "faithfulness_probe" else subject
            calls.append((name, str(element.backend)))
            return real(subject, *rest)

        monkeypatch.setattr(audit, name, call)

    counting("check_semicircular")
    counting("faithfulness_probe")
    cases = (
        ("one_loop", ("axiomatic", "fock"),
         [("faithfulness_probe", "axiomatic"), ("check_semicircular", "axiomatic"),
          ("faithfulness_probe", "fock(depth=6)"), ("check_semicircular", "fock(depth=6)")]),
        ("lollipop", ("fock",),
         [("faithfulness_probe", "fock(depth=6)"), ("check_semicircular", "fock(depth=6)")]),
        ("c3", ("fock", "axiomatic"),
         [("faithfulness_probe", "fock(depth=2)"), ("faithfulness_probe", "axiomatic")]),
    )
    for name, kinds, want in cases:
        calls.clear()
        assert claims_audit(graphs[name], kinds).backends == kinds
        assert calls == want, name


# ---- order bounds ----


def test_orders_below_the_minimum_are_rejected_first(c3, one_loop):
    """Each check rejects an order below its minimum, at the bound minus
    one and at -1, with the command line's message.  It does so before
    any other check and before it builds a backend: the inputs below
    would fail otherwise (an element that is not self-adjoint, a vertex
    word, an unknown kind)."""
    from graphprob import PathWord
    from graphprob.cumulants import cumulant_series, mixed_cumulant_scan

    a = AlgebraElement.generator(one_loop, Backend.fock(1), parse_word(one_loop, "l"))
    e12 = parse_word(c3, "e1.e2")
    v1 = PathWord.vertex(c3, "v1")
    at_least_2 = "needs max order at least 2"
    cases = [
        (lambda n: check_semicircular(a, n), 2, f"semicircularity {at_least_2}"),
        (lambda n: check_r_diagonal(c3, "fock", e12, n), 2, f"R-diagonality {at_least_2}"),
        (lambda n: check_r_diagonal(c3, "axiomatic", e12, n), 2, f"R-diagonality {at_least_2}"),
        (lambda n: check_r_diagonal(c3, "bogus", v1, n), 2, f"R-diagonality {at_least_2}"),
        (lambda n: cumulant_series(a, n), 1, "max order must be positive"),
        (lambda n: mixed_cumulant_scan([a], [a], n), 1, "max order must be positive"),
        (lambda n: check_freeness([a], [a.adjoint()], n), 1, "max order must be positive"),
    ]
    for call, bound, message in cases:
        for n in (bound - 1, -1):
            with pytest.raises(DomainError) as err:
                call(n)
            assert (type(err.value), str(err.value)) == (DomainError, message), (message, n)
