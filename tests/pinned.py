"""The pinned CLI outputs: each case's arguments and the file under
``tests/goldens`` that holds its stdout byte for byte.

``tests/test_cli.py`` compares the CLI with every file, and
``scripts/make_goldens.py`` rewrites every file from the CLI, so an
intentional output change is one script run and a reviewable diff.
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDENS = ROOT / "tests" / "goldens"

# (id, arguments with a fixture name in place of the graph file, golden).
# The bouquet3 and lollipop brackets run on graphs with a branching
# vertex, where the axiomatic backend cancels fewer final edges.  Every
# c3 edge is a sole exit, so its axiomatic moments cancel final edges in
# every product.  The loops_bridge freeness scan and the c3 R-diagonal
# scan bracket homogeneous elements (one free-group image each) on fock.
# mixed_exits has sole exits (f, k) next to branching vertices, so its
# axiomatic products cancel some final edges and keep others; its cases
# run on both backends.
# The JSON cases pin each report shape: a semicircular report with an
# offender, a freeness report with a finding, and both series, whose
# backend is an object rather than a string.  The text cases at the end
# pin the decomposition table, the paths table (also as JSON) and a
# semicircular offender row (the axiomatic one-loop law is not
# semicircular: its fourth bracket is -2*L[@v]).
PINNED = (
    ("audit-loops_bridge-json", ("audit", "loops_bridge", "--format", "json"),
     "audit_loops_bridge.json"),
    ("audit-one_loop-text", ("audit", "one_loop"), "audit_one_loop.txt"),
    ("moments-one_loop-text", ("moments", "one_loop", "a:l", "--backend", "axiomatic"),
     "moments_one_loop.txt"),
    ("moments-c3-text",
     ("moments", "c3", "a:e1.e2+a:e3", "--max-order", "7", "--backend", "axiomatic"),
     "moments_c3.txt"),
    ("moments-lollipop-text",
     ("moments", "lollipop", "a:l+a:e", "--max-order", "7", "--backend", "axiomatic"),
     "moments_lollipop.txt"),
    ("cumulants-one_loop-text", ("cumulants", "one_loop", "a:l", "--backend", "axiomatic"),
     "cumulants_one_loop.txt"),
    ("freeness-bouquet3-text",
     ("check-freeness", "bouquet3", "--family-a", "a:l1", "--family-b", "a:l2",
      "--max-order", "4", "--backend", "axiomatic"),
     "freeness_bouquet3.txt"),
    ("rdiagonal-lollipop-text",
     ("check-rdiagonal", "lollipop", "e", "--max-order", "6", "--backend", "axiomatic"),
     "rdiagonal_lollipop.txt"),
    ("freeness-loops_bridge-text",
     ("check-freeness", "loops_bridge", "--family-a", "L[a1]", "--family-b", "L[a1.e]",
      "--max-order", "4"),
     "freeness_loops_bridge.txt"),
    ("rdiagonal-c3-json",
     ("check-rdiagonal", "c3", "e1.e2", "--max-order", "6", "--format", "json"),
     "rdiagonal_c3.json"),
    ("cumulants-bouquet3-text",
     ("cumulants", "bouquet3", "a:l1+a:l2", "--max-order", "6", "--backend", "axiomatic"),
     "cumulants_bouquet3.txt"),
    ("audit-one_loop-json", ("audit", "one_loop", "--format", "json"), "audit_one_loop.json"),
    ("audit-single_edge-json", ("audit", "single_edge", "--format", "json"),
     "audit_single_edge.json"),
    ("decompose-c3-json", ("decompose", "c3", "--loop-bound", "3", "--format", "json"),
     "decompose_c3.json"),
    ("decompose-bouquet3-json",
     ("decompose", "bouquet3", "--loop-bound", "2", "--format", "json"),
     "decompose_bouquet3.json"),
    ("decompose-loops_bridge-json",
     ("decompose", "loops_bridge", "--loop-bound", "2", "--format", "json"),
     "decompose_loops_bridge.json"),
    ("semicircular-single_edge-json",
     ("check-semicircular", "single_edge", "a:e", "--backend", "axiomatic",
      "--max-order", "4", "--format", "json"),
     "semicircular_single_edge.json"),
    ("freeness-loops_bridge-json",
     ("check-freeness", "loops_bridge", "--family-a", "L[a1]", "--family-b", "L[a1.e]",
      "--max-order", "4", "--format", "json"),
     "freeness_loops_bridge.json"),
    ("moments-one_loop-json",
     ("moments", "one_loop", "a:l", "--max-order", "4", "--format", "json"),
     "moments_one_loop.json"),
    ("cumulants-one_loop-json",
     ("cumulants", "one_loop", "a:l", "--backend", "axiomatic", "--format", "json"),
     "cumulants_one_loop.json"),
    ("moments-mixed_exits-fock",
     ("moments", "mixed_exits", "a:e.f+a:g+a:h", "--max-order", "8", "--backend", "fock"),
     "moments_mixed_exits_fock.txt"),
    ("cumulants-mixed_exits-fock",
     ("cumulants", "mixed_exits", "a:f+a:k", "--max-order", "6", "--backend", "fock"),
     "cumulants_mixed_exits_fock.txt"),
    ("freeness-mixed_exits-fock",
     ("check-freeness", "mixed_exits", "--family-a", "L[e.f]", "--family-b", "L[h]",
      "--family-b", "L[g]", "--max-order", "5", "--backend", "fock"),
     "freeness_mixed_exits_fock.txt"),
    ("moments-mixed_exits-axiomatic",
     ("moments", "mixed_exits", "a:e.f+a:g+a:h", "--max-order", "8", "--backend", "axiomatic"),
     "moments_mixed_exits_axiomatic.txt"),
    ("cumulants-mixed_exits-axiomatic",
     ("cumulants", "mixed_exits", "a:f+a:k", "--max-order", "6", "--backend", "axiomatic"),
     "cumulants_mixed_exits_axiomatic.txt"),
    ("freeness-mixed_exits-axiomatic",
     ("check-freeness", "mixed_exits", "--family-a", "L[e.f]", "--family-b", "L[h]",
      "--family-b", "L[g]", "--max-order", "5", "--backend", "axiomatic"),
     "freeness_mixed_exits_axiomatic.txt"),
    ("decompose-bouquet3-text", ("decompose", "bouquet3", "--loop-bound", "2"),
     "decompose_bouquet3.txt"),
    ("paths-lollipop-text", ("paths", "lollipop", "--max-len", "2"), "paths_lollipop.txt"),
    ("paths-lollipop-json", ("paths", "lollipop", "--max-len", "2", "--format", "json"),
     "paths_lollipop.json"),
    ("semicircular-one_loop-text",
     ("check-semicircular", "one_loop", "a:l", "--backend", "axiomatic", "--max-order", "4"),
     "semicircular_one_loop.txt"),
)


def cli_argv(argv) -> list[str]:
    """The CLI arguments of a pinned case, with the fixture's path."""
    command, fixture, *rest = argv
    return [command, str(FIXTURES / f"{fixture}.graph"), *rest]
