"""Set-up probe: the work a fresh interpreter does before a workload's
operations start computing.

    python3 bench/setup_probe.py '{"graphs": [...], "builds": [[fixture, element, backend, depth], ...]}'

Run from the checkout root with ``src`` on ``PYTHONPATH``.  It imports
``graphprob``, parses the named fixture files and builds the element
expressions (``parse_graph``, ``parse_element_ast``, ``build_element``),
then prints ``{"import_s": ..., "build_s": ...}``.  The caller times the
whole process from spawn to exit.
"""

import json
import sys
import time


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    from graphprob.cli import build_element, parse_element_ast
    from graphprob.graphs import parse_graph
    from graphprob.operators import Backend

    t1 = time.perf_counter()
    graphs = {}
    for fixture in spec["graphs"]:
        with open(f"fixtures/{fixture}.graph", encoding="utf-8") as fh:
            graphs[fixture] = parse_graph(fh.read())
    for fixture, element, backend, depth in spec["builds"]:
        b = Backend.fock(depth) if backend == "fock" else Backend.axiomatic()
        build_element(graphs[fixture], b, parse_element_ast(element))
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
