#!/usr/bin/env python3
"""Regenerate the golden JSON files under tests/goldens.

Run from the repository root after an intentional output change, then
review the diff before committing.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphprob import Backend, claims_audit, decompose, parse_graph  # noqa: E402

GOLDENS = ROOT / "tests" / "goldens"
FIXTURES = ROOT / "fixtures"


def load(name):
    return parse_graph((FIXTURES / f"{name}.graph").read_text(encoding="utf-8"))


def write(name, payload):
    """Write the bytes the CLI prints: text as is, anything else as JSON."""
    path = GOLDENS / name
    if not isinstance(payload, str):
        payload = json.dumps(payload, ensure_ascii=False, indent=2)
    path.write_text(payload + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main():
    GOLDENS.mkdir(parents=True, exist_ok=True)
    write("decompose_c3.json", decompose(load("c3"), 3).to_json_dict())
    write("decompose_bouquet3.json", decompose(load("bouquet3"), 2).to_json_dict())
    write("decompose_loops_bridge.json", decompose(load("loops_bridge"), 2).to_json_dict())
    backends = [Backend.axiomatic(), Backend.fock(8)]
    write("audit_one_loop.json", claims_audit(load("one_loop"), backends).to_json_dict())
    write("audit_single_edge.json", claims_audit(load("single_edge"), backends).to_json_dict())
    write("audit_loops_bridge.json", claims_audit(load("loops_bridge"), backends).to_json_dict())
    write("audit_one_loop.txt", claims_audit(load("one_loop"), backends).to_text())


if __name__ == "__main__":
    main()
