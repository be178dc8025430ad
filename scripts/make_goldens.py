#!/usr/bin/env python3
"""Regenerate the pinned CLI outputs under tests/goldens.

Runs every case listed in tests/pinned.py through the CLI and writes its
stdout to the case's golden file.  Run after an intentional output
change, then review the diff before committing.
"""

import contextlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from graphprob.cli import main  # noqa: E402
from tests.pinned import GOLDENS, PINNED, cli_argv  # noqa: E402


def regenerate():
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for _, argv, golden in PINNED:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(cli_argv(argv))
        if code != 0:
            sys.exit(f"{' '.join(argv)} exited with code {code}")
        path = GOLDENS / golden
        path.write_text(out.getvalue(), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    regenerate()
