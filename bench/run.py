"""Benchmark of the ``graphprob`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is ``python -m graphprob
...`` in a fresh interpreter, timed from spawn to exit, because that is how
the CLI is used: each command starts cold.  Whole rounds of the workload's
operations repeat until ``--seconds`` have passed; every output is checked
against values computed apart from the program (``oracles.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` one untraced and
one traced round and the per-layer metrics (see README.md).  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds provenance.  The run record, the
operations' output and the traces go to ``bench/out/<workload>-trace<0|1>/``.

The inputs are fixed fixtures: ``--seed`` is recorded but changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_PROBES = 11
OP_TIMEOUT_S = 120

# Per-layer metrics read straight from the traces (see trace_op.py).
COUNTED = (
    "scalars.mul_calls", "scalars.add_calls",
    "graphs.pathword_new", "graphs.concat_calls", "graphs.strip_prefix_calls",
    "operators.compose_calls", "operators.reduce_word_calls", "operators.cancel_calls",
    "algebra.mul_calls", "algebra.term_pairs", "algebra.terms_materialized",
    "algebra.expectation_calls", "algebra.diag_ops",
    "cumulants.valuation_calls", "cumulants.partitions_visited", "cumulants.nc_enumerated",
)
SELF_TIMED = ("scalars", "graphs", "operators", "algebra", "cumulants", "analyzers")
OUTERMOST_TIMED = ("algebra.mul", "cumulants.valuation", "analyzers.check", "analyzers.render")


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], base: Path) -> Child:
    """Run ``python3 <args>`` from the checkout root and wait for it, with
    stdout and stderr in ``<base>.stdout`` and ``<base>.stderr``; the wall
    time runs from spawn to exit and the peak RSS is the child's own."""
    out_path, err_path = base.with_suffix(".stdout"), base.with_suffix(".stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    lock, done = threading.Lock(), [False]

    def kill():
        with lock:
            if not done[0]:
                os.kill(pid, signal.SIGKILL)

    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(), file_actions=actions)
    timer = threading.Timer(OP_TIMEOUT_S, kill)
    timer.start()
    # Wait without reaping first, so the timer can never signal a reused pid.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - t0
    with lock:
        done[0] = True
    timer.cancel()
    _, status, usage = os.wait4(pid, 0)
    return Child(
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_maxrss / 1024,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


@dataclass
class OpRun:
    child: Child
    problems: list[str]

    @property
    def failed(self) -> bool:
        return self.child.code != 0 or bool(self.problems)


def check(op: workloads.Operation, child: Child) -> list[str]:
    if child.code != 0:
        return []
    try:
        return op.check(child.stdout.decode("utf-8"), ROOT)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_op(op: workloads.Operation, base: Path) -> OpRun:
    child = spawn(["-m", "graphprob", *op.argv], base)
    return OpRun(child, check(op, child))


def setup_spec(ops) -> str:
    graphs = sorted({op.fixture for op in ops})
    builds = [[b.fixture, b.element, b.backend, b.depth] for op in ops for b in op.builds]
    return json.dumps({"graphs": graphs, "builds": builds})


def measure_setup(ops, run_dir: Path) -> list[dict]:
    """SETUP_PROBES fresh-interpreter set-ups, after one unmeasured warm-up
    that also leaves the bytecode cache written."""
    spec = setup_spec(ops)
    samples = []
    for i in range(SETUP_PROBES + 1):
        child = spawn([str(ROOT / "bench" / "setup_probe.py"), spec], run_dir / f"setup{i}")
        if child.code != 0:
            raise SystemExit(f"set-up probe failed:\n{child.stderr.decode(errors='replace')}")
        if i:
            samples.append({"wall_s": child.wall_s, **json.loads(child.stdout)})
    return samples


def provenance(args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    wc = {}
    for path in sorted((ROOT / "src" / "graphprob").glob("*.py")):
        wc[path.name] = len(path.read_bytes().splitlines())
    wc["total"] = sum(wc.values())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "wc_l_src_graphprob": wc,
    }


def report(record: dict, result: dict, run_dir: Path) -> None:
    record["result"] = result
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))


def timed_runs(ops, seconds: int, run_dir: Path) -> list[list[OpRun]]:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append([run_op(op, run_dir / f"op{i}") for i, op in enumerate(ops)])
    return rounds


def end_to_end(ops, seconds: int, run_dir: Path) -> tuple[dict, dict]:
    setup = measure_setup(ops, run_dir)
    rounds = timed_runs(ops, seconds, run_dir)
    runs = [r for rnd in rounds for r in rnd]
    per_op = list(zip(*rounds))
    metrics = {
        "wall_s": (sum(statistics.median(r.child.wall_s for r in col) for col in per_op), "s"),
        "setup_s": (statistics.median(s["wall_s"] for s in setup), "s"),
        "peak_rss_mb": (max(statistics.median(r.child.rss_mb for r in col) for col in per_op), "MB"),
    }
    record = {
        "setup": setup,
        "ops": [
            {
                "argv": list(op.argv),
                "wall_s": [r.child.wall_s for r in col],
                "rss_mb": [r.child.rss_mb for r in col],
                "exit_codes": [r.child.code for r in col],
                "problems": [p for r in col for p in r.problems],
            }
            for op, col in zip(ops, per_op)
        ],
    }
    return _result(runs, metrics), record


def _result(runs: list[OpRun], metrics: dict[str, tuple[float, str]]) -> dict:
    for r in runs:
        if r.failed:
            sys.stderr.write(f"operation failed (exit {r.child.code}): {r.problems}\n")
            sys.stderr.write(r.child.stderr.decode("utf-8", errors="replace"))
    return {
        "correct": not any(r.problems for r in runs),
        "attempted": len(runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(ops, run_dir: Path) -> tuple[dict, dict]:
    setup = measure_setup(ops, run_dir)
    plain = [run_op(op, run_dir / f"op{i}") for i, op in enumerate(ops)]
    traced, traces = [], []
    for i, (op, ref) in enumerate(zip(ops, plain)):
        trace_file = run_dir / f"trace-op{i}.json"
        child = spawn(
            [str(ROOT / "bench" / "trace_op.py"), str(trace_file), "--", *op.argv],
            run_dir / f"traced-op{i}",
        )
        problems = check(op, child)
        if child.code == 0 and child.stdout != ref.child.stdout:
            problems.append("traced stdout differs from the untraced stdout")
        traced.append(OpRun(child, problems))
        if child.code == 0:
            traces.append(json.loads(trace_file.read_text()))

    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    totals: dict[str, float] = {}
    for t in traces:
        for into, part in ((counts, t["counts"]), (self_s, t["self_s"]), (totals, t["totals"])):
            for k, v in part.items():
                into[k] = into.get(k, 0) + v

    def n(key: str) -> int:
        return counts.get(key, 0)

    metrics = {name: (n(name), "count") for name in COUNTED}
    metrics.update({f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in SELF_TIMED})
    metrics.update({f"{key}_s": (totals.get(key, 0.0), "s") for key in OUTERMOST_TIMED})
    metrics.update({
        "operators.compose_hit_ratio": (_ratio(n("operators.compose_hits"), n("operators.compose_calls")), "ratio"),
        "algebra.max_terms": (max((t["max_terms"] for t in traces), default=0), "count"),
        "algebra.useful_term_ratio": (
            _ratio(n("algebra.vertex_terms_read"), n("algebra.terms_materialized")), "ratio"),
        "cumulants.memo_hit_ratio": (_ratio(n("cumulants.memo_hits"), n("cumulants.valuation_calls")), "ratio"),
        "cli.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "cli.build_s": (statistics.median(s["build_s"] for s in setup), "s"),
        "trace.overhead_s": (sum(r.child.wall_s for r in traced) - sum(r.child.wall_s for r in plain), "s"),
    })
    record = {
        "setup": setup,
        "untraced_wall_s": [r.child.wall_s for r in plain],
        "traced_wall_s": [r.child.wall_s for r in traced],
        "layer_self_s": self_s,
    }
    return _result(plain + traced, metrics), record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "graphprob" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.stderr.write(f"no graphprob sources under {ROOT}: run from a full checkout\n")
        return 2
    table = workloads.workloads(ROOT)
    if args.workload not in table:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(table)}\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("--seconds must be at least 1\n")
        return 2
    os.chdir(ROOT)
    run_dir = OUT / f"{args.workload}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ops = table[args.workload]
    record = {"provenance": provenance(args)}
    if args.trace:
        result, details = per_layer(ops, run_dir)
    else:
        result, details = end_to_end(ops, args.seconds, run_dir)
    record.update(details)
    report(record, result, run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
