#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<label>.json.

Usage:
    python scripts/bench.py LABEL [--root CHECKOUT] [--out DIR]

For every workload in CHECKOUT's BENCHMARK.json this runs
``perfbench/run.py --trace 0`` at seed 0 for the declared run_seconds
and one short ``--trace 1`` run for the module sizes, then times one
serial ``dflab all`` and one ``dflab gk --engine both --no-timing`` from
CHECKOUT's sources (no workload runs the Groebner engine at default
scale).
CHECKOUT defaults to the checkout holding this script, DIR to CHECKOUT.
The file holds the end-to-end metrics of each workload and its traced
size counters (``SIZE_COUNTERS``: level and normalized ranks per call,
which do not depend on how long the traced run lasts); the wall time,
exit code and per-scenario ``millis`` of ``dflab all`` and the sha256 of
its report with ``millis`` zeroed (the ``--no-timing`` bytes); the wall
time, exit code and report sha256 of ``gk --engine both``; the git
commit of CHECKOUT and whether its tracked files differ from that
commit, the Python and numpy versions and the CPU count.  Nothing
under ``perfbench/`` is changed; a run takes a few minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

SEED = 0
SIZE_COUNTERS = ("simplicial.level_rank", "simplicial.normalized_rank", "simplicial.nondeg_ratio")
SIZE_RUN_SECONDS = 1  # one traced run makes at least one call


def perfbench_run(root: Path, workload: str, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perfbench_metrics(root: Path, workload: str, seconds: float) -> dict:
    result = perfbench_run(root, workload, seconds, 0)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    traced = perfbench_run(root, workload, SIZE_RUN_SECONDS, 1)["metrics"]
    sizes = {name: traced[name]["value"] for name in SIZE_COUNTERS}
    return dict(metrics, **sizes, attempted=result["attempted"], failed=result["failed"])


def run_dflab(root: Path, *args) -> tuple[float, int, str | None]:
    """(wall time, exit code, report text) of one ``dflab`` run from root's sources."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "dflab.cli", *args, "--out", str(out)],
            cwd=root, env=env, capture_output=True, text=True,
        )
        wall = time.monotonic() - t0
        text = out.read_text() if out.exists() else None
    return wall, proc.returncode, text


def time_all(root: Path) -> dict:
    """Time one serial ``dflab all`` and keep each scenario's ``millis``.

    The sha256 is of the report with every ``millis`` zeroed, serialized
    as the command line tool writes it, so it equals the sha256 of the
    ``--no-timing`` report.
    """
    wall, code, text = run_dflab(root, "all")
    report = json.loads(text) if text is not None else None
    result = {"wall_s": wall, "exit_code": code, "json_sha256": None, "millis": {}}
    if report is not None:
        for s in report["scenarios"]:
            result["millis"][s["name"]] = s["millis"]
            s["millis"] = 0
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        result["json_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return result


def time_gk_both(root: Path) -> dict:
    """Time one ``dflab gk --engine both --no-timing``: both engines at default scale."""
    wall, code, text = run_dflab(root, "gk", "--engine", "both", "--no-timing")
    sha = hashlib.sha256(text.encode()).hexdigest() if text is not None else None
    return {"wall_s": wall, "exit_code": code, "json_sha256": sha}


def git(root: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    doc = {
        "label": args.label,
        "git_commit": git(root, "rev-parse", "HEAD") or None,
        "uncommitted_changes": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for w in bench["workloads"]:
        doc["workloads"][w["name"]] = perfbench_metrics(root, w["name"], bench["run_seconds"])
        print(w["name"], json.dumps(doc["workloads"][w["name"]]), file=sys.stderr)
    doc["dflab_all"] = time_all(root)
    print("dflab all", json.dumps(doc["dflab_all"]), file=sys.stderr)
    doc["gk_engine_both"] = time_gk_both(root)
    print("dflab gk --engine both", json.dumps(doc["gk_engine_both"]), file=sys.stderr)
    out = (args.out or root) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
