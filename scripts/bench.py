#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<label>.json.

Usage:
    python scripts/bench.py LABEL [--root CHECKOUT] [--out DIR]

For every workload in CHECKOUT's BENCHMARK.json this runs
``perfbench/run.py --trace 0`` at seed 0 for the declared run_seconds
and one short ``--trace 1`` run for the module sizes, then times one
serial ``dflab all`` and one ``dflab gk --engine both --no-timing`` from
CHECKOUT's sources (no workload runs the Groebner engine at default
scale), ``ONE_SHOT_REPEATS`` one-shot runs each of ``dflab gk
--no-timing`` and ``dflab check l31 --no-timing`` (the start-up, import
and memory a user pays per invocation), and one conormal-rank-3 point:
``homology_graded`` of the diagonal of GP^3 over F_97[x,y,z] with
sequence (x,y,z) at n_max 5 and t_max 9, in a child process whose
address space is capped at 2 GiB.
CHECKOUT defaults to the checkout holding this script, DIR to CHECKOUT.
The file holds the end-to-end metrics of each workload and its traced
size counters (``SIZE_COUNTERS``: level and normalized ranks per call,
which do not depend on how long the traced run lasts); the wall time,
exit code and per-scenario ``millis`` of ``dflab all`` and the sha256 of
its report with ``millis`` zeroed (the ``--no-timing`` bytes); the wall
time, exit code and report sha256 of ``gk --engine both``; the median
wall time and peak RSS of each one-shot command, with every run's
values, the peak RSS being the ``ru_maxrss`` of that process alone, read
by a small launcher through ``os.wait4``; the build and
``homology_graded`` wall times, peak RSS (read the same way), rank
vector and error (``MemoryError`` past the cap) of the d = 3 point; the git commit
of CHECKOUT and whether its tracked files differ from that commit, the
Python version and the CPU count.  Nothing under ``perfbench/`` is
changed; a run takes a few minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

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


ONE_SHOT = {"gk": ("gk", "--no-timing"), "check_l31": ("check", "l31", "--no-timing")}
ONE_SHOT_REPEATS = 5


# Linux counts the memory a process had before exec in its ru_maxrss, and a
# child spawned from this script starts with this script's memory, so a
# small launcher spawns the measured Python process and reads its usage
# through os.wait4.  The measured process's own output comes first on
# stdout, the launcher's line last.
LAUNCHER = """
import json, os, sys, time
t0 = time.monotonic()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(json.dumps({"wall_s": time.monotonic() - t0, "exit_code": os.waitstatus_to_exitcode(status),
                  "maxrss_mb": usage.ru_maxrss / 1024}))
"""


def launch(root: Path, *args) -> subprocess.CompletedProcess:
    """Run ``python *args`` from root's sources under ``LAUNCHER``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-c", LAUNCHER, *args], cwd=root, env=env, capture_output=True, text=True
    )


def one_shot(root: Path, *args) -> dict:
    """Wall time, exit code and peak RSS of one ``dflab`` process from root's sources.

    The peak RSS is that process's own ``ru_maxrss``, read by its launcher
    through ``os.wait4``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        proc = launch(root, "-m", "dflab.cli", *args, "--out", str(Path(tmp) / "report.json"))
    proc.check_returncode()
    return json.loads(proc.stdout)


def time_one_shots(root: Path) -> dict:
    """Medians over ``ONE_SHOT_REPEATS`` runs of each ``ONE_SHOT`` command, and every run."""
    out = {}
    for name, args in ONE_SHOT.items():
        runs = [one_shot(root, *args) for _ in range(ONE_SHOT_REPEATS)]
        out[name] = {
            "args": list(args),
            "exit_codes": sorted({r["exit_code"] for r in runs}),
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "maxrss_mb": statistics.median(r["maxrss_mb"] for r in runs),
            "runs": runs,
        }
    return out


D3 = {"n_max": 5, "t_max": 9, "cap_bytes": 2 * 1024**3}
D3_CHILD = """
import json, resource, sys, time
n_max, t_max, cap = (int(a) for a in sys.argv[1:])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from dflab.complexes import homology_graded
from dflab.koszul import regular_sequence_resolution
from dflab.ring import ring_descriptor
from dflab.simplicial import diagonal_tensor, gamma, normalize
ring = ring_descriptor(variables=("x", "y", "z"), sequence=("x", "y", "z"))
t0 = time.monotonic()
GP = gamma(regular_sequence_resolution(ring), n_max)
C = normalize(diagonal_tensor([GP, GP, GP]))
t1 = time.monotonic()
ranks = error = None
try:
    ranks = homology_graded(C, t_max).rank_vector(range(n_max + 1))
except MemoryError:
    error = "MemoryError"
t2 = time.monotonic()
print(json.dumps({"build_s": t1 - t0, "homology_s": t2 - t1, "ranks": ranks, "error": error}))
"""


def time_d3(root: Path) -> dict:
    """The d = 3 point: cross3's complex over F_97[x,y,z], ranked by homology_graded.

    It runs under ``LAUNCHER``, so its peak RSS is the child's own
    ``ru_maxrss`` and not bounded below by this script's memory.
    """
    proc = launch(root, "-c", D3_CHILD, *(str(D3[k]) for k in ("n_max", "t_max", "cap_bytes")))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return dict(D3, exit_code=proc.returncode, error=proc.stderr[-500:])
    usage = json.loads(lines[-1])
    if usage["exit_code"] != 0 or len(lines) < 2:
        return dict(D3, exit_code=usage["exit_code"], error=proc.stderr[-500:])
    return dict(D3, exit_code=0, **json.loads(lines[-2]), maxrss_mb=usage["maxrss_mb"])


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
    doc["one_shot"] = time_one_shots(root)
    for name, point in doc["one_shot"].items():
        print(f"one-shot {name}", point["wall_s"], point["maxrss_mb"], file=sys.stderr)
    doc["d3_cross3"] = time_d3(root)
    print("d = 3 cross3", json.dumps(doc["d3_cross3"]), file=sys.stderr)
    out = (args.out or root) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
