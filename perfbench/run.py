"""dflab benchmark: one workload, one seed, one closed loop in a fresh process.

    python3 perfbench/run.py --workload cube --seed 0 --seconds 16 --trace 0

Run from anywhere inside a checkout of the repository; nothing is built,
the worker imports dflab from ``src``.  The seed picks the inputs (see
seeds.py).  The run first starts a few processes that only set up, for
``setup_s``, then one worker process that calls the pipeline back to back
with one client (a closed loop) and checks every result.  With
``--trace 1`` the worker also traces the calls from outside and reports
the per-layer metrics instead of the end-to-end ones.

Each worker runs with BLAS and OpenMP pinned to one thread and with
PYTHONHASHSEED derived from the seed, so a seed repeats exactly.
Details (machine record, every call time, failures, digests, all
metrics) go to ``.bench_out/``; the last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from seeds import inputs_for_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4  # setup-only processes; with the worker, setup_s is a median of 5
DEADLINE_S = 170  # the whole run must end within 180 s
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(spec: dict, seed: int, timeout: float) -> dict:
    """Run worker.py in a fresh process and return its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32), **THREADS)
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker ran over {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    A run rarely has the 11 samples that needs, so below 40 samples the
    rule asks for a quarter of the samples beyond it instead, and below 4
    it gives the slowest call.
    """
    s = sorted(times)
    return s[len(s) - 1 - min(10, len(s) // 4)]


def end_to_end(setups: list[float], res: dict) -> dict:
    calls = res["calls"]
    times = [c["s"] for c in calls]
    return {
        "setup_s": statistics.median(setups),
        "pipeline_s.p50": statistics.median(times),
        "pipeline_s.tail": tail(times),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": sum(not c["failed"] for c in calls) / len(calls),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in bench["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "dflab" / "__init__.py").is_file():
        raise BenchError(f"no dflab sources under {ROOT / 'src'}")
    t_end = time.monotonic() + DEADLINE_S
    inputs = inputs_for_seed(seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    spec = {
        "workload": workload,
        "prime": inputs.prime,
        "sequence": inputs.sequence,
        "seconds": seconds,
        "mode": "setup",
        "spans": str(stem) + ".spans.jsonl",
    }
    setups = [spawn(spec, seed, t_end - time.monotonic())["setup_s"] for _ in range(SETUP_PROBES)]
    res = spawn(dict(spec, mode="trace" if trace else "run"), seed, t_end - time.monotonic())
    setups.append(res["setup_s"])

    values = dict(res["layers"]) if trace else end_to_end(setups, res)
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    calls = res["calls"]
    failed = sum(bool(c["failed"]) for c in calls)
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload,
        "seed": seed,
        "inputs": {"prime": inputs.prime, "sequence": list(inputs.sequence)},
        "seconds": seconds,
        "trace": trace,
        "machine": res["machine"],
        "setup_samples_s": setups,
        "calls": calls,
        "digests": sorted({str(c["digest"]) for c in calls}),
        "all_metrics": values,
        "result": result,
    }
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    return detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"inputs": detail["inputs"], "digests": detail["digests"], "machine": detail["machine"]}))
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
