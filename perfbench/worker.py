"""One workload in a fresh process: set up, then a closed loop of pipeline calls.

run.py starts it as ``python3 worker.py SPEC``, SPEC being a JSON object
with keys t_spawn, workload, prime, sequence, seconds, mode and spans.
``t_spawn`` is the parent's monotonic clock just before the spawn, so
``setup_s`` runs from process creation to ready for the first call.
Modes: ``setup`` stops there; ``run`` calls the pipeline back to back,
one call at a time, for ``seconds``; ``trace`` does the same but traces
every other call, and writes the spans as JSON lines to the path
``spans``.  Prints one JSON object.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import threading
import time
import traceback
from contextlib import nullcontext

from tracer import ROOT_SPAN, Tracer
from dflab.scenarios import ScenarioConfig
from workloads import check_call


def closed_loop(workload: str, cfg, seconds: float, tracer=None, install=None) -> list[dict]:
    """Start calls until ``seconds`` have passed, at least one.

    Given a tracer, every other call is traced, starting with the second,
    so that drift in machine speed hits traced and untraced calls alike.
    """
    calls = []
    deadline = time.perf_counter() + seconds
    while len(calls) < (1 if tracer is None else 2) or time.perf_counter() < deadline:
        traced = tracer is not None and len(calls) % 2 == 1
        if traced:
            tracer.run += 1
            install(tracer)
        # each call starts from the same heap, as a one-call `dflab` process does,
        # not with the previous call's cyclic garbage left for its collector
        gc.collect()
        t0 = time.perf_counter()
        try:
            with tracer.span(ROOT_SPAN) if traced else nullcontext():
                reasons, digest = check_call(workload, cfg)
        except Exception:  # a raising call is a failed call; keep measuring
            reasons, digest = [traceback.format_exc(limit=4)], None
        finally:
            if traced:
                tracer.restore()
        calls.append({"s": time.perf_counter() - t0, "traced": traced, "failed": reasons, "digest": digest})
    return calls


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        os_threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python_threads": threading.active_count(),
        "os_threads": os_threads,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def write_spans(path: str, spans):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(list(s)) + "\n")


def main(spec: dict) -> dict:
    cfg = ScenarioConfig(prime=spec["prime"], sequence=tuple(spec["sequence"]))
    cfg.ring()
    out = {"setup_s": time.monotonic() - spec["t_spawn"]}
    if spec["mode"] == "setup":
        return out
    if spec["mode"] == "run":
        calls = closed_loop(spec["workload"], cfg, spec["seconds"])
    else:
        import layers

        tracer = Tracer("dflab")
        calls = closed_loop(spec["workload"], cfg, spec["seconds"], tracer, layers.install)
        traced = [c["s"] for c in calls if c["traced"]]
        untraced = [c["s"] for c in calls if not c["traced"]]
        out["layers"] = layers.layer_metrics(tracer, traced, untraced)
        write_spans(spec["spans"], tracer.spans)
    out.update(
        calls=calls,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        machine=machine(),
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
