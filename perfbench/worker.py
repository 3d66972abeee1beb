"""One benchmark session: a fresh interpreter that imports ``whfactor`` from
the checkout, runs one warm-up operation, prints ``READY`` and then runs
operations of one workload in a closed loop with a single caller.

Usage: ``python3 perfbench/worker.py CONFIG.json`` (started by ``run.py``).
The session's result is written to ``config["result"]`` as JSON.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

import oracles
import refspeed
import spans
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import whfactor
    import whfactor.cli  # noqa: F401  (the package does not import its CLI)
    if not os.path.abspath(whfactor.__file__).startswith(src + os.sep):
        raise ImportError(f"whfactor imported from {whfactor.__file__}, not {src}")
    return whfactor


def self_check(wh) -> list:
    """The screen oracle's cross-residual formula must reproduce the
    library's closed form for the unsolvable example, (b, c) = (-16, -8)."""
    miss = []
    for eps in (0.01, 0.1, 0.3, 1.0):
        got = oracles.cross_residual(-16, -8, eps)
        want = wh.gallery.unsolvable_cross_residual(eps)
        if abs(got - want) > 1e-14:
            miss.append(f"cross_residual(-16, -8, {eps}) = {got!r}, gallery says {want!r}")
    return miss


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _user_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def environment() -> dict:
    """Versions, CPU count and the BLAS thread count this session runs with."""
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0))}


def main(config_path: str) -> int:
    with open(config_path) as fh:
        cfg = json.load(fh)
    wh = _import_library()
    work = WORKLOADS[cfg["workload"]]
    workdir = cfg["workdir"]
    os.makedirs(workdir, exist_ok=True)
    work.run(wh, work.warmup_input, workdir)
    setup_user = _user_s()
    print("READY", flush=True)

    speed = refspeed.speed()
    result = {"ops": [], "failures": [{"op": None, "reason": m} for m in self_check(wh)],
              "rss_mb": [], "environment": environment(), "setup_speed": speed,
              "setup_user_s": setup_user}
    tracer = spans.Tracer()
    if cfg["trace"]:
        spans.install(tracer, wh)
    first_output = None
    measured = 0.0
    k = cfg["first_op"]
    while len(result["ops"]) < cfg["max_ops"] and (
            measured < cfg["budget_s"] or len(result["ops"]) < cfg["min_ops"]
            or (cfg["first_op"] + len(result["ops"])) % work.block):
        inp = work.inputs(cfg["seed"], k)
        tracer.op = k
        u0 = _user_s()
        t0 = perf_counter()
        try:
            output = work.run(wh, inp, workdir)
            error = None
        except Exception:  # an operation that raises is a failed operation
            output, error = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
        latency = perf_counter() - t0
        user = _user_s() - u0
        tracer.op = None
        measured += latency
        result["rss_mb"].append(_peak_rss_mb())
        after = refspeed.speed()
        op = {"k": k, "latency_s": latency, "user_s": user, "speed": 0.5 * (speed + after),
              "acc": {}}
        speed = after
        if cfg["trace"]:
            op["counters"] = spans.counters(wh)
        miss = [error] if error else []
        if not error:
            try:
                more, op["acc"] = work.check(wh, inp, output)
                miss += more
            except Exception:
                miss.append("check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1])
        op["ok"] = not miss
        result["ops"].append(op)
        result["failures"] += [{"op": k, "inputs": inp, "reason": m} for m in miss]
        if k == cfg["first_op"]:
            first_output = output
        k += 1
    if cfg["repeat_first"] and result["ops"]:
        # determinism guard: the first operation again, against the warm memo
        k0 = cfg["first_op"]
        again = work.run(wh, work.inputs(cfg["seed"], k0), workdir)
        if again != first_output:
            result["ops"][0]["ok"] = False
            result["failures"].append({"op": k0, "inputs": work.inputs(cfg["seed"], k0),
                                       "reason": "repeat against the warm memo differs"})
    if cfg["trace"]:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.spans
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
