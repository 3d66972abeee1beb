"""The whfactor benchmark.

Usage::

    python3 perfbench/run.py --workload {sweep-o1,screen,order2} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; ``whfactor`` is imported from its ``src``
directory.  Operations run in a closed loop with one caller in worker
processes (``worker.py``), each a fresh interpreter.  A worker is one session:
it runs at most the workload's ``session_ops`` operations and the library's
module-global memo is never cleared inside it.  Every operation's output is
checked against closed forms; misses and exceptions are listed and counted.

``--trace 0`` measures for ``S`` seconds of operation time and prints the
end-to-end metrics.  ``--trace 1`` measures ``S/2`` seconds untraced, replays
the same operations with spans around the library's public functions and
prints the per-layer metrics, the accuracy figures and the tracing overhead.
Full results, failures and spans go to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refspeed  # noqa: E402
import spans  # noqa: E402
from workloads import ACC_FIGURES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    """A fixed environment: one BLAS thread, no quadrature override, no
    bytecode cache (so every set-up compiles the same sources)."""
    env = dict(os.environ)
    for key in ("WHFACTOR_QUAD_PANELS", "PYTHONPATH", "PYTHONSTARTUP"):
        env.pop(key, None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


class Run:
    """One benchmark run: the worker sessions of one workload and seed."""

    def __init__(self, workload: str, seed: int, outdir: str):
        self.work = WORKLOADS[workload]
        self.seed = seed
        self.outdir = outdir
        self.start = perf_counter()
        self.sessions = 0

    def session(self, first_op: int, max_ops: int, min_ops: int, budget_s: float,
                trace: bool = False, repeat_first: bool = False) -> dict:
        """Start one worker, time its set-up and return its result; with
        ``max_ops == 0`` the worker only sets up."""
        self.sessions += 1
        name = f"session-{self.sessions}"
        cfg = {"workload": self.work.name, "seed": self.seed, "first_op": first_op,
               "max_ops": max_ops, "min_ops": min_ops, "budget_s": budget_s,
               "trace": trace, "repeat_first": repeat_first,
               "workdir": os.path.join(self.outdir, name),
               "result": os.path.join(self.outdir, name + ".json")}
        path = os.path.join(self.outdir, name + ".config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        left = RUN_LIMIT_S - (perf_counter() - self.start)
        speed = refspeed.speed()
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), path],
                                stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        try:
            setup = None
            for line in proc.stdout:
                if line.strip() == "READY":
                    setup = perf_counter() - t0
                    break
            proc.stdout.close()
            code = proc.wait(timeout=max(left - (perf_counter() - t0), 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or setup is None:
            raise RuntimeError(f"{name} exited with code {code} (set-up done: {setup is not None})")
        with open(cfg["result"]) as fh:
            res = json.load(fh)
        res["setup_s"] = setup
        res["setup_speed"] = 0.5 * (speed + res["setup_speed"])
        return res

    def measure(self, seconds: float, min_first: int) -> list:
        """Sessions until ``seconds`` of operation time and a whole number of
        blocks; the first session runs at least ``min_first`` operations."""
        results, k, spent = [], 0, 0.0
        while spent < seconds or k % self.work.block or not results:
            first = not results
            res = self.session(k, self.work.session_ops, min_first if first else 1,
                               seconds - spent, repeat_first=first and self.work.repeat_first)
            results.append(res)
            k += len(res["ops"])
            spent += sum(op["latency_s"] for op in res["ops"])
        return results


def _ops(results: list) -> list:
    return [op for res in results for op in res["ops"]]


def tail(latencies: list) -> dict | None:
    """The highest percentile with at least ten operations beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    return {"value": sorted(latencies)[n - 11], "percentile": 100.0 * (n - 10) / n, "count": n}


def _at_nominal(wall: float, user: float, speed: float) -> float:
    """A time with its user-mode CPU part rescaled to the nominal speed
    (see ``refspeed``); kernel time and waiting are kept as measured."""
    return wall - user * (1.0 - speed)


def _op_time(op: dict, nominal: bool = True) -> float:
    if nominal:
        return _at_nominal(op["latency_s"], op["user_s"], op["speed"])
    return op["latency_s"]


def _figures(ops: list, setups: list, nominal: bool) -> dict:
    lat = [_op_time(op, nominal) for op in ops]
    good = [t for t, op in zip(lat, ops) if op["ok"]]
    setup = [_at_nominal(res["setup_s"], res["setup_user_s"], res["setup_speed"])
             if nominal else res["setup_s"] for res in setups]
    return {"ops_per_s": len(good) / sum(lat),
            "op_p50_s": statistics.median(good) if good else 0.0,
            "setup_s": statistics.median(setup), "op_tail_s": tail(good), "samples": len(good)}


def end_to_end(run: Run, seconds: float) -> tuple[dict, list, dict]:
    results = run.measure(seconds, run.work.session_ops)
    setups = list(results)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.session(0, 0, 0, 0.0))
    ops = _ops(results)
    nominal = _figures(ops, setups, nominal=True)
    metrics = {
        "ops_per_s": (nominal["ops_per_s"], "1/s"),
        "op_p50_s": (nominal["op_p50_s"], "s"),
        "peak_rss_mb": (results[0]["rss_mb"][run.work.session_ops - 1], "MB"),
        "setup_s": (nominal["setup_s"], "s"),
    }
    extra = {"samples": nominal["samples"], "op_tail_s": nominal["op_tail_s"],
             "raw": _figures(ops, setups, nominal=False), "sessions": len(results)}
    return metrics, results, extra


def per_layer(run: Run, seconds: float) -> tuple[dict, list, dict]:
    plain = run.measure(seconds / 2.0, 1)
    traced = [run.session(res["ops"][0]["k"], len(res["ops"]), len(res["ops"]), 0.0, trace=True)
              for res in plain]
    metrics = {}
    for res in traced:
        for key, value in res["layers"].items():
            metrics[key] = metrics.get(key, 0) + value
    ops = _ops(traced)
    for key in spans.COUNTERS:
        seen = [op["counters"][key] for op in ops if op["counters"][key] is not None]
        metrics[key] = max(seen) if seen else 0
    for key in ACC_FIGURES:
        seen = [op["acc"][key] for op in ops if key in op["acc"]]
        metrics[key] = max(seen) if seen else 0.0
    metrics["trace.overhead_s"] = (sum(_op_time(op) for op in ops)
                                   - sum(_op_time(op) for op in _ops(plain)))
    with open(os.path.join(run.outdir, "spans.json"), "w") as fh:
        json.dump([res["spans"] for res in traced], fh)
    return {k: (v, _unit(k)) for k, v in metrics.items()}, plain + traced, {}


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("acc."):
        return "1"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "whfactor", "__init__.py")):
        print(f"error: no whfactor sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    run = Run(args.workload, args.seed, outdir)
    measure = per_layer if args.trace else end_to_end
    metrics, results, extra = measure(run, args.seconds)
    ops = _ops(results)
    failures = [f for res in results for f in res["failures"]]
    failed = sum(1 for op in ops if not op["ok"])
    attempted = len(ops)
    correct = not failures  # a self-check miss fails the run without failing an op
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": results[0]["environment"],
               "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
               "failures": failures,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    summary.update(extra)
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} env={json.dumps(summary['environment'])}")
    for k, (v, u) in metrics.items():
        count = f" ({extra['samples']} ops)" if k == "op_p50_s" else ""
        print(f"# {k} = {v:.6g} {u}{count}")
    print(f"# fail_frac = {summary['fail_frac']:.6g} ({failed} of {attempted} ops)")
    if extra.get("op_tail_s"):
        t = extra["op_tail_s"]
        print(f"# op_tail_s = {t['value']:.6g} s (p{t['percentile']:.1f} of {t['count']} ops)")
    if "raw" in extra:
        raw = extra["raw"]
        print(f"# wall-clock: ops_per_s = {raw['ops_per_s']:.6g} 1/s, op_p50_s = "
              f"{raw['op_p50_s']:.6g} s, setup_s = {raw['setup_s']:.6g} s")
    for f in failures:
        print(f"# FAILED op {f['op']}: {f['reason']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
