"""Benchmark entry point: one workload, one seed, one JSON line at the end.

Run from the root of a checkout (nothing needs building; the package is
imported from ``src``):

    python3 bench/run.py --workload scan-cold --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it measures the set-up time (fresh interpreters running
the cheapest CLI command), then runs the workload in its own fresh
interpreter and prints the end-to-end metrics.  With ``--trace 1`` it
runs the workload with spans on and prints the per-layer metrics; the
span dump goes to ``bench/out/``.  See ``bench/README.md``.
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

import speed
from workloads import WORKLOADS, task_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_COMMAND = ("-m", "brennanlab.cli", "exponents", "--p", "4", "--s", "2")
#: set-up runs, half before and half after the workload, to sample slow phases
SETUP_REPEATS = 10
#: whole-run budget; the worker is killed if it would overrun
BUDGET_S = 170.0
#: budget kept back from the task loop for checks, the replay of a traced
#: run and the set-up timings after the workload
RESERVE_S = 30.0
#: a run whose outputs are mostly wrong is not a measurement of the program
MAX_FAILED_FRAC = 0.5

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "tasks_per_s": "1/s",
    "oracle_pass_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "catalog.dpsi_ms": "ms",
    "catalog.dpsi_calls": "count",
    "catalog.dpsi_points": "count",
    "catalog.psi_ms": "ms",
    "catalog.psi_points": "count",
    "catalog.invert_many_ms": "ms",
    "catalog.invert_many_points": "count",
    "catalog.newton_psi_evals_per_point": "evals/point",
    "catalog.invert_ms": "ms",
    "catalog.invert_calls": "count",
    "quadrature.self_ms": "ms",
    "quadrature.rule_probe_ms": "ms",
    "quadrature.points": "count",
    "quadrature.converged": "count",
    "quadrature.diverging": "count",
    "quadrature.inconclusive": "count",
    "quadrature.wrong_verdicts": "count",
    "quadrature.error_bar_misses": "count",
    "functionals.integral_ms": "ms",
    "functionals.critical_ms": "ms",
    "functionals.critical_probes": "count",
    "functionals.critical_integrals": "count",
    "functionals.oracle_gap_max": "exponent",
    "operators.isometry_ms": "ms",
    "operators.isometry_self_ms": "ms",
    "operators.cells": "count",
    "operators.ratio_report_ms": "ms",
    "operators.equivalence_ms": "ms",
    "operators.duality_ms": "ms",
    "operators.grad_points": "count",
    "operators.isometry_dev_max": "ratio",
    "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict, deadline: float, repeats: int) -> list[float]:
    """Wall times of fresh interpreters completing the cheapest CLI command.

    These are not scaled by the machine's slowdown (see ``speed.py``): on
    the host the benchmark was written on, set-up times hardly followed the
    probe (correlation about 0.3); most of their spread is start-up jitter.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_COMMAND], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up command failed:\n{proc.stderr.strip()}")
        result = json.loads(proc.stdout)["result"]
        # q(4, 2) = 4*2/(4+2-2) = 2 and the conjugate of 4 is 4/3
        if result["q"] != 2.0 or abs(result["p_conjugate"] - 4.0 / 3.0) > 1e-11:
            raise BenchError(f"set-up command printed a wrong result: {result}")
    return times


def run_worker(args, env: dict, deadline: float) -> dict:
    # the traced run replays its tasks without spans, so it traces half as many
    tasks = task_count(args.workload, args.seconds / 2 if args.trace else args.seconds)
    cap = (deadline - time.perf_counter() - RESERVE_S) / (2 if args.trace else 1)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--tasks", str(tasks), "--cap", f"{cap:.1f}",
           "--trace", str(args.trace), "--src", str(ROOT / "src")]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--dump", str(OUT / f"trace-{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"workload process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _show(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<12}{note}")


def report(args, res: dict, setup_s: float | None) -> dict:
    e2e = res["end_to_end"]
    n = e2e["samples"]
    print(f"workload {args.workload} seed {args.seed}: {n} tasks (nominally "
          f"{args.seconds} s), one client, closed loop")
    print(f"  machine slowdown {e2e['mean_slowdown']:.4g} on average (fastest probe "
          f"{e2e['fastest_probe_ms']:.4g} ms, reference {speed.REFERENCE_PROBE_MS} ms); "
          f"as measured: p50 "
          f"{e2e['measured_p50_ms']:.6g} ms, {e2e['measured_tasks_per_s']:.6g} tasks/s")
    checks = ", ".join(f"{k} {v}" for k, v in sorted(res["checks"].items())) or "none"
    print(f"  failed_frac {e2e['failed_frac']:.6g} (raised {res['raised']}); "
          f"failed checks: {checks}")
    for fail in res["failures"]:
        print(f"    FAIL #{fail['id']} {fail['task']}: {', '.join(fail['failed'])}"
              + (f" ({fail['error']})" if fail["error"] else ""))
    if args.trace:
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = dict(e2e, peak_rss_mb=res["peak_rss_mb"], setup_s=setup_s)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for k, m in metrics.items():
        note = f"(p{e2e['tail_percentile']} of {n} tasks)" if k == "latency_tail_ms" else ""
        _show(k, m["value"], m["unit"], note)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.perf_counter() + BUDGET_S
    if not (ROOT / "src" / "brennanlab" / "__init__.py").is_file():
        print(f"no brennanlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup = [] if args.trace else measure_setup(env, deadline, SETUP_REPEATS // 2)
        res = run_worker(args, env, deadline)
        if not args.trace:
            setup += measure_setup(env, deadline, SETUP_REPEATS - len(setup))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, res, statistics.median(setup) if setup else None)
    e2e = res["end_to_end"]
    if res["planted_blind"]:
        print(f"  oracles blind to planted wrong answers: {res['planted_blind']}")
    correct = not res["planted_blind"] and e2e["failed_frac"] <= MAX_FAILED_FRAC
    print(json.dumps({"correct": correct, "attempted": e2e["samples"],
                      "failed": res["raised"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
