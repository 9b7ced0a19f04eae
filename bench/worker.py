"""Run one workload in this (fresh) interpreter and print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``
and BLAS/OpenMP threads capped; not meant to be run by hand.  One client
calls the library in a closed loop on the first ``--tasks`` tasks of the
seeded stream, timing the reference probe of ``speed.py`` between calls;
every result is then checked against its oracle outside the timed
region.  With ``--trace 1`` the same loop runs with spans on, the tasks
it got through are replayed without spans to measure the overhead, and
the per-layer metrics plus the span dump are produced instead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import brennanlab as lib
from brennanlab.operators import parse_test_function
from brennanlab.quadrature import GradingSpec, integrate_disc

import oracles
import speed
import workloads
from tracing import Tracer, catalog_metrics, layer_times

INTEGRAL_KINDS = ("brennan", "inverse", "kpq", "area")
QUADRATURE_KINDS = INTEGRAL_KINDS + ("critical", "equivalence", "duality", "ratio")
TASK_KINDS = QUADRATURE_KINDS + ("isometry", "p_distortion")
WARMUP_TASKS = 2
#: failing tasks listed by description in the output; all are counted
SHOWN_FAILURES = 20


def _prepare(task: workloads.Task, tracer: Tracer | None):
    """Library inputs for one task, built outside the timed region."""
    pairs = [lib.make_pair(m.descriptor()) for m in task.params.get("maps", (task.map,))]
    functions = ()
    if task.kind == "isometry":
        functions = (parse_test_function(task.params["function"]),)
    elif task.kind == "ratio":
        functions = lib.standard_family()
    if tracer is not None:
        pairs = [tracer.pair(pair) for pair in pairs]
        functions = tuple(tracer.test_function(f) for f in functions)
    return pairs, functions


def _call(task: workloads.Task, pairs, functions):
    """The public call a task stands for (a p_distortion batch makes one per point)."""
    k, p, spec, pair = task.kind, task.params, GradingSpec(**task.spec), pairs[0]
    if k in ("brennan", "area"):
        return lib.brennan_integral(pair, p["s"], spec)
    if k == "inverse":
        return lib.inverse_brennan_integral(pair, p["r"], spec)
    if k == "kpq":
        return lib.kpq_functional(pair, p["p"], p["q"], spec)
    if k == "critical":
        return lib.critical_exponent(pair, p["side"], p["tol"], spec)
    if k == "equivalence":
        return lib.equivalence_table(pair, p["s"], p["p_grid"], spec)
    if k == "duality":
        return lib.duality_check(pair, p["p"], p["q"], spec)
    if k == "ratio":
        return lib.norm_ratio_report(pair, p["p"], p["q"], functions, spec)
    if k == "isometry":
        return lib.isometry_check(pair, functions[0])
    if k == "p_distortion":
        return [lib.p_distortion(pairs[i], z, p["p"]) for i, z in zip(p["which"], p["z"])]
    raise ValueError(f"unknown task kind {k!r}")


def _judge(task: workloads.Task, result) -> tuple[list[str], dict]:
    """Failed checks of one result, plus the facts the per-layer metrics count."""
    m, k, facts = task.map, task.kind, {}
    if k in INTEGRAL_KINDS:
        facts["verdicts"] = [result.integral.classification.value]
        failed = oracles.judge_integral(m, k, result)
    elif k == "critical":
        facts["probes"] = len(result.probes)
        facts["gap"] = oracles.critical_gap(m, result)
        failed = oracles.judge_critical(m, result, task.params["tol"])
    elif k == "equivalence":
        facts["verdicts"] = [r.classification.value for r in result.rows]
        failed = oracles.judge_equivalence(m, result)
    elif k == "duality":
        facts["verdicts"] = [result.rhs_classification.value, result.lhs_classification.value]
        failed = oracles.judge_duality(m, result)
    elif k == "ratio":
        failed = oracles.judge_ratio(m, result)
    elif k == "isometry":
        facts["dev"] = abs(result - 1.0)
        failed = oracles.judge_isometry(result)
    else:
        p = task.params
        maps = [p["maps"][i] for i in p["which"]]
        failed = oracles.judge_p_distortion(maps, p["points"], p["p"], result)
    return failed, facts


def run_one(task: workloads.Task, tracer: Tracer | None = None, check: bool = True) -> dict:
    pairs, functions = _prepare(task, tracer)
    result = error = None
    if tracer is None:
        t0 = time.perf_counter_ns()
        try:
            result = _call(task, pairs, functions)
        except Exception as exc:  # a raising call is a measured failure, not a crash
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter_ns() - t0
    else:
        with tracer.task(task.id, task.kind, task.kind in QUADRATURE_KINDS) as span:
            try:
                result = _call(task, pairs, functions)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        latency = span[5] - span[4]
    rec = {"task": task, "latency_ns": latency, "error": error, "failed": [], "facts": {}}
    if check:
        if error is not None:
            rec["failed"] = ["raised"]
        else:
            rec["failed"], rec["facts"] = _judge(task, result)
    return rec


def run_loop(tasks, cap_s: float, tracer: Tracer | None = None) -> list[dict]:
    """Run ``tasks`` in order with a probe after each; stop early only past ``cap_s``."""
    records = []
    deadline = time.perf_counter() + cap_s
    before = speed.probe_ms()
    for task in tasks:
        rec = run_one(task, tracer)
        after = speed.probe_ms()
        rec["probes"] = (before, after)
        before = after
        records.append(rec)
        if time.perf_counter() > deadline:
            break
    return records


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (at least 50)."""
    return max(50, math.floor(100.0 * (n - 10) / n)) if n else 50


def end_to_end(records: list[dict]) -> dict:
    """Task times scaled to the reference speed (see ``speed.py``); failures over all tasks."""
    measured = [r["latency_ns"] / 1e6 for r in records]
    probes = [records[0]["probes"][0]] + [r["probes"][1] for r in records]
    slow = speed.slowdowns(probes)
    lat = sorted(x / f for x, f in zip(measured, slow))
    n = len(lat)
    pct = tail_percentile(n)
    failed = sum(1 for r in records if r["failed"])
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[max(0, math.ceil(pct * n / 100.0) - 1)],
        "tail_percentile": pct,
        "samples": n,
        "tasks_per_s": n / (sum(lat) / 1e3),
        "failed_frac": failed / n,
        "oracle_pass_frac": 1.0 - failed / n,
        "measured_p50_ms": statistics.median(measured),
        "measured_tasks_per_s": n / (sum(measured) / 1e3),
        "mean_slowdown": statistics.fmean(slow),
        "fastest_probe_ms": min(probes),
    }


def per_layer(tracer: Tracer, records: list[dict], untraced_ns: int, probe_ms: float) -> dict:
    out = catalog_metrics(tracer)
    times = layer_times(tracer)
    sums = Counter()
    kind_of = {}
    for sid, (name, task, dur, cat, grad) in times.items():
        if name in TASK_KINDS:
            kind_of[task] = name
            sums[name] += dur
            if name in QUADRATURE_KINDS:
                sums["quadrature_self"] += dur - cat - grad
            if name == "isometry":
                sums["isometry_self"] += dur - cat
    cells = sum(1 for s in tracer.spans
                if s[3] == "invert_many" and kind_of.get(s[2]) == "isometry")
    grad_points = sum(rec[1] for (_, name), rec in tracer.leaves.items() if name == "grad_abs")
    counts = tracer.task_counts
    verdicts = Counter(v for r in records for v in r["facts"].get("verdicts", ()))
    checks = Counter(c for r in records for c in r["failed"])
    traced_ns = sum(r["latency_ns"] for r in records)
    out.update({
        "quadrature.self_ms": sums["quadrature_self"] / 1e6,
        "quadrature.rule_probe_ms": probe_ms,
        "quadrature.points": int(sum(c["points"] for c in counts.values())),
        "quadrature.converged": verdicts["converged"],
        "quadrature.diverging": verdicts["diverging"],
        "quadrature.inconclusive": verdicts["inconclusive"],
        "quadrature.wrong_verdicts": checks["verdict"],
        "quadrature.error_bar_misses": checks["closed_form"],
        "functionals.integral_ms": sum(sums[k] for k in INTEGRAL_KINDS) / 1e6,
        "functionals.critical_ms": sums["critical"] / 1e6,
        "functionals.critical_probes": sum(r["facts"].get("probes", 0) for r in records),
        "functionals.critical_integrals": sum(counts[t]["map"] for t, k in kind_of.items()
                                              if k == "critical"),
        "functionals.oracle_gap_max": max((r["facts"]["gap"] for r in records
                                           if "gap" in r["facts"]), default=0.0),
        "operators.isometry_ms": sums["isometry"] / 1e6,
        "operators.isometry_self_ms": sums["isometry_self"] / 1e6,
        "operators.cells": cells,
        "operators.ratio_report_ms": sums["ratio"] / 1e6,
        "operators.equivalence_ms": sums["equivalence"] / 1e6,
        "operators.duality_ms": sums["duality"] / 1e6,
        "operators.grad_points": int(grad_points),
        "operators.isometry_dev_max": max((r["facts"]["dev"] for r in records
                                           if "dev" in r["facts"]), default=0.0),
        "trace.overhead_frac": traced_ns / untraced_ns - 1.0,
    })
    return out


def rule_probe_ms(tracer: Tracer, records: list[dict]) -> float:
    """Constant-integrand integrate_disc on each task's angles and spec, per integral it ran."""
    cache: dict = {}
    total = 0.0
    for r in records:
        task = r["task"]
        c = tracer.task_counts.get(task.id)
        if not c:
            continue
        spec = GradingSpec(**task.spec)
        angles = lib.make_pair(task.map.descriptor()).singular_angles
        for key_angles, n in ((angles, c["map"]), ((), c["free"])):
            if not n:
                continue
            key = (key_angles, spec)
            if key not in cache:
                t0 = time.perf_counter_ns()
                integrate_disc(lambda w: np.ones(w.shape), key_angles, spec)
                cache[key] = (time.perf_counter_ns() - t0) / 1e6
            total += n * cache[key]
    return total


def task_log(records: list[dict]) -> list[dict]:
    return [{"id": r["task"].id, "task": r["task"].describe(),
             "latency_ms": r["latency_ns"] / 1e6, "failed": r["failed"], "error": r["error"]}
            for r in records]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tasks", type=int, required=True, help="tasks to run")
    ap.add_argument("--cap", type=float, required=True,
                    help="seconds after which the loop stops early")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--dump", help="span dump path for --trace 1")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    if src not in Path(lib.__file__).resolve().parents:
        print(f"brennanlab imported from {lib.__file__}, not from {src}", file=sys.stderr)
        return 2
    planted_blind = [c for c, failed in oracles.planted_cases() if c not in failed]
    for task in workloads.stream(args.workload, args.seed, salt="warmup"):
        run_one(task, check=False)
        if task.id + 1 >= WARMUP_TASKS:
            break

    tasks = workloads.task_list(args.workload, args.seed, args.tasks)
    tracer = Tracer() if args.trace else None
    records = run_loop(tasks, args.cap, tracer)
    out = {
        "end_to_end": end_to_end(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": dict(Counter(c for r in records for c in r["failed"])),
        "raised": sum(1 for r in records if r["error"] is not None),
        "planted_blind": planted_blind,
        "failures": [t for t in task_log(records) if t["failed"]][:SHOWN_FAILURES],
    }
    if tracer is not None:
        untraced = sum(run_one(r["task"], check=False)["latency_ns"] for r in records)
        out["per_layer"] = per_layer(tracer, records, untraced, rule_probe_ms(tracer, records))
        if args.dump:
            tracer.dump(args.dump, {"format": "brennanlab-bench-trace", "version": 1,
                                    "workload": args.workload, "seed": args.seed,
                                    "metrics": out["per_layer"], "tasks": task_log(records)})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
