"""Run one workload over several seeds in one or two checkouts and summarise.

    python3 bench/compare.py --workload scan-cold --seeds 1-10
    python3 bench/compare.py --workload reports-warm --seeds 11-20 OLD_DIR NEW_DIR

Each checkout is a directory holding ``src/`` and this ``bench/``; give
both sides the same ``bench/`` so that they are measured alike.  With
two checkouts the runs alternate per seed, and which side goes first
alternates too.  For every end-to-end metric it prints each side's
median, quartiles and spread (interquartile range over median), and for
two sides the share of seeds on which the second side did better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"run failed in {checkout} (seed {seed}):\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in out["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("checkouts", nargs="*", type=Path,
                    help="one or two checkout roots (default: this one)")
    args = ap.parse_args(argv)
    sides = args.checkouts or [ROOT]
    if len(sides) > 2:
        ap.error("give at most two checkouts")

    runs: list[list[dict]] = [[] for _ in sides]
    for i, seed in enumerate(seed_range(args.seeds)):
        order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
        for j in order:
            runs[j].append(run_once(sides[j], args.workload, seed, args.seconds))
            print(f"seed {seed} side {j}: {runs[j][-1]}", file=sys.stderr)

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name, direction in better.items():
        cols = []
        for side in runs:
            med, q1, q3, spread = summary([r[name] for r in side])
            cols.append(f"median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] spread {spread:.3%}")
        line = f"{name:<18} " + " | ".join(cols)
        if len(runs) == 2:
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (b[name] - a[name]) > 0 for a, b in zip(*runs))
            line += f" | second side better on {wins}/{len(runs[0])} seeds"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
