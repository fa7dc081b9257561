"""Compare two checkouts on one bench workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S

PARENT and CHANGE are the roots of two checkouts. Pair k runs the benchmark
command of PARENT's `BENCHMARK.json` with `--trace 0` and seed k in each
checkout, one process at a time: the parent first on odd seeds, the
change first on even ones. Each run's last line of output is its JSON
report; a run that fails, or reports `correct: false`, stops the comparison
with its output.

Per end-to-end metric of `BENCHMARK.json`, the table gives the parent's
median and quartiles, the change's median and its relative gap, and the
pairs in which the change was better by the metric's `better` (ties count
for neither side). `claim` reads yes where a gain could be claimed: the
change better in at least nine tenths of the pairs and its median better
than the parent's by more than the parent's interquartile range. `bound`
reads yes where the change's median is worse than the parent's by no more
than the metric's `bound`, a fraction of the parent's median. This script
changes nothing in either checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

CLAIM_SHARE = 0.9  # of all pairs, that the change must win for a claim


def summary(parent, change, better, bound):
    """Statistics of paired runs of one metric: `parent` and `change` hold
    one value per pair, `better` is "lower" or "higher" and `bound` the
    fraction of the parent's median by which the change's may be worse."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0: change better
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    change_median = float(np.median(change))
    gain = sign * (median - change_median)  # > 0 where the change's median is better
    wins = int(np.sum(sign * (change - parent) < 0))
    return {
        "parent_median": float(median), "parent_q1": float(q1), "parent_q3": float(q3),
        "change_median": change_median,
        "relative": (change_median - median) / abs(median) if median else float("nan"),
        "wins": wins, "pairs": len(parent),
        "claim": bool(wins >= CLAIM_SHARE * len(parent) and gain > q3 - q1),
        "within_bound": bool(-gain <= bound * abs(median)),
    }


def run(checkout, command, workload, seed, seconds):
    """The JSON report of one bench run in `checkout`; exits with the run's
    output if it fails or reports an incorrect result."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        report = None
    if report is None or not report.get("correct"):
        sys.exit(f"run failed in {checkout} (seed {seed}, exit {proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    return {name: metric["value"] for name, metric in report["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    values = {side: [] for side in sides}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            values[side].append(run(sides[side], bench["command"], args.workload, seed,
                                    args.seconds))
            print(f"seed {seed} {side:<6} " + " ".join(
                f"{name}={value:.6g}" for name, value in values[side][-1].items()), flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds 1-{args.pairs}, parent first on odd seeds")
    print(f"{'metric':<22}{'parent median [q1, q3]':>34}{'change median':>16}{'gap':>9}"
          f"{'wins':>10}{'claim':>7}{'bound':>7}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        s = summary([v[name] for v in values["parent"]], [v[name] for v in values["change"]],
                    metric["better"], metric["bound"])
        parent = f"{s['parent_median']:.5g} [{s['parent_q1']:.5g}, {s['parent_q3']:.5g}]"
        wins = f"{s['wins']} of {s['pairs']}"
        print(f"{name:<22}{parent:>34}{s['change_median']:>16.5g}{100 * s['relative']:>8.1f}%"
              f"{wins:>10}{'yes' if s['claim'] else 'no':>7}"
              f"{'yes' if s['within_bound'] else 'no':>7}")


if __name__ == "__main__":
    main()
