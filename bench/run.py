"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the last line of output is the end-to-end metrics as JSON,
with `--trace 1` the per-layer metrics of a traced run. `--workload all` runs
every workload untraced and then traced, one process at a time.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one compute thread: all load comes from this process, never more threads than cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_short", "train_long", "playback_long")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"\n== {name} trace={trace}", flush=True)
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name', 'unknown')} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tgh" / "renderer.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    from tgh import renderer
    if SRC not in Path(renderer.__file__).resolve().parents:
        print(f"error: tgh imported from {renderer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    report = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                           trace=bool(args.trace))
    ledger = report.ledger
    print(f"machine  {machine()}")
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in report.metrics.items():
        wall = f"  (wall {report.wall[name]:.6g} {unit})" if name in report.wall else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{wall}")
    print(f"  {'error_rate':<40} {ledger.failed / ledger.attempted:>14.6g} fraction "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
