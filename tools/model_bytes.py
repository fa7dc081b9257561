"""Bytes per Gaussian that the store holds, on both bench scenes.

    python3 tools/model_bytes.py [--seed N]

Run from the root of a checkout; `tgh` is imported from its `src/` and the
scenes from `bench/scene.py` and `bench/workloads.py`, which this script only
reads. For each bench scene it builds the hierarchy from the scene's initial
population and measures the store before and after one `train()` call shaped
as the bench's (TRAIN_ITERATIONS iterations, one control pass, the bench's
densification cap), each time as it stands and with `optimizer.TRAINING_ROWS`
attached, as during a run. The store's bytes are those of every numpy array
it holds, directly or in a dict (row arrays, id maps and any slot table),
at their allocated capacity; per Gaussian is that over `len(store)`. The
"SH rows" column counts the Gaussians holding a slot, the view-dependent ones.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from tgh import optimizer  # noqa: E402

import scene as sc  # noqa: E402
import workloads  # noqa: E402

SCENES = {"short": workloads.SHORT, "long": workloads.LONG}


def store_bytes(store):
    """Bytes of the numpy arrays the store holds, directly or in a dict."""
    total = 0
    for value in vars(store).values():
        for array in value.values() if isinstance(value, dict) else [value]:
            if isinstance(array, np.ndarray):
                total += array.nbytes
    return total


def measure(store):
    """(Gaussians, SH rows, bytes per Gaussian, the same with TRAINING_ROWS)."""
    n = len(store)
    sh_rows = store.slots_held()
    held = store_bytes(store)
    with store.attached(optimizer.TRAINING_ROWS):
        training = store_bytes(store)
    return n, sh_rows, held / n, training / n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print("| scene | when | Gaussians | SH rows | B/Gaussian | B/Gaussian, training rows |")
    print("|---|---|---|---|---|---|")
    for name, spec in SCENES.items():
        pop, scene = sc.make_scene(spec, args.seed)
        h = sc.build_hierarchy(pop, spec.duration)
        rows = [("before train()", measure(h.store))]
        cfg = optimizer.TrainConfig(
            iterations=workloads.TRAIN_ITERATIONS, densify_interval=workloads.TRAIN_ITERATIONS,
            max_gaussians=int(workloads.MAX_GAUSSIANS_FACTOR * spec.gaussians), seed=args.seed)
        optimizer.train(scene, h, cfg)
        rows.append(("after train()", measure(h.store)))
        for when, (n, sh_rows, per, per_training) in rows:
            print(f"| {name} | {when} | {n:,} | {sh_rows:,} | {per:,.0f} | {per_training:,.0f} |",
                  flush=True)


if __name__ == "__main__":
    main()
