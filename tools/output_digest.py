"""Digest of seeded training outputs, to check that a change keeps them bit-identical.

    python3 tools/output_digest.py

Run from the root of a checkout; `tgh` is imported from its `src/` and the
scenes from `bench/scene.py`, which this script only reads. For each bench
scene at 96x96 (the short one with 2,000 Gaussians, the long one with
20,000) and seeds 0 and 1, it runs `train()` for 40 iterations with a control
pass every 10 and density-control settings under which clones and splits
both run, then prints one SHA-256 over the stored ids and their rows,
every parameter column of the live rows, their flat segments and the
influence ranges of their parameters, every metric column and one render.
A second SHA-256, `playback=`, covers `render()` of the first
PLAYBACK_FRAMES frames of the scene's playback path on the untrained
hierarchy: the read path that the bench's playback times. Equal digests
before and after a change mean equal outputs, byte for byte.
"""

import dataclasses
import hashlib
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from tgh import hierarchy, optimizer, renderer, sh, store  # noqa: E402

import scene as sc  # noqa: E402
import workloads  # noqa: E402

SIZE = 96
SCENES = {
    "short": dataclasses.replace(workloads.SHORT, size=SIZE),
    "long": dataclasses.replace(workloads.LONG, gaussians=20_000, size=SIZE),
}
SEEDS = (0, 1)
ITERATIONS = 40
PLAYBACK_FRAMES = 20
DENSIFY_INTERVAL = 10
# density-control settings under which clones and splits both run: the size
# cut, 0.0225 x the cameras' extent 3.85 = ~0.087, lies inside the scenes'
# spatial scales (`scene.SPATIAL_SCALE`)
SETTINGS = {"GRAD_DENSIFY_THRESHOLD": 2e-5, "CLONE_SIZE_FRACTION": 0.0225}


def sha256(parts):
    """Hex SHA-256 over the dtypes, shapes and bytes of the arrays `parts`."""
    sha = hashlib.sha256()
    for part in parts:
        part = np.ascontiguousarray(part)
        sha.update(f"{part.dtype.str}{part.shape}".encode())
        sha.update(part.tobytes())
    return sha.hexdigest()


def digest(spec, seed):
    """(population after training, training digest, playback digest) of one
    seeded run."""
    pop, scene = sc.make_scene(spec, seed)
    h = sc.build_hierarchy(pop, spec.duration)
    frames = []
    for t, cam in itertools.islice(sc.playback_path(spec, seed), PLAYBACK_FRAMES):
        fb = renderer.render(h, t, cam)
        frames += [fb.rgb, fb.transmittance]
    cfg = optimizer.TrainConfig(iterations=ITERATIONS, densify_interval=DENSIFY_INTERVAL,
                                max_gaussians=int(workloads.MAX_GAUSSIANS_FACTOR * spec.gaussians),
                                seed=seed)
    saved = {name: getattr(optimizer, name) for name in SETTINGS}
    vars(optimizer).update(SETTINGS)
    try:
        result = optimizer.train(scene, h, cfg)
    finally:
        vars(optimizer).update(saved)
    ids = np.array(h.store.ids, dtype=np.int64)
    rows = h.store.rows_of(ids)
    parts = [ids, rows.astype(np.int64)]
    held, (params, block) = h.store.read(rows, "params")
    dense_sh = np.zeros((len(rows), sh.RESIDUAL_COEFFS))  # a diffuse row's SH reads zero
    dense_sh[held] = block
    start, end = hierarchy._influence_ranges(**store.views(params))
    parts += [*store.views(params).values(), dense_sh, h.store.segment[rows],
              np.stack([start, end], axis=1)]
    parts.append(np.array([[row[c] for c in optimizer.METRIC_COLUMNS] for row in result.metrics],
                          dtype=np.float64))
    fb = renderer.render(h, spec.duration / 2.0, scene.cameras[0])
    parts += [fb.rgb, fb.transmittance]
    return len(ids), sha256(parts), sha256(frames)


def main():
    for name, spec in SCENES.items():
        for seed in SEEDS:
            population, trained, playback = digest(spec, seed)
            print(f"{name} seed={seed} gaussians={spec.gaussians}->{population} {trained}"
                  f" playback={playback}", flush=True)


if __name__ == "__main__":
    main()
