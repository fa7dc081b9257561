"""Held-out quality of seeded training: PSNR on training views, on held-out
timestamps and from a novel camera, with the population and its sharing.

    python3 tools/quality.py [--seeds 1 2 3]

Run from the root of a checkout; `tgh` is imported from its `src/` and the
scenes from `bench/scene.py` and `bench/workloads.py`, which this script only
reads. Per seed it builds the short bench scene at SIZE x SIZE with FRAMES
target frames and trains its initial population on the even frames only,
through `EvenFrames` (half the frames at half the frame rate): ITERATIONS
iterations, a control pass every DENSIFY_INTERVAL, at most MAX_GAUSSIANS.
It then scores the trained hierarchy, as the mean PSNR of SCORED frames
against the reference population's render, on three sets of `views`:

- train: even frames from the training cameras;
- held-out t: odd frames, never trained on, from the training cameras;
- novel cam: the train set's timestamps from a fifth ring camera at
  NOVEL_ANGLE, halfway between two training cameras.

It also prints the population, the view-dependent share (Gaussians that hold
an SH slot), the Gaussians per level (g = global) and the influence widths:
their 10/50/90 % quantiles in seconds and the share wider than a level-2
segment (ROADMAP item 3). The last rows give each PSNR column's mean over
the seeds and its spread, max - min. Training and scoring are seeded, so two
runs print the same output. `evaluate` and `views` are importable.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from tgh import optimizer, renderer  # noqa: E402
from tgh.losses import psnr  # noqa: E402

import scene as sc  # noqa: E402
import workloads  # noqa: E402

SIZE = 128
FRAMES = 64
SPEC = dataclasses.replace(workloads.SHORT, size=SIZE, frames=FRAMES)
ITERATIONS = 1000
DENSIFY_INTERVAL = 100
MAX_GAUSSIANS = 2500
SEEDS = (1, 2, 3)
SCORED = 8                      # frames per scored set
NOVEL_ANGLE = np.pi / 4         # radians; the training cameras sit at multiples of pi / 2
SHARED_WIDTH = 2.5              # seconds: a level-2 segment of the 10 s root
PSNR_COLUMNS = ("train", "held-out t", "novel cam")


class EvenFrames:
    """The even frames of a scene, as a scene of their own."""

    def __init__(self, scene):
        self.scene = scene
        self.cameras = scene.cameras
        self.frames = scene.frames // 2
        self.frame_rate = scene.frame_rate / 2.0

    def target(self, cam_index, frame):
        return self.scene.target(cam_index, 2 * frame)


def views(scene, reference, novel):
    """Each scored set by name: a list of (timestamp, camera, target image).
    Frame k of a set is 8 k (train) or 8 k + 5 (held-out t) of `scene`, from
    camera k mod 4; the novel set renders `reference` from camera `novel`
    at the train set's timestamps."""
    step = scene.frames // SCORED
    train, held = [], []
    for k in range(SCORED):
        cam = k % len(scene.cameras)
        for out, frame in ((train, step * k), (held, step * k + step // 2 + 1)):
            out.append((frame / scene.frame_rate, scene.cameras[cam], scene.target(cam, frame)))
    novel_set = [(t, novel, renderer.render(reference, t, novel).rgb) for t, _, _ in train]
    return {"train": train, "held-out t": held, "novel cam": novel_set}


def evaluate(h, scored):
    """Mean PSNR in dB of the hierarchy's renders over each scored set."""
    return {name: float(np.mean([psnr(renderer.render(h, t, cam).rgb, target)
                                 for t, cam, target in views_of]))
            for name, views_of in scored.items()}


def sharing(h):
    """Population, view-dependent share, per-level counts and influence widths."""
    store = h.store
    rows = store.live_rows()
    widths = store.influence[rows, 1] - store.influence[rows, 0]
    per_level, _ = h.occupancy()
    return {"population": len(store),
            "vdep": len(store.held_slots()) / len(store),
            "levels": per_level,
            "width_q": np.quantile(widths, [0.1, 0.5, 0.9]),
            "shared": float(np.mean(widths > SHARED_WIDTH))}


def run(seed):
    """(PSNRs, sharing) of one seed's trained hierarchy."""
    pop, scene = sc.make_scene(SPEC, seed)
    # the reference population exactly as `make_scene` draws it
    reference = sc.build_hierarchy(
        sc.population(np.random.default_rng([seed, 1]), SPEC.gaussians, SPEC.duration),
        SPEC.duration)
    scored = views(scene, reference, sc.ring_camera(NOVEL_ANGLE, SPEC.size))
    h = sc.build_hierarchy(pop, SPEC.duration)
    cfg = optimizer.TrainConfig(iterations=ITERATIONS, densify_interval=DENSIFY_INTERVAL,
                                max_gaussians=MAX_GAUSSIANS, seed=seed)
    optimizer.train(EvenFrames(scene), h, cfg)
    return evaluate(h, scored), sharing(h)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    print(f"short scene {SIZE}x{SIZE}, {FRAMES} frames, even ones trained; "
          f"{ITERATIONS} iterations, control every {DENSIFY_INTERVAL}, "
          f"at most {MAX_GAUSSIANS} Gaussians")
    print("| seed | " + " | ".join(PSNR_COLUMNS) + " | population | vdep | per level "
          "| width q10/q50/q90 s | > 2.5 s |")
    print("|---" * (len(PSNR_COLUMNS) + 6) + "|")
    table = []
    for seed in args.seeds:
        scores, share = run(seed)
        table.append([scores[name] for name in PSNR_COLUMNS])
        levels = " ".join(f"{'g' if level < 0 else level}:{count}"
                          for level, count in share["levels"].items() if count)
        print(f"| {seed} | " + " | ".join(f"{value:.2f}" for value in table[-1])
              + f" | {share['population']} | {share['vdep']:.3f} | {levels} | "
              + "/".join(f"{q:.3f}" for q in share["width_q"])
              + f" | {share['shared']:.3f} |", flush=True)
    table = np.array(table)
    for label, row in (("mean", table.mean(axis=0)), ("spread", np.ptp(table, axis=0))):
        print(f"| {label} | " + " | ".join(f"{value:.2f}" for value in row) + " |")


if __name__ == "__main__":
    main()
