"""Time named stages of a training run and of playback on a bench scene.

    python3 tools/stage_times.py [short|long] [--seed N] [--runs N]

Run from the root of a checkout; `tgh` is imported from its `src/` and the
scene from `bench/scene.py` and `bench/workloads.py`, which this script only
reads. Each run builds a fresh hierarchy from the scene's initial population
and
- trains it with `train()` for TRAIN_ITERATIONS iterations, a control pass
  every DENSIFY_INTERVAL and the bench's densification cap;
- renders the first PLAYBACK_FRAMES frames of the scene's playback path with
  `render()` on a second, untrained hierarchy.
The first of the two builds is timed too, by the stages in SETUP_STAGES:
the bench's `setup_s` times the same `build_hierarchy` call.

The stages are wrapped from outside: each module or class attribute in
STAGES is replaced for the run by a span of a `bench/spans.py` Tracer,
which records each call with its parent, the innermost stage open when it
is made, and put back on exit, so the program runs unedited. A stage's
time is the summed duration of its spans, so it includes the stages it
calls (`_forward` holds `_build_fragments`, for one). A stage that the
checkout does not define is printed as "-", so that the same script times
an older checkout too; one it defines but the run never calls reads 0.
BLAS is pinned to one thread, as in `output_digest.py`. The tables give,
per stage, the minimum over the runs of its ms per training iteration, per
playback frame and per build. The `train() rest` row is the training total
less the top-level spans, the calls that `train()` makes with no stage
open: its own lines, such as slot taking and `interval_means`. The `build
rest` row is the build total less the spans whose parent is
`insert_batch`: the constructor and `insert_batch`'s own lines. So a stage
that runs under two callers, as `GaussianStore.read` does under
`materialize` (through `gather`) and in `train()` itself, is subtracted
once, and each total stays exact; its row holds both.
"""

import argparse
import itertools
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from tgh import (appearance, gaussians, hierarchy, losses, optimizer,  # noqa: E402
                 renderer, store)

import scene as sc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SCENES = {"short": workloads.SHORT, "long": workloads.LONG}
TRAIN_ITERATIONS = 50
DENSIFY_INTERVAL = 25
PLAYBACK_FRAMES = 50

# (owner, attribute), in pipeline order, each under the name its caller
# looks up: `renderer.image_loss` is `losses.loss`, and `losses._support_box`
# and `losses._ssim_box` are its support box and SSIM kernel. `read` runs
# in `materialize` (through `gather`) and again in `train()` for the
# parameters and Adam moments of the step. The `gaussians` stages are the
# geometry's share of `_forward` and `_backward`; `build_covariance` also
# runs in `adaptive_control` for the splits.
STAGES = (
    (hierarchy.TemporalHierarchy, "query"),
    (hierarchy.TemporalHierarchy, "materialize"),
    (store.GaussianStore, "read"),
    (renderer, "_forward"),
    (gaussians, "build_covariance"),
    (gaussians, "condition_at_time"),
    (renderer, "_build_fragments"),
    (renderer, "_layer_major"),
    (renderer, "_composite_ordered"),
    (renderer, "image_loss"),
    (losses, "_support_box"),
    (losses, "_ssim_box"),
    (renderer, "_backward"),
    (renderer, "_splat_sum"),
    (renderer, "_fragment_terms"),
    (renderer, "_composite_backward"),
    (gaussians, "geometry_backward"),
    (appearance, "gate_gradients"),
    (optimizer, "adam_step"),
    (store.GaussianStore, "write"),
    (hierarchy.TemporalHierarchy, "update_levels"),
    (optimizer, "adaptive_control"),
)

# the set-up stages, wrapped for the build alone: `insert_batch` and the
# stages below it also run in a control pass's insert, and
# `_influence_ranges`, `_find_placements` and `_file` in `update_levels`.
# `hierarchy.checked_columns` is the store's function under the name
# `insert_batch` looks up; it holds `_lit`.
# `_influence_ranges` holds `batch_temporal_variance`, which `hierarchy`
# reaches through the `gaussians` module, and `_file` holds the sort
# `_by_segment_then_id`.
SETUP_STAGES = (
    (hierarchy.TemporalHierarchy, "insert_batch"),
    (hierarchy, "checked_columns"),
    (store, "_lit"),
    (hierarchy, "_influence_ranges"),
    (gaussians, "batch_temporal_variance"),
    (store.GaussianStore, "insert_arrays"),
    (hierarchy.TemporalHierarchy, "_find_placements"),
    (hierarchy.TemporalHierarchy, "_file"),
    (hierarchy, "_by_segment_then_id"),
)


REST = "train() rest"
BUILD_REST = "build rest"
BUILD_CALLER = "TemporalHierarchy.insert_batch"   # the build's rest is its own lines


def stage_name(owner, attr):
    return f"{getattr(owner, '__name__', '').rpartition('.')[2]}.{attr}"


def traced_call(stages, fn, *args):
    """(result, seconds, tracer) of the call fn(*args), with every stage of
    `stages` that this checkout defines recorded as a span of `tracer`."""
    tracer = spans.Tracer()
    with ExitStack() as stack:
        for owner, attr in stages:
            if attr in vars(owner):
                traced = tracer.wrap(stage_name(owner, attr), vars(owner)[attr])
                stack.enter_context(mock.patch.object(owner, attr, traced))
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start, tracer


def stage_ms(stages, seconds, tracer, per):
    """{stage: ms per unit} of a traced call of `seconds`: each defined stage
    of `stages`, 0 if it was never called, and "total"."""
    ms = {stage_name(owner, attr): 0.0 for owner, attr in stages if attr in vars(owner)}
    for name, _, start, end in tracer.spans:
        ms[name] += 1e3 * (end - start) / per
    ms["total"] = 1e3 * seconds / per
    return ms


def children_seconds(tracer, parent_name=None):
    """Summed duration of the spans opened directly in a span named
    `parent_name`, or with no span open if it is None."""
    return sum(end - start for _, parent, start, end in tracer.spans
               if (tracer.spans[parent][0] if parent >= 0 else None) == parent_name)


def playback(spec, h, seed):
    """render() of the first PLAYBACK_FRAMES frames of the playback path."""
    for t, cam in itertools.islice(sc.playback_path(spec, seed), PLAYBACK_FRAMES):
        renderer.render(h, t, cam)


def one_run(spec, pop, scene, seed):
    """({stage: ms per iteration}, {stage: ms per frame}, {stage: ms}) of
    one run's training, playback and first build; the key "total" holds the
    whole train() call, the whole playback and the whole build, REST the
    part of train() outside the stages it calls and BUILD_REST the part of
    the build outside the stages `insert_batch` calls."""
    cfg = optimizer.TrainConfig(iterations=TRAIN_ITERATIONS, densify_interval=DENSIFY_INTERVAL,
                                max_gaussians=int(workloads.MAX_GAUSSIANS_FACTOR * spec.gaussians),
                                seed=seed)
    h, build_s, tracer = traced_call(SETUP_STAGES, sc.build_hierarchy, pop, spec.duration)
    build = stage_ms(SETUP_STAGES, build_s, tracer, 1)
    build[BUILD_REST] = 1e3 * (build_s - children_seconds(tracer, BUILD_CALLER))
    _, train_s, tracer = traced_call(STAGES, optimizer.train, scene, h, cfg)
    train = stage_ms(STAGES, train_s, tracer, TRAIN_ITERATIONS)
    train[REST] = 1e3 * (train_s - children_seconds(tracer)) / TRAIN_ITERATIONS
    _, play_s, tracer = traced_call(STAGES, playback, spec,
                                    sc.build_hierarchy(pop, spec.duration), seed)
    return train, stage_ms(STAGES, play_s, tracer, PLAYBACK_FRAMES), build


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("scene", nargs="?", choices=sorted(SCENES), default="short")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    spec = SCENES[args.scene]
    pop, scene = sc.make_scene(spec, args.seed)
    runs = [one_run(spec, pop, scene, args.seed) for _ in range(args.runs)]
    names = [stage_name(owner, attr) for owner, attr in STAGES] + [REST, "total"]
    print(f"{args.scene} scene, seed {args.seed}, min of {args.runs} runs: ms per "
          f"training iteration ({TRAIN_ITERATIONS}) and per playback frame ({PLAYBACK_FRAMES})")
    print(f"{'stage':<34}{'train':>10}{'playback':>10}")
    for name in dict.fromkeys(names):
        print(f"{name:<34}{cells(runs, (0, 1), name)}")
    print(f"\nms per build of the initial hierarchy, min of {args.runs} runs")
    print(f"{'stage':<34}{'build':>10}")
    for name in [stage_name(owner, attr) for owner, attr in SETUP_STAGES] + [BUILD_REST, "total"]:
        print(f"{name:<34}{cells(runs, (2,), name)}")


def cells(runs, sides, name):
    """Each side's minimum over the runs of stage `name`, or "-" where a run
    does not define it."""
    out = []
    for side in sides:
        values = [run[side][name] for run in runs if name in run[side]]
        out.append(f"{min(values):10.3f}" if len(values) == len(runs) else f"{'-':>10}")
    return "".join(out)


if __name__ == "__main__":
    main()
