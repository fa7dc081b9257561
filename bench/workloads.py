"""What each workload runs, checks and reports.

Every workload runs the same plan on its own scene, so that each can report
every end-to-end metric; the workload picks the scene and how the measured
seconds are split between training and playback.

1. Set-up: build the hierarchy from the initial population several times.
2. Rounds, while the next one fits in the seconds and until two have run:
   - Training: one `train()` call of a fixed number of iterations on a fresh
     hierarchy, then a PSNR evaluation over fixed training views. The fixed
     iteration count makes the fitted result, and so `final_psnr_db`,
     independent of machine speed.
   - Playback: `render()` of the next consecutive 30 fps frames along an
     orbiting camera, on one untrained hierarchy kept from set-up. This is
     the read path only (query -> materialize -> forward), so a change to the
     training path leaves the render figures unmoved.
   Interleaving spreads both kinds of sample over the whole run, so that a
   slow spell of the machine does not fall on one metric only.

Timings are reported at a reference machine speed: each wall time is scaled
by a speed probe taken alongside it (see `probe`); the report keeps the wall
times too. Times per iteration and per frame are means over the run, not
medians: the host flips between a fast and a slow state every few seconds,
and a median jumps between the two where a mean moves with the share of time
spent in each.

With tracing on, the first training call runs untraced and the second traced:
the pair gives the tracing overhead, and their PSNRs must agree exactly.
"""

import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from tgh import optimizer, renderer
from tgh.losses import psnr

import scene as sc
import spans

SETUP_REPEATS = 5
MIN_FRAMES = 100                   # at least 10 frames lie beyond p90
TRAIN_ITERATIONS = 25              # one densify interval per train() call
MAX_GAUSSIANS_FACTOR = 1.25        # densification cap, relative to the start size

SHORT = sc.SceneSpec(duration=10.0, gaussians=2_000, size=256)
LONG = sc.SceneSpec(duration=300.0, gaussians=60_000, size=256)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: sc.SceneSpec
    play_ratio: float              # playback seconds per second of training


WORKLOADS = {w.name: w for w in (
    # population ~ working set: all cost is per-working-set work
    Workload("train_short", SHORT, play_ratio=0.5),
    # same density over 30x the duration: population-wide work shows only here
    Workload("train_long", LONG, play_ratio=0.5),
    # the long scene with the run spent on the read path
    Workload("playback_long", LONG, play_ratio=1.0),
)}


class Ledger:
    """Operations attempted and failed. Iterations, frames and checks all count."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, n, error=None):
        self.attempted += n
        if error is not None:
            self.failed += n
            self.failures.append(error)

    def check(self, ok, what):
        self.ops(1, None if ok else what)


PROBE_LOOPS = 50_000
PROBE_REFERENCE_S = 0.003          # one probe on a 2-vCPU VM in its typical state


def probe():
    """Seconds for a fixed pure-Python loop: the machine's speed right now.

    On a shared host the same work takes up to 1.6x longer from one minute to
    the next, and this loop slows with it. Each wall time is scaled by
    PROBE_REFERENCE_S over the mean of the probes taken alongside it, which
    cut the run-to-run spread of playback time from 24 % to 4 % on that VM.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - start


def at_reference_speed(wall, probes):
    return wall * PROBE_REFERENCE_S / statistics.mean(probes)


class _ProbedScene:
    """The scene as `train()` reads it, probing the speed once per iteration.

    `train()` fetches one target per iteration, so the probes split the call
    into stretches of program time, one per iteration, each next to a probe.
    """

    def __init__(self, scene, tracer=None):
        self.scene = scene
        self.cameras = scene.cameras
        self.frames = scene.frames
        self.frame_rate = scene.frame_rate
        self.tracer = tracer
        self.marks = []            # (start, seconds) of each probe

    def target(self, cam_index, frame):
        with self.tracer.span("bench.probe") if self.tracer else nullcontext():
            start = time.perf_counter()
            self.marks.append((start, probe()))
        return self.scene.target(cam_index, frame)

    def program_seconds(self, start, end):
        """(wall, at reference speed) of [start, end] with the probes taken out.

        Each stretch between probes is scaled by the probe just before it;
        the stretch before the first probe by the first.
        """
        bounds = [start] + [t + p for t, p in self.marks]
        ends = [t for t, _ in self.marks] + [end]
        probes = [self.marks[0][1]] + [p for _, p in self.marks]
        wall = sum(e - b for b, e in zip(bounds, ends))
        ref = sum((e - b) * PROBE_REFERENCE_S / p for b, e, p in zip(bounds, ends, probes))
        return wall, ref


@dataclass
class TrainCall:
    ms_per_iter: float             # wall time, probes taken out
    ms_per_iter_ref: float         # the same at the reference speed
    psnr_db: float
    population: int


@dataclass
class Report:
    metrics: dict                  # name -> (value, unit)
    ledger: Ledger
    wall: dict = field(default_factory=dict)   # timings before scaling to the reference speed


def eval_views(spec):
    """Every camera at four frames spread over the clip."""
    frames = np.linspace(0, spec.frames, 4, endpoint=False).astype(int)
    return [(c, int(f)) for c in range(sc.NUM_CAMERAS) for f in frames]


class _Run:
    """State of one workload run: its inputs, samples and ledger."""

    def __init__(self, workload, seed):
        self.spec = workload.scene
        self.seed = seed
        self.pop, self.scene = sc.make_scene(self.spec, seed)
        self.path = sc.playback_path(self.spec, seed)
        self.ledger = Ledger()
        self.setup_s, self.setup_probes = [], []
        self.frame_s, self.frame_probes = [], []

    def check_frame(self, fb, where):
        self.ledger.check(bool(np.all(np.isfinite(fb.rgb))), f"non-finite image {where}")
        trans = fb.transmittance
        self.ledger.check(bool(np.all(np.isfinite(trans)) and trans.min() >= 0.0
                               and trans.max() <= 1.0),
                          f"transmittance outside [0, 1] {where}")

    def audit(self, h, where):
        try:
            h.audit()
        except Exception:
            self.ledger.ops(1, f"audit {where}: {traceback.format_exc()}")
        else:
            self.ledger.ops(1)

    def build(self):
        start = time.perf_counter()
        h = sc.build_hierarchy(self.pop, self.spec.duration)
        self.setup_s.append(time.perf_counter() - start)
        self.setup_probes.append(probe())
        return h

    def playback(self, h, budget_s, min_frames=0):
        """Next frames of the path for `budget_s`, until `min_frames` are timed."""
        start = time.perf_counter()
        while len(self.frame_s) < min_frames or time.perf_counter() - start < budget_s:
            t, cam = next(self.path)
            t0 = time.perf_counter()
            try:
                fb = renderer.render(h, t, cam)
            except Exception:
                self.ledger.ops(1, f"render t={t}: {traceback.format_exc()}")
                continue
            self.frame_s.append(time.perf_counter() - t0)
            self.ledger.ops(1)
            self.check_frame(fb, f"at playback t={t}")
            self.frame_probes.append(probe())

    def evaluate(self, h):
        """Mean PSNR of the hierarchy over the fixed evaluation views."""
        values = []
        for c, f in eval_views(self.spec):
            fb = renderer.render(h, f / self.scene.frame_rate, self.scene.cameras[c])
            self.check_frame(fb, f"at view ({c}, {f})")
            values.append(psnr(fb.rgb, self.scene.target(c, f)))
        return float(np.mean(values))

    def train_call(self, tracer=None):
        h = self.build()
        cfg = optimizer.TrainConfig(iterations=TRAIN_ITERATIONS,
                                    densify_interval=TRAIN_ITERATIONS,
                                    max_gaussians=int(MAX_GAUSSIANS_FACTOR * self.spec.gaussians),
                                    seed=self.seed)
        scene = _ProbedScene(self.scene, tracer)
        start = time.perf_counter()
        try:
            with tracer.span("train") if tracer else nullcontext():
                result = optimizer.train(scene, h, cfg)
        except Exception:
            self.ledger.ops(TRAIN_ITERATIONS, f"train: {traceback.format_exc()}")
            return None
        wall, ref = scene.program_seconds(start, time.perf_counter())
        self.ledger.ops(TRAIN_ITERATIONS)
        for row in result.metrics:
            self.ledger.check(bool(np.isfinite(row["loss"])),
                              f"non-finite loss at iteration {row['iteration']}")
        self.audit(h, "after training")
        return TrainCall(ms_per_iter=1000.0 * wall / TRAIN_ITERATIONS,
                         ms_per_iter_ref=1000.0 * ref / TRAIN_ITERATIONS,
                         psnr_db=self.evaluate(h), population=len(h.store))


def run(workload: Workload, seed, seconds, trace=False):
    """Run one workload; end-to-end metrics, or per-layer metrics when traced."""
    state = _Run(workload, seed)
    ledger = state.ledger
    blank = np.zeros_like(state.scene.target(0, 0))
    psnr_floor = float(np.mean([psnr(blank, state.scene.target(c, f))
                                for c, f in eval_views(state.spec)]))
    tracer = spans.Tracer() if trace else None

    def traced(on):
        return spans.installed(tracer) if on else nullcontext()

    with traced(trace):
        for _ in range(SETUP_REPEATS):
            viewer = state.build()
    calls = []
    start = time.perf_counter()
    round_s = 0.0
    while len(calls) < 2 or (not trace and time.perf_counter() - start + round_s < seconds):
        traced_call = trace and len(calls) == 1
        round_start = time.perf_counter()
        with traced(traced_call):
            calls.append(state.train_call(tracer if traced_call else None))
        with traced(trace):
            state.playback(viewer, workload.play_ratio * (time.perf_counter() - round_start))
        round_s = time.perf_counter() - round_start
    with traced(trace):
        state.playback(viewer, 0.0, MIN_FRAMES)
        state.audit(viewer, "after playback")

    done = [c for c in calls if c is not None]
    if not done or not state.frame_s:
        raise RuntimeError("no training call or playback frame completed:\n"
                           + "\n".join(ledger.failures))
    for c in done:
        # repeat calls on one seed are the same arithmetic; with tracing on,
        # this compares the traced call with the untraced one
        ledger.check(c.psnr_db == done[0].psnr_db,
                     f"final PSNR differs between calls: {c.psnr_db!r} vs {done[0].psnr_db!r}")
        ledger.check(c.psnr_db > psnr_floor,
                     f"final PSNR {c.psnr_db:.3f} dB not above the empty-image "
                     f"floor {psnr_floor:.3f} dB")

    if trace:
        return Report(layer_metrics(tracer, untraced=calls[0], traced_call=calls[1]), ledger)
    frame_ms = 1000.0 * np.asarray(state.frame_s)
    wall = {
        "setup_s": statistics.median(state.setup_s),
        "train_ms_per_iter": statistics.mean(c.ms_per_iter for c in done),
        "render_ms_per_frame": float(np.mean(frame_ms)),
        "render_ms_p90": float(np.percentile(frame_ms, 90)),
    }
    metrics = {
        "setup_s": (statistics.median(at_reference_speed(s, [p]) for s, p in
                                      zip(state.setup_s, state.setup_probes)), "s"),
        "train_ms_per_iter": (statistics.mean(c.ms_per_iter_ref for c in done), "ms"),
        "final_psnr_db": (done[0].psnr_db, "dB"),
        "render_ms_per_frame": (at_reference_speed(wall["render_ms_per_frame"],
                                                   state.frame_probes), "ms"),
        "render_ms_p90": (at_reference_speed(wall["render_ms_p90"], state.frame_probes), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return Report(metrics, ledger, wall=wall)


def layer_metrics(tracer, untraced, traced_call):
    """Per-call self times, counts and call counts of every span."""
    self_times = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return self_times.get(name, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    def ms(*names, per=None):
        total = sum(self_times.get(n, (0, 0.0))[1] for n in names)
        return 1000.0 * ratio(total, calls(per or names[0]))

    both = untraced is not None and traced_call is not None
    metrics = {
        "hierarchy.insert_batch_s": (ms("hierarchy.insert_batch") / 1000.0, "s"),
        "hierarchy.query_ms": (ms("hierarchy.query"), "ms"),
        "hierarchy.update_levels_ms": (ms("hierarchy.update_levels"), "ms"),
        "hierarchy.working_set": (ratio(counts["hierarchy.working_set"], calls("hierarchy.query")), "count"),
        "hierarchy.replaced_frac": (ratio(counts["hierarchy.replaced"], counts["hierarchy.replaced_ids"]),
                                    "fraction"),
        "store.gather_ms": (ms("store.gather"), "ms"),
        "renderer.render_grad_ms": (ms("renderer.render_with_gradients"), "ms"),
        "renderer.render_ms": (ms("renderer.render", "renderer.render_batch",
                                  per="renderer.render_batch"), "ms"),
        "renderer.kept_splats": (ratio(counts["renderer.kept_splats"],
                                       calls("renderer.render_with_gradients")), "count"),
        "renderer.covered_px": (ratio(counts["renderer.covered_px"], counts["renderer.frames"]), "count"),
        "losses.loss_ms": (ms("losses.loss"), "ms"),
        "optimizer.adam_ms": (ms("optimizer.adam_step"), "ms"),
        "optimizer.control_ms": (ms("optimizer.adaptive_control"), "ms"),
        "optimizer.densify_new": (counts["optimizer.densify_new"], "count"),
        "optimizer.densify_removed": (counts["optimizer.densify_removed"], "count"),
        "optimizer.num_gaussians": (traced_call.population if traced_call else 0, "count"),
        "appearance.gate_ms": (ms("appearance.gate_gradients"), "ms"),
        "appearance.vdep_fraction_ms": (ms("appearance.view_dependent_fraction"), "ms"),
        "train.self_ms": (ms("train") / TRAIN_ITERATIONS, "ms"),
        "trace.overhead_frac": (traced_call.ms_per_iter_ref / untraced.ms_per_iter_ref - 1.0
                                if both else 0.0, "fraction"),
    }
    for name in spans.SPAN_NAMES + ("train",):
        metrics[f"{name}.calls"] = (calls(name), "count")
    return metrics
