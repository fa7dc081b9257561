"""Training: Adam updates on working-set Gaussians, adaptive density control
limited to recently touched primitives, per-step hierarchy reassignment and
the appearance gate wiring. A step reads and writes only working-set rows,
each once, in the store's layout: the gate gives a slot to each kept diffuse
row whose SH gradient it lets through, `step_base_rows` steps the base rows
and `adam_step` the SH of the slotted rows, and one `store.write` puts both
back; a diffuse row has no SH to step. A control pass reads only the rows
touched since the last one, which `train()` collects as it steps them, and
the gate's count at a pass is the number of slots held. The per-step cost is
not yet flat in the population (ROADMAP item 1): `scene_extent_of` runs once
per `train()`.

The per-Gaussian training state lives in the store's rows: `train()`
attaches `TRAINING_ROWS` (Adam moment rows and step counts) to the
hierarchy's store when it starts and detaches them when it returns or
raises, so the store grows, reuses and zeroes them with the parameters it
holds. The moments are laid out as the parameters
(`store.PARAMETERS`): 20 base columns per row, and the SH moments in the
slot table, so a diffuse Gaussian carries no SH moments either.

The method runs on fixed settings, module constants here:

- `LEARNING_RATES`: Adam's rate per parameter column. The base rate 1.6e-4
  is 3DGS's initial position rate (arXiv 2308.04079), and as there the
  `mu` rate is multiplied by the scene extent; rotors run at 5x, and base
  color and residual SH at 12.5x the base rate. Scale s and opacity o step
  in log s and logit o, as in 3DGS and 4DGS (arXiv 2310.10642), so no step
  takes s to 0 or o out of [0, 1] and a scale's step is relative to it; their
  rates, 8e-4 / 0.08 = 1e-2 and 4e-3 / 0.24, keep the step of linear rates
  5x and 25x at the bench's typical s = 0.08 and o (1 - o) = 0.24. 3DGS's
  5e-3 and 5e-2 score lower on held-out timestamps (`tools/quality.py`).
- The density-control settings are the 3DGS defaults:
  `GRAD_DENSIFY_THRESHOLD` (its densify_grad_threshold, in view-space NDC
  units), `PRUNE_OPACITY_THRESHOLD` (its min opacity), `SPLIT_SCALE_DIVISOR`
  (a split child's scale is 1 / (0.8 N) of its parent's with N = 2
  children) and `CLONE_SIZE_FRACTION` (its percent_dense: of the scene
  extent, clone below, split above). A clone is an exact copy of its
  source, as in 3DGS.

The loss weights are `losses.MSE_WEIGHT` (0.8) and `losses.SSIM_WEIGHT`
(0.2), as 3DGS weighs L1 and D-SSIM. The appearance gate's threshold is
`appearance.G_TH` (1e-6) and its cutoff the paper's `appearance.LAMBDA_H`
(0.15). The renderer's settings are the constants of `renderer`.
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import appearance as ap
from . import gaussians as ga
from . import renderer as rn
from . import sh
from .errors import InvalidParameterError, OutOfRangeError
from .hierarchy import TemporalHierarchy
from .losses import psnr
from .store import BASE_WIDTH, PARAMETERS, pack, views

LEARNING_RATES = {name: 1.6e-4 * multiple for name, multiple in (
    ("mu", 1.0), ("scale", 5.0 / 0.08), ("rotor_left", 5.0), ("rotor_right", 5.0),
    ("opacity", 25.0 / 0.24), ("base_color", 12.5), ("sh_residual", 12.5))}
GRAD_DENSIFY_THRESHOLD = 2e-4
PRUNE_OPACITY_THRESHOLD = 5e-3
SPLIT_SCALE_DIVISOR = 1.6
CLONE_SIZE_FRACTION = 0.01


@dataclass
class TrainConfig:
    """Training settings.

    Density control runs every `densify_interval` iterations and at the last
    one. Clone and split run only at passes in the first half of the run
    (`it <= iterations // 2`), so every Gaussian they add is fitted before
    the run ends; pruning runs at every pass. `iterations` is required.
    """

    iterations: int
    densify_interval: int = 100
    max_gaussians: int | None = None     # densification safety cap
    seed: int = 0

    def __post_init__(self):
        for name, low in (("iterations", 0), ("densify_interval", 1), ("max_gaussians", 0),
                          ("seed", 0)):
            value = getattr(self, name)
            if value is None and name == "max_gaussians":
                continue  # no cap
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                               and value >= low):
                raise InvalidParameterError(f"{name} must be an integer >= {low}")


# Adam: moments are zero until a row's first applied update
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-15

# The per-row state `train()` attaches to the store for one run: Adam's first
# and second moments of each parameter, laid out as `params` (base columns in
# the rows, SH in the slot table), and each row's count of applied updates.
TRAINING_ROWS = {"params_m": PARAMETERS, "params_v": PARAMETERS,
                 "adam_steps": ((), np.int64)}


def adam_step(params, grads, m, v, steps, lr):
    """Bias-corrected Adam update applied in place to `params`.

    params/grads/m/v: (N,) or (N, D) arrays for the touched rows; steps: (N,)
    update counters already incremented for this step; lr: scalar or (D,).
    """
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    m *= b1
    m += (1 - b1) * grads
    v *= b2
    v += (1 - b2) * grads * grads
    t = steps.astype(np.float64)[:, None] if params.ndim == 2 else steps
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def step_base_rows(params, grads, m, v, steps, lr):
    """`adam_step` on (N, BASE_WIDTH) base rows, with the rotors renormalized
    and scale s and opacity o stepped in log s and logit o, centred on the
    row's values: `m` and `v` hold the moments of the chained gradients
    s g_s and o (1 - o) g_o, and their step d is applied as s exp(d) and
    o / (o + (1 - o) exp(-d)), sigmoid(logit o + d) with no log of o, so an
    opacity of 0 or 1 stays put."""
    cols, grads = views(params), grads.copy()
    chained, s, o = views(grads), cols["scale"].copy(), cols["opacity"].copy()
    chained["scale"] *= s
    chained["opacity"] *= o * (1.0 - o)
    cols["scale"][...] = cols["opacity"][...] = 0.0     # centred: 0 before the step
    adam_step(params, grads, m, v, steps, lr)
    cols["scale"][...] = s * np.exp(cols["scale"])
    cols["opacity"][...] = o / (o + (1.0 - o) * np.exp(-cols["opacity"]))
    for q in (cols["rotor_left"], cols["rotor_right"]):
        q /= np.linalg.norm(q, axis=1, keepdims=True)


@dataclass
class ControlReport:
    pruned: int = 0
    cloned: int = 0
    split: int = 0
    new_ids: list = field(default_factory=list)
    removed_ids: list = field(default_factory=list)


def interval_means(touches):
    """The rows touched in an interval, ascending and unique, and each one's
    mean view-space gradient norm. `touches` holds one (rows, norms) pair per
    step, in step order; a row's norms are summed in that order from 0.0."""
    rows = np.concatenate([np.empty(0, np.int64), *(r for r, _ in touches)])
    norms = np.concatenate([np.empty(0), *(n for _, n in touches)])
    rows, inverse = np.unique(rows, return_inverse=True)
    return rows, np.bincount(inverse, norms) / np.bincount(inverse)


def adaptive_control(h: TemporalHierarchy, cfg: TrainConfig, rng, scene_extent,
                     rows, mean_grad, grow=True):
    """Prune / clone / split among `rows`, the Gaussians touched since the
    last pass, whose mean view-space gradient norms are `mean_grad`.

    The rows must be live, unique and ascending, as `interval_means` gives
    them; the pass reads no other row, so its cost is independent of the
    total population. Candidates are visited in ascending row order.
    A clone is an exact copy of its source, SH included, as in 3DGS: the
    sources are read (`store.read`) and inserted with their SH, so a clone or
    split child of a view-dependent Gaussian takes a slot of its own. Split
    offsets are drawn as one (n, 2, 3) block of standard normals, two
    children per split.
    Under `max_gaussians` the room left after pruning goes to clones first,
    then to splits. Clones and split children are added in that order with
    one insert, then the split parents are removed. With `grow` false the
    pass only prunes.
    """
    report = ControlReport()
    store = h.store
    prune_mask = store.opacity[rows] < PRUNE_OPACITY_THRESHOLD
    if prune_mask.any():
        pruned = store.ids_at_rows(rows[prune_mask])
        h.remove(pruned)
        report.removed_ids = pruned.tolist()
        report.pruned = len(pruned)
    rows, mean_grad = rows[~prune_mask], mean_grad[~prune_mask]
    if not grow or len(rows) == 0:
        return report

    hot = mean_grad >= GRAD_DENSIFY_THRESHOLD
    max_spatial = np.max(store.scale[rows, :3], axis=1)
    size_cut = CLONE_SIZE_FRACTION * scene_extent
    clone_rows = rows[hot & (max_spatial <= size_cut)]
    split_rows = rows[hot & (max_spatial > size_cut)]
    if cfg.max_gaussians is not None:
        room = max(0, int(cfg.max_gaussians) - len(store))
        clone_rows = clone_rows[:room]
        split_rows = split_rows[:room - len(clone_rows)]

    sources = np.concatenate([clone_rows, np.repeat(split_rows, 2)])
    if len(sources):
        held, (base, block) = store.read(sources, "params")
        new = {**views(base), "sh_residual": np.zeros((len(sources), sh.RESIDUAL_COEFFS))}
        new["sh_residual"][held] = block
        n_clones = len(clone_rows)
        if len(split_rows):
            cov = ga.build_covariance(store.scale[split_rows], store.rotor_left[split_rows],
                                      store.rotor_right[split_rows]).cov[:, :3, :3]
            chol = np.linalg.cholesky(cov + 1e-12 * np.eye(3))
            z = rng.standard_normal((len(split_rows), 2, 3))
            new["mu"][n_clones:, :3] += (chol[:, None] @ z[..., None]).reshape(-1, 3)
            new["scale"][n_clones:, :3] /= SPLIT_SCALE_DIVISOR
        report.new_ids = h.insert_batch(**new).tolist()
        report.cloned = n_clones
    if len(split_rows):
        parents = store.ids_at_rows(split_rows)
        h.remove(parents)
        report.removed_ids += parents.tolist()
        report.split = len(split_rows)

    return report


@dataclass(frozen=True)
class MetricRow:
    """One metrics row, appended at each control pass; two runs with one
    seed give equal rows. `row["loss"]` reads a column by its name.
    """

    iteration: int
    loss: float                         # mean loss since the previous row
    psnr: float                         # of the last iteration's render
    num_gaussians: int
    working_set_size: int

    def __getitem__(self, column):
        if column not in METRIC_COLUMNS:
            raise KeyError(column)
        return getattr(self, column)


METRIC_COLUMNS = tuple(f.name for f in fields(MetricRow))


@dataclass
class TrainResult:
    metrics: list                       # MetricRow per control pass


def scene_extent_of(store):
    """Diagonal of the live Gaussians' position bounding box; 1.0 if there is
    none or it is a point. Each axis is gathered alone: a max and min over
    gathered (n, 3) rows reduce several times slower than over one column."""
    rows = store.live_rows()
    if len(rows) == 0:
        return 1.0
    diag = np.linalg.norm([np.ptp(axis[rows]) for axis in store.mu[:, :3].T])
    return float(diag) if diag > 0 else 1.0


def train(scene, h: TemporalHierarchy, cfg: TrainConfig):
    """Fit the hierarchy's Gaussians to the scene's posed images.

    `scene` provides cameras, frames, frame_rate and target(cam, frame).
    Returns a TrainResult; the hierarchy is optimized in place. Nothing
    changes unless the scene has a camera, an integer frame count >= 1, a
    finite positive frame rate and its last frame within `h.duration`.

    A control pass runs every `cfg.densify_interval` iterations and at the
    last one. It prunes at every pass but clones and splits only while
    `it <= iterations // 2`, as 3DGS densifies only in the first half of its
    run; a split at the end would leave children that no step fits. Each
    pass appends a MetricRow to `result.metrics`.
    """
    if len(scene.cameras) == 0 or isinstance(scene.frames, bool) or not (
            isinstance(scene.frames, numbers.Integral) and scene.frames >= 1):
        raise InvalidParameterError(f"scene needs a camera and an integer frame count "
                                    f">= 1, got frames={scene.frames!r}")
    if not 0 < scene.frame_rate < math.inf:
        raise InvalidParameterError(f"frame_rate must be finite and positive, "
                                    f"got {scene.frame_rate!r}")
    if (scene.frames - 1) / scene.frame_rate > h.duration:
        raise OutOfRangeError(f"frame {scene.frames - 1} falls after duration {h.duration}")
    rng = np.random.default_rng(cfg.seed)
    g_th = ap.G_TH
    extent = scene_extent_of(h.store)
    lr = pack({**LEARNING_RATES, "mu": LEARNING_RATES["mu"] * extent}, np.empty(BASE_WIDTH))

    result = TrainResult(metrics=[])
    interval_loss = []
    touches = []  # (rows, view-space norms) of each step since the last pass
    store = h.store

    with store.attached(TRAINING_ROWS):
        for it in range(1, cfg.iterations + 1):
            cam_i = int(rng.integers(len(scene.cameras)))
            frame = int(rng.integers(scene.frames))
            cam = scene.cameras[cam_i]
            t_stamp = frame / scene.frame_rate
            ws = h.query(t_stamp)
            batch = h.materialize(ws)
            target = scene.target(cam_i, frame)
            value, fb, grads = rn.render_with_gradients(batch, t_stamp, cam, target)
            interval_loss.append(value)

            if len(batch) > 0:
                rows, keep = store.rows_of(ws.gaussian_ids), grads.keep
                # each kept diffuse row the gate opens takes a zeroed slot, read
                # below as SH and moments; a slotted row not kept steps on zeros
                opened = ap.gate_gradients(store.slot[rows[keep]] < 0, grads.sh, g_th)
                store.take_slots(rows[keep[opened]])
                store.adam_steps[rows] += 1
                steps = store.adam_steps[rows]
                held, (p, p_sh), (m, m_sh), (v, v_sh) = store.read(
                    rows, "params", "params_m", "params_v")
                g_sh = np.zeros_like(p_sh)
                g_sh[np.isin(held, keep)] = grads.sh[store.slot[rows[keep]] >= 0]
                step_base_rows(p, grads.params, m, v, steps, lr)
                adam_step(p_sh, g_sh, m_sh, v_sh, steps[held], LEARNING_RATES["sh_residual"])
                store.write(rows, params=(p, p_sh), params_m=(m, m_sh), params_v=(v, v_sh))
                h.update_levels(ws.gaussian_ids)
                touches.append((rows[grads.touched], grads.viewspace_norm[grads.touched]))

            if it % cfg.densify_interval == 0 or it == cfg.iterations:
                adaptive_control(h, cfg, rng, extent, *interval_means(touches),
                                 grow=it <= cfg.iterations // 2)
                touches = []
                if g_th < math.inf:
                    fraction = ap.view_dependent_fraction(len(store.held_slots()), len(store))
                    g_th = ap.update_ratio_cutoff(g_th, fraction)
                result.metrics.append(MetricRow(
                    iteration=it,
                    loss=float(np.mean(interval_loss)),
                    psnr=float(psnr(fb.rgb, target)),
                    num_gaussians=len(store),
                    working_set_size=len(ws.gaussian_ids),
                ))
                interval_loss = []
    return result
