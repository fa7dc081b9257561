"""Property tests for training: two `train()` runs with one seed on a random
small scene end with the same metrics, population, parameters and
placements, and every kind of density control happens on the way; every
step keeps scales positive and opacities inside (0, 1); a clone
is an exact copy of its source; each control pass is handed exactly the
Gaussians touched since the last one, with their mean view-space gradient
norms; no call reads every live row."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tgh import optimizer as opt
from tgh import renderer as rn
from tgh.camera import Camera
from tgh.hierarchy import build
from tgh.store import COLUMNS, GaussianStore

from conftest import columns_of, params, placement_of, stack
from test_optimizer import StaticScene

FRAMES = 4
FRAME_RATE = 30.0
CLONE_BELOW = 0.05          # spatial scale that separates clones from splits


def small_scene(seed, n, size):
    """n visible Gaussians and one faint one in front of a size x size camera.

    Gaussian 0 is small enough to clone, the others visible are large enough
    to split, and the faint one starts below the prune threshold. The target
    is black, so every step lowers opacity and the faint one stays below it.
    """
    rng = np.random.default_rng(seed)
    cam = Camera(fx=float(size), fy=float(size), cx=size / 2.0, cy=size / 2.0,
                 rotation=np.eye(3), translation=np.zeros(3),
                 width=size, height=size, near=0.1, far=100.0)
    spatial = [0.03, *rng.uniform(0.1, 0.3, n - 1), 0.6]
    opacity = [*rng.uniform(0.3, 0.9, n), 4.5e-3]
    parts = [params(mu=[*rng.uniform(-0.5, 0.5, 2), rng.uniform(3.5, 4.5),
                        rng.uniform(0.0, FRAMES / FRAME_RATE)],
                    scale=[s, s, s, 0.5],
                    rotor_left=[1.0, *rng.normal(scale=0.08, size=3)],
                    rotor_right=[1.0, *rng.normal(scale=0.08, size=3)],
                    opacity=o, base_color=rng.uniform(0.2, 0.9, 3))
             for s, o in zip(spatial, opacity)]
    h = build(duration=FRAMES / FRAME_RATE)
    h.insert_batch(**stack(parts))
    black = np.zeros((size, size, 3))
    scene = StaticScene([cam], FRAMES, FRAME_RATE, {(0, f): black for f in range(FRAMES)})
    return scene, h


def recording(reports):
    """`adaptive_control` that appends each pass's ControlReport to `reports`."""
    original = opt.adaptive_control

    def control(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]
    return control


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(10281869782716536324757331828471411636874583558278456082715895499050347552805707304205726142743286418697002933376145)
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6), size=st.integers(16, 24),
       interval=st.integers(5, 10))
def test_train_is_deterministic_given_seed(seed, n, size, interval):
    runs = []
    for _ in range(2):
        scene, h = small_scene(seed, n, size)
        cfg = opt.TrainConfig(iterations=30, densify_interval=interval, seed=seed)
        reports = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opt, "GRAD_DENSIFY_THRESHOLD", 1e-12)
            mp.setattr(opt, "CLONE_SIZE_FRACTION", CLONE_BELOW / opt.camera_extent(scene.cameras))
            mp.setattr(opt, "adaptive_control", recording(reports))
            result = opt.train(scene, h, cfg)
        h.audit()
        ids = h.store.ids
        runs.append((result.metrics, ids, h.store.gather(ids),
                     [placement_of(h, g) for g in ids], reports))
    (metrics, ids, batch, placements, reports), again = runs
    assert again[0] == metrics and again[1] == ids and again[3] == placements
    for name in COLUMNS:
        assert np.array_equal(columns_of(again[2])[name], columns_of(batch)[name]), name
    assert sum(r.cloned for r in reports) > 0
    assert sum(r.split for r in reports) > 0
    assert sum(r.pruned for r in reports) > 0


@pytest.mark.parametrize("seed", range(3))
def test_every_step_keeps_scales_positive_and_opacities_inside(seed, monkeypatch):
    # the black target lowers every opacity, the faint one's from 4.5e-3 at
    # the first step: in logit o it falls geometrically and never reaches 0
    scene, h = small_scene(seed, n=4, size=16)
    update_levels, checked = h.update_levels, []

    def check(gids):   # runs once per step, after the write
        rows = h.store.live_rows()
        scale, opacity = h.store.scale[rows], h.store.opacity[rows]
        assert np.isfinite(scale).all() and (scale > 0.0).all()
        assert ((opacity > 0.0) & (opacity < 1.0)).all()
        checked.append(opacity.min())
        return update_levels(gids)

    monkeypatch.setattr(h, "update_levels", check)
    opt.train(scene, h, opt.TrainConfig(iterations=40, densify_interval=1000, seed=seed))
    assert len(checked) == 40 and checked[-1] < checked[0]


@pytest.mark.parametrize("seed", range(5))
def test_clone_is_an_exact_copy_of_its_source(seed, monkeypatch):
    scene, h = small_scene(seed, n=4, size=16)
    monkeypatch.setattr(opt, "GRAD_DENSIFY_THRESHOLD", 1e-12)
    monkeypatch.setattr(opt, "CLONE_SIZE_FRACTION", CLONE_BELOW / opt.camera_extent(scene.cameras))
    original = opt.adaptive_control
    passes = []  # (live parameter rows before a pass, the rows of its clones)

    def control(h, *args, **kwargs):
        def rows(ids):
            columns = columns_of(h.store.gather(ids))
            return np.concatenate([columns[name].reshape(len(ids), -1)
                                   for name in COLUMNS], axis=1)
        before = rows(h.store.ids)
        report = original(h, *args, **kwargs)
        if report.cloned:
            passes.append((before, rows(report.new_ids[:report.cloned])))
        return report

    monkeypatch.setattr(opt, "adaptive_control", control)
    opt.train(scene, h, opt.TrainConfig(iterations=30, densify_interval=5, seed=seed))
    assert passes
    for before, clones in passes:
        for clone in clones:
            assert (before == clone).all(axis=1).any()


@pytest.mark.parametrize("seed", range(2))
def test_train_never_passes_over_every_live_row(seed, monkeypatch):
    # a step and a control pass read only the rows they are handed, so a
    # call's cost does not grow with the population
    def every_live_row(self):
        raise AssertionError("train() read every live row")

    scene, h = small_scene(seed, n=4, size=16)
    monkeypatch.setattr(GaussianStore, "live_rows", every_live_row)
    monkeypatch.setattr(opt, "GRAD_DENSIFY_THRESHOLD", 1e-12)
    reports = []
    monkeypatch.setattr(opt, "adaptive_control", recording(reports))
    opt.train(scene, h, opt.TrainConfig(iterations=10, densify_interval=4, seed=seed))
    assert len(reports) == 3 and sum(r.cloned + r.split for r in reports) > 0


def brute_force_means(steps):
    """{id or row: mean norm}, each norm added as a Python float in step order."""
    sums, counts = {}, {}
    for keys, norms in steps:
        for key, norm in zip(keys.tolist(), norms.tolist()):
            sums[key] = sums.get(key, 0.0) + norm
            counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


@seed(42969370112859066013771024375318617236451960083227614431598017043352276880251)
@settings(max_examples=60)
@given(steps=st.lists(st.dictionaries(st.integers(0, 15), st.floats(0.0, 10.0)), max_size=8))
@example(steps=[])
@example(steps=[{3: 0.1, 1: 0.2}, {}, {1: 0.7}])
def test_interval_means_equal_step_order_sums(steps):
    # a step's rows are unique, in working-set order; rows repeat across steps
    touches = [(np.array(list(step), dtype=np.int64), np.array(list(step.values())))
               for step in steps]
    rows, mean_grad = opt.interval_means(touches)
    expected = brute_force_means(touches)
    assert rows.dtype == np.int64 and np.all(np.diff(rows) > 0)
    assert rows.tolist() == sorted(expected)
    assert np.array_equal(mean_grad, [expected[row] for row in rows.tolist()])


@pytest.mark.parametrize("seed", range(3))
def test_each_pass_gets_the_interval_touches(seed, monkeypatch):
    scene, h = small_scene(seed, n=5, size=16)
    monkeypatch.setattr(opt, "GRAD_DENSIFY_THRESHOLD", 1e-12)
    monkeypatch.setattr(opt, "CLONE_SIZE_FRACTION", CLONE_BELOW / opt.camera_extent(scene.cameras))
    render, control = rn.render_with_gradients, opt.adaptive_control
    steps, passes, reports = [], [], []  # passes: (ids handed, mean_grad, steps before)

    def recorded_render(batch, *args):
        value, fb, grads = render(batch, *args)
        steps.append((batch.ids[grads.touched], grads.viewspace_norm[grads.touched]))
        return value, fb, grads

    def recorded_control(h, cfg, rng, extent, rows, mean_grad, **kwargs):
        passes.append((h.store.ids_at_rows(rows), mean_grad.copy(), len(steps)))
        reports.append(control(h, cfg, rng, extent, rows, mean_grad, **kwargs))
        return reports[-1]

    monkeypatch.setattr(rn, "render_with_gradients", recorded_render)
    monkeypatch.setattr(opt, "adaptive_control", recorded_control)
    opt.train(scene, h, opt.TrainConfig(iterations=30, densify_interval=7, seed=seed))
    assert [p[2] for p in passes] == [7, 14, 21, 28, 30]
    for (ids, mean_grad, end), start in zip(passes, [0] + [p[2] for p in passes]):
        expected = brute_force_means(steps[start:end])
        assert sorted(ids.tolist()) == sorted(expected) and len(set(ids.tolist())) == len(ids)
        assert np.array_equal(mean_grad, [expected[gid] for gid in ids.tolist()])
    assert sum(r.cloned for r in reports) > 0
    assert sum(r.split for r in reports) > 0
    assert sum(r.pruned for r in reports) > 0
