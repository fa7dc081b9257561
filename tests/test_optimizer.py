import copy
import dataclasses

import numpy as np
import pytest

from tgh import optimizer as opt
from tgh import renderer as rn
from tgh import store as st
from tgh.camera import Camera, look_at
from tgh.errors import InvalidParameterError, OutOfRangeError
from tgh.hierarchy import build
from tgh.store import COLUMNS, PLACEMENT

from conftest import columns_of, params, random_params, sh_of, stack


def store_columns(store):
    """Each parameter and placement column of all the store's rows, as
    bytes; SH is read from the slots, zero for a diffuse row."""
    columns = {name: getattr(store, name) for name in COLUMNS[:-1] + tuple(PLACEMENT)}
    columns["sh_residual"] = sh_of(store, np.arange(store.capacity))
    return {name: column.tobytes() for name, column in columns.items()}


class StaticScene:
    """Single-camera scene whose targets come from a fixed reference render."""

    def __init__(self, cameras, frames, frame_rate, images):
        self.cameras = cameras
        self.frames = frames
        self.frame_rate = frame_rate
        self._images = images  # dict (cam, frame) -> image

    def target(self, cam_index, frame):
        return self._images[(cam_index, frame)]


def ring_camera(width=32, height=32, fx=40.0, position=(0.0, -4.0, 0.5), target=(0.0, 0.0, 0.0)):
    rotation, translation = look_at(position, target)
    return Camera(fx=fx, fy=fx, cx=width / 2, cy=height / 2,
                  rotation=rotation, translation=translation,
                  width=width, height=height, near=0.1, far=50.0)


def reference_blob(color, center, t_mu=0.5):
    return params(mu=[*center, t_mu], scale=[0.25, 0.25, 0.25, 0.6],
                  opacity=0.85, base_color=color)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = np.array([[1.0, 2.0]])
        g = np.zeros((1, 2))
        m = np.zeros((1, 2))
        v = np.zeros((1, 2))
        opt.adam_step(p, g, m, v, np.array([1]), lr=0.1)
        assert np.array_equal(p, [[1.0, 2.0]])

    def test_first_step_closed_form(self):
        p = np.array([0.0])
        g = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        opt.adam_step(p, g, m, v, np.array([1]), lr=0.1)
        assert p[0] == pytest.approx(-0.1 * 1.0 / (1.0 + opt.ADAM_EPS), rel=1e-12)

    def test_descent_on_quadratic(self):
        p = np.array([5.0])
        m = np.zeros(1)
        v = np.zeros(1)
        for step in range(1, 2001):
            g = 2.0 * p
            opt.adam_step(p, g, m, v, np.array([step]), lr=0.01)
        assert abs(p[0]) < 1e-2

    def test_packed_step_equals_per_column_steps(self):
        """`train()` steps the base parameters of each row with one call and
        a row of per-column rates. Every element takes the same operations as
        when its column is stepped alone with its scalar rate, so both give
        the same bits."""
        rng = np.random.default_rng(21)
        n_rows, per_step = 500, 40
        rates = {**opt.LEARNING_RATES, "mu": opt.LEARNING_RATES["mu"] * 1.7}
        params = rng.normal(size=(n_rows, st.BASE_WIDTH))
        m, v = np.zeros_like(params), np.zeros_like(params)
        steps = np.zeros(n_rows, dtype=np.int64)
        # the reference keeps one contiguous array per column
        cols = {name: column.copy() for name, column in st.views(params).items()}
        m_cols = {name: np.zeros_like(column) for name, column in cols.items()}
        v_cols = {name: np.zeros_like(column) for name, column in cols.items()}
        for _ in range(60):
            rows = rng.choice(n_rows, size=per_step, replace=False)
            grads = (rng.normal(size=(per_step, st.BASE_WIDTH))
                     * 10.0 ** rng.uniform(-6, 0, st.BASE_WIDTH))
            grads[rng.uniform(size=per_step) < 0.2] = 0.0
            steps[rows] += 1
            p, m_rows, v_rows = params[rows], m[rows], v[rows]
            opt.adam_step(p, grads, m_rows, v_rows, steps[rows],
                          st.pack(rates, np.empty(st.BASE_WIDTH)))
            params[rows], m[rows], v[rows] = p, m_rows, v_rows
            for name, g in st.views(grads).items():
                p, m_rows, v_rows = cols[name][rows], m_cols[name][rows], v_cols[name][rows]
                opt.adam_step(p, g.copy(), m_rows, v_rows, steps[rows], rates[name])
                cols[name][rows], m_cols[name][rows], v_cols[name][rows] = p, m_rows, v_rows
        assert steps.max() > 1
        for packed, reference in ((params, cols), (m, m_cols), (v, v_cols)):
            for name, column in st.views(packed).items():
                assert np.array_equal(column, reference[name]), name


class TestStepBaseRows:
    """`step_base_rows` steps scale in log s and opacity in logit o."""

    def steps(self, params, grads_of, count=5):
        """Step `params` `count` times with `grads_of(params)`, returning each
        step's factor new / old of the scale columns."""
        m, v = np.zeros_like(params), np.zeros_like(params)
        rates = st.pack(opt.LEARNING_RATES, np.empty(st.BASE_WIDTH))
        factors = []
        for step in range(1, count + 1):
            before = st.views(params)["scale"].copy()
            opt.step_base_rows(params, grads_of(params), m, v, np.full(len(params), step), rates)
            factors.append(st.views(params)["scale"] / before)
        return factors

    def test_scale_step_is_relative_to_the_scale(self, rng):
        # two rows whose scales differ x1000 and whose s g are equal get the
        # same step factor: at a linear rate the small one would move 1000x more
        params = np.tile(rng.uniform(0.2, 0.8, st.BASE_WIDTH), (2, 1))
        st.views(params)["scale"][1] *= 1000.0
        base = rng.normal(size=st.BASE_WIDTH)

        def grads_of(p):
            g = np.tile(base, (2, 1))
            st.views(g)["scale"][...] = 0.3 / st.views(p)["scale"]
            return g
        for scale in self.steps(params, grads_of):
            assert np.all(scale < 1.0)
            np.testing.assert_allclose(scale[1], scale[0], rtol=1e-12)

    def test_opacity_at_zero_and_one_stays_put(self, rng):
        params = np.tile(rng.uniform(0.2, 0.8, st.BASE_WIDTH), (2, 1))
        st.views(params)["opacity"][...] = [0.0, 1.0]
        self.steps(params, lambda p: rng.normal(size=p.shape))
        assert np.isfinite(params).all()
        assert st.views(params)["opacity"].tolist() == [0.0, 1.0]


def populated_hierarchy(rng, n=50, duration=2.0):
    h = build(duration=duration)
    parts = []
    for _ in range(n):
        g = random_params(rng, t_center_range=(0.0, duration), scale_range=(0.05, 0.5))
        g["mu"][0, :3] = rng.uniform(-1, 1, size=3)
        parts.append(g)
    h.insert_batch(**stack(parts))
    return h


class TestAdaptiveControl:
    def control(self, h, rows, cfg, rng, grad=1.0):
        """One pass over `rows`, each touched once with view-space gradient
        `grad`."""
        rows = np.asarray(rows, dtype=np.int64)
        return opt.adaptive_control(h, cfg, rng, 2.0, rows, np.full(len(rows), grad))

    def test_zero_opacity_pruned(self, rng):
        h = populated_hierarchy(rng)
        gid = h.store.ids[0]
        [row] = h.store.rows_of([gid])
        h.store.opacity[row] = 0.0
        report = self.control(h, [row], opt.TrainConfig(iterations=1), rng, grad=0.0)
        assert report.pruned == 1 and not h.store.holds([gid])[0]
        h.audit()

    def test_below_threshold_population_unchanged(self, rng):
        h = populated_hierarchy(rng)
        rows = h.store.live_rows()
        before = len(h.store)
        report = self.control(h, rows, opt.TrainConfig(iterations=1), rng, grad=1e-6)  # below 2e-4
        assert report.cloned == report.split == 0
        assert len(h.store) == before - report.pruned

    def test_hot_gaussians_densify_and_audit_passes(self, rng, monkeypatch):
        monkeypatch.setattr(opt, "CLONE_SIZE_FRACTION", 0.1)
        h = populated_hierarchy(rng)
        rows = h.store.live_rows()
        before = len(h.store)
        report = self.control(h, rows, opt.TrainConfig(iterations=1), rng, grad=1.0)
        assert report.cloned + report.split > 0
        assert len(h.store) == before + report.cloned + 2 * report.split \
            - report.split - report.pruned
        h.audit()

    def test_max_gaussians_room_goes_to_clones_then_splits(self, rng, monkeypatch):
        monkeypatch.setattr(opt, "CLONE_SIZE_FRACTION", 0.1)
        h = populated_hierarchy(rng)
        h.remove(h.store.ids[5:45:8])  # freed rows for the new Gaussians
        rows = h.store.live_rows()
        h.store.opacity[rows[0]] = 0.0
        hot = rows[1:]
        small = h.store.scale[hot, :3].max(axis=1) <= opt.CLONE_SIZE_FRACTION * 2.0
        clones, splits = hot[small], hot[~small]
        assert len(clones) > 2 and len(splits) > 2
        for room in (len(clones) + 2, 2, 0):
            trial = copy.deepcopy(h)
            cap = len(h.store) - 1 + room  # the room left after the prune
            cfg = opt.TrainConfig(iterations=1, max_gaussians=cap)
            report = self.control(trial, rows, cfg, rng)
            n_clones = min(room, len(clones))
            n_splits = min(room - n_clones, len(splits))
            assert (report.pruned, report.cloned, report.split) == (1, n_clones, n_splits)
            assert report.removed_ids == \
                h.store.ids_at_rows([rows[0], *splits[:n_splits]]).tolist()
            # clones sit on their sources; split children keep their
            # parent's rotors, opacity and color
            sources = np.concatenate([clones[:n_clones], np.repeat(splits[:n_splits], 2)])
            new = trial.store.gather(report.new_ids)
            assert np.array_equal(new.mu[:n_clones], h.store.mu[clones[:n_clones]])
            for name in ("rotor_left", "rotor_right", "opacity", "base_color"):
                assert np.array_equal(getattr(new, name), getattr(h.store, name)[sources])
            assert len(trial.store) <= cap
            trial.audit()

    @pytest.mark.parametrize("cap", [9, np.uint16(9), np.int8(9)], ids=repr)
    def test_past_the_cap_adds_nothing(self, rng, monkeypatch, cap):
        monkeypatch.setattr(opt, "CLONE_SIZE_FRACTION", 0.1)
        h = populated_hierarchy(rng)
        before = len(h.store)
        cfg = opt.TrainConfig(iterations=1, max_gaussians=cap)
        report = self.control(h, h.store.live_rows(), cfg, rng)
        assert report.cloned == report.split == 0 and report.new_ids == []
        assert len(h.store) == before - report.pruned

    def test_untouched_population_ignored(self, rng):
        h = populated_hierarchy(rng)
        before = len(h.store)
        report = self.control(h, [], opt.TrainConfig(iterations=1), rng)
        assert report.pruned == report.cloned == report.split == 0
        assert len(h.store) == before


def make_training_setup(rng, iterations, seed=0, frames=4):
    cam = ring_camera()
    reference = [reference_blob([0.9, 0.3, 0.2], [0.0, 0.0, 0.0]),
                 reference_blob([0.2, 0.6, 0.9], [0.6, 0.3, 0.1])]
    from test_renderer import batch_of
    images = {}
    for f in range(frames):
        img = rn.render_batch(batch_of(reference), f / 30.0, cam).rgb
        images[(0, f)] = img
    scene = StaticScene([cam], frames, 30.0, images)
    h = build(duration=frames / 30.0)
    noisy = [params(mu=g["mu"] + rng.normal(scale=0.05, size=4),
                    scale=g["scale"] * rng.uniform(0.8, 1.25, size=4),
                    rotor_left=g["rotor_left"], rotor_right=g["rotor_right"],
                    opacity=0.5, base_color=np.clip(
                        g["base_color"] + rng.normal(scale=0.1, size=3), 0, 1))
             for g in reference]
    h.insert_batch(**stack(noisy))
    cfg = opt.TrainConfig(iterations=iterations, seed=seed)
    return scene, h, cfg


class TestTrain:
    def test_zero_iterations_no_change(self, rng):
        scene, h, cfg = make_training_setup(rng, iterations=0)
        ids = h.store.ids
        before = h.store.gather(ids)
        result = opt.train(scene, h, cfg)
        assert result.metrics == []
        after = h.store.gather(ids)
        assert np.array_equal(before.mu, after.mu)
        assert np.array_equal(before.scale, after.scale)

    def test_loss_decreases(self, rng):
        scene, h, cfg = make_training_setup(rng, iterations=400)
        result = opt.train(scene, h, cfg)
        first = result.metrics[0]["loss"]
        last = result.metrics[-1]["loss"]
        assert last < first * 0.5
        h.audit()

    def test_deterministic_given_seed(self, rng):
        scene1, h1, cfg = make_training_setup(rng, iterations=150, seed=3)
        rng2 = np.random.default_rng(20240809)
        scene2, h2, cfg2 = make_training_setup(rng2, iterations=150, seed=3)
        r1 = opt.train(scene1, h1, cfg)
        r2 = opt.train(scene2, h2, cfg2)
        assert r1.metrics == r2.metrics
        assert set(h1.store.ids) == set(h2.store.ids)
        a, b = h1.store.gather(h1.store.ids), h2.store.gather(h1.store.ids)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(columns_of(a)["sh_residual"], columns_of(b)["sh_residual"])

    def test_growth_only_in_first_half(self, rng, monkeypatch):
        # a tiny threshold makes every touched Gaussian hot at every pass
        monkeypatch.setattr(opt, "GRAD_DENSIFY_THRESHOLD", 1e-12)
        scene, h, cfg = make_training_setup(rng, iterations=300)
        cfg = dataclasses.replace(cfg, densify_interval=50)
        counts = [(0, len(h.store))]
        held = set(vars(h.store))
        result = opt.train(scene, h, cfg)
        counts += [(row.iteration, row.num_gaussians) for row in result.metrics]
        assert set(vars(h.store)) == held  # the training state is detached
        assert [it for it, _ in counts] == [0, 50, 100, 150, 200, 250, 300]
        grown = [it for (_, before), (it, after) in zip(counts, counts[1:])
                 if after > before]
        assert grown and max(grown) <= cfg.iterations // 2
        h.audit()

    def test_touched_bounded_by_working_set(self, rng):
        # `train()` accumulates densification statistics for the touched
        # splats only: one flag per working-set Gaussian, set for those that
        # cover pixels and clear for one behind the camera
        scene, h, _ = make_training_setup(rng, iterations=0)
        [hidden] = h.insert_batch(**params(mu=[0.0, -8.0, 0.5, 0.05], scale=[0.25] * 4))
        ws = h.query(0.05)
        _, _, grads = rn.render_with_gradients(h.materialize(ws), 0.05, scene.cameras[0],
                                               scene.target(0, 1))
        assert grads.touched.dtype == bool and len(grads.touched) == len(ws.gaussian_ids)
        assert grads.touched.tolist() == [gid != hidden for gid in ws.gaussian_ids]

    def test_tiny_scale_grows_at_every_step(self, monkeypatch):
        # a 1e-6 splat against a wide target: every step widens each spatial
        # axis by about the scale rate, relative to the scale
        cam = ring_camera()
        blob = dict(mu=[0.0, 0.0, 0.0, 0.05], opacity=0.85, base_color=[0.9, 0.3, 0.2])
        from test_renderer import batch_of
        wide = batch_of([params(scale=[0.2, 0.2, 0.2, 0.6], **blob)])
        scene = StaticScene([cam], 1, 30.0,
                            {(0, 0): rn.render_batch(wide, 0.0, cam).rgb})
        h = build(duration=1.0)
        [gid] = h.insert_batch(**params(scale=[1e-6] * 3 + [0.6], **blob))
        [row] = h.store.rows_of([gid])
        scales = [h.store.scale[row, :3].copy()]
        update_levels = h.update_levels   # runs once per step, after the write

        def recording(gids):
            scales.append(h.store.scale[row, :3].copy())
            return update_levels(gids)
        monkeypatch.setattr(h, "update_levels", recording)
        opt.train(scene, h, opt.TrainConfig(iterations=20))
        factors = np.array(scales[1:]) / scales[:-1]
        assert factors.shape == (20, 3)
        assert np.all(factors > 1.0)
        assert np.all(np.log(factors) < 2.0 * opt.LEARNING_RATES["scale"])

    def test_non_finite_target_changes_nothing(self, rng):
        scene, h, cfg = make_training_setup(rng, iterations=10)
        for image in scene._images.values():
            image[3, 5, 1] = np.nan
        before = store_columns(h.store)
        with pytest.raises(InvalidParameterError):
            opt.train(scene, h, cfg)
        after = store_columns(h.store)
        for name, column in before.items():
            assert after[name] == column, name

    @pytest.mark.parametrize("frame_rate", [np.inf, 0.0, -30.0, np.nan])
    def test_bad_frame_rate_rejected(self, rng, frame_rate):
        # an infinite rate would train every step at t = 0, a zero one divide by zero
        scene, h, cfg = make_training_setup(rng, iterations=10)
        scene.frame_rate = frame_rate
        before = store_columns(h.store)
        held = set(vars(h.store))
        with pytest.raises(InvalidParameterError):
            opt.train(scene, h, cfg)
        assert set(vars(h.store)) == held
        after = store_columns(h.store)
        for name, column in before.items():
            assert after[name] == column, name

    @pytest.mark.parametrize("frames", [6, 2.5, -1, np.float64(3.0), True])
    def test_bad_frame_count_rejected(self, rng, frames):
        # the clip is 4/30 s: frame 5 would fall at 5/30 s, after it, and
        # fail mid-run once training had moved the Gaussians
        scene, h, cfg = make_training_setup(rng, iterations=10, seed=1)
        scene._images.update({(0, f): scene._images[(0, 3)] for f in (4, 5)})
        scene.frames = frames
        before = store_columns(h.store)
        held = set(vars(h.store))
        with pytest.raises((InvalidParameterError, OutOfRangeError)):
            opt.train(scene, h, cfg)
        assert set(vars(h.store)) == held
        after = store_columns(h.store)
        for name, column in before.items():
            assert after[name] == column, name

    def test_numpy_frame_count_accepted(self, rng):
        # with 5 frames the last one falls exactly at the end of the clip
        scene, h, cfg = make_training_setup(rng, iterations=10)
        scene._images[(0, 4)] = scene._images[(0, 3)]
        scene.frames = np.int64(5)
        assert len(opt.train(scene, h, cfg).metrics) == 1

    def test_empty_scene_rejected(self, rng):
        scene, h, cfg = make_training_setup(rng, iterations=10)
        scene.frames = 0
        with pytest.raises(InvalidParameterError):
            opt.train(scene, h, cfg)
        # a target of the wrong shape raises at the first loss, and the
        # training state is detached all the same
        scene.frames = 4
        scene._images = {key: image[:-1] for key, image in scene._images.items()}
        held = set(vars(h.store))
        with pytest.raises(InvalidParameterError):
            opt.train(scene, h, cfg)
        assert set(vars(h.store)) == held


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (5.0, -3.0, 2.0), (-40.0, 12.0, 7.0)])
@pytest.mark.parametrize("radius", [0.25, 3.5, 10.0])
def test_camera_extent_of_a_ring_is_its_radius_times_1_1(center, radius):
    angles = 0.3 + np.arange(4) * np.pi / 2
    cameras = [ring_camera(position=np.add(center, [radius * np.cos(a), radius * np.sin(a), 0.5]),
                           target=center) for a in angles]
    assert abs(opt.camera_extent(cameras) - 1.1 * radius) <= 1e-12 * 1.1 * radius


def test_cameras_at_one_centre_have_extent_one():
    # each rotation rounds the centre differently, and the mean of 0.1 is not 0.1
    position = (0.1, 0.2, 0.3)
    cameras = [ring_camera(position=position, target=target)
               for target in ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 2.0, -1.0))]
    assert opt.camera_extent(cameras) == 1.0
    assert opt.camera_extent(cameras[:1] * 3) == 1.0


@pytest.mark.parametrize("setting", [
    dict(iterations=-3), dict(max_gaussians=-5), dict(densify_interval=0),
    dict(iterations=2.0), dict(densify_interval=0.5), dict(max_gaussians=1.5),
    dict(seed=-1), dict(seed=0.5), dict(iterations=True), dict(densify_interval=True),
    dict(max_gaussians=False)],
    ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()))
def test_invalid_train_config_rejected(setting):
    with pytest.raises(InvalidParameterError):
        opt.TrainConfig(**{"iterations": 5, **setting})


def test_train_config_accepts_numpy_integers():
    cfg = opt.TrainConfig(iterations=np.int64(3), densify_interval=np.int32(2),
                          max_gaussians=np.uint16(9), seed=np.int64(7))
    assert cfg.iterations == 3


def test_metric_rows_compare_deterministic_columns():
    row = opt.MetricRow(iteration=100, loss=2e-4, psnr=40.0, num_gaussians=4,
                        working_set_size=2)
    assert row != dataclasses.replace(row, loss=3e-4)
    assert row["loss"] == 2e-4
    with pytest.raises(KeyError):
        row["missing"]
