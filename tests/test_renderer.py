import math

import numpy as np
import pytest

from tgh import gaussians as ga
from tgh import renderer as rn
from tgh import sh
from tgh.camera import Camera, look_at
from tgh.errors import InvalidParameterError, OutOfRangeError
from tgh.hierarchy import build
from tgh.store import COLUMNS

from conftest import batch_of_columns, columns_of, grad_columns, params, random_params, stack


def simple_camera(width=64, height=64, fx=100.0, cx=None, cy=None):
    return Camera(fx=fx, fy=fx, cx=width / 2.0 if cx is None else cx,
                  cy=height / 2.0 if cy is None else cy,
                  rotation=np.eye(3), translation=np.zeros(3),
                  width=width, height=height, near=0.1, far=100.0)


def batch_of(gaussians):
    """A batch of the given parameter dicts, with ids 0, 1, ..."""
    return batch_of_columns(stack(gaussians))


def rotated_camera(width=24, height=24):
    """Off-axis look_at camera with an off-center principal point and unequal
    focal lengths, aimed at the scene of `test_matches_reference_loop`."""
    rotation, translation = look_at([2.0, -1.5, 1.0], [0.0, 0.0, 6.0])
    return Camera(fx=40.0, fy=34.0, cx=10.3, cy=13.6, rotation=rotation,
                  translation=translation, width=width, height=height,
                  near=0.1, far=100.0)


def reference_render(batch, t, cam):
    """Independent per-splat projection and per-pixel back-to-front
    over-compositing loop: each splat's Jacobian, screen covariance and
    level-set rectangle are computed here, one splat at a time. Every pixel
    of the rectangle is blended with the fragment alpha
    min(max(2 (raw - ALPHA_MIN), 0), raw, ALPHA_CLAMP), so a pixel that the
    renderer's row spans leave out must blend with alpha 0 here, up to the
    comparison's tolerance."""
    img = np.empty((cam.height, cam.width, 3))
    img[:] = rn.BACKGROUND
    cov = ga.build_covariance(batch.scale, batch.rotor_left, batch.rotor_right).cov
    cond = ga.condition_at_time(batch.mu, cov, t)
    mean3, cov3, w_t = cond.mean3, cond.cov3, cond.w_t
    splats = []
    for i in range(len(batch)):
        x, y, z = cam.rotation @ mean3[i] + cam.translation
        alpha = float(batch.opacity[i] * w_t[i])
        if (w_t[i] < ga.TEMPORAL_THRESHOLD or not cam.near <= z <= cam.far
                or alpha < rn.ALPHA_MIN):
            continue
        center2 = np.array([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy])
        J = np.array([[cam.fx / z, 0.0, -cam.fx * x / (z * z)],
                      [0.0, cam.fy / z, -cam.fy * y / (z * z)]])
        K = J @ cam.rotation
        cov2 = K @ cov3[i] @ K.T + rn.COV2_LOWPASS * np.eye(2)
        view_dir = (mean3[i] - cam.center) / np.linalg.norm(mean3[i] - cam.center)
        residual = sh.eval_basis(view_dir) @ columns_of(batch)["sh_residual"][i].reshape(-1, 3)
        color = np.clip(batch.base_color[i] + residual, 0.0, 1.0)
        splats.append((-z, int(batch.ids[i]), center2, cov2, alpha, color))
    for _, _, center2, cov2, alpha, color in sorted(splats, key=lambda s: s[:2]):
        # back to front; the rectangle bounds alpha * exp(-q / 2) >= ALPHA_MIN
        half = np.sqrt(2.0 * math.log(alpha / rn.ALPHA_MIN) * np.diag(cov2))
        x0 = max(math.ceil(center2[0] - half[0] - 0.5), 0)
        x1 = min(math.floor(center2[0] + half[0] - 0.5), cam.width - 1)
        y0 = max(math.ceil(center2[1] - half[1] - 0.5), 0)
        y1 = min(math.floor(center2[1] + half[1] - 0.5), cam.height - 1)
        conic = np.linalg.inv(cov2)
        for r in range(y0, y1 + 1):
            for c in range(x0, x1 + 1):
                d = np.array([c + 0.5, r + 0.5]) - center2
                raw = alpha * math.exp(-0.5 * d @ conic @ d)
                a = min(max(2.0 * (raw - rn.ALPHA_MIN), 0.0), raw, rn.ALPHA_CLAMP)
                img[r, c] = a * color + (1 - a) * img[r, c]
    return img


class TestProject:
    def test_on_axis_reference(self):
        cam = simple_camera()
        center2, k_mat, cov2 = rn.project(np.array([[0.0, 0.0, 10.0]]), np.eye(3)[None], cam)
        assert np.allclose(center2, [[32.0, 32.0]])
        assert np.allclose(cov2, np.diag([100.3, 100.3]), atol=1e-9)
        # the rotation is the identity, so k_mat is the perspective Jacobian
        assert np.array_equal(k_mat, [[[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]]])

    def test_behind_camera_culled(self):
        cam = simple_camera()
        g = params(mu=[0.0, 0.0, -5.0, 1.0], scale=[1.0, 1.0, 1.0, 0.2],
                   opacity=0.5, base_color=[1.0, 1.0, 1.0])
        fb = rn.render_batch(batch_of([g]), 1.0, cam)
        assert np.all(fb.transmittance == 1.0) and np.all(fb.rgb == 0.0)

    def test_cov_scaling_bilinear(self, rng):
        cam = simple_camera()
        base = rng.normal(size=(3, 3))
        cov3 = base @ base.T + 0.1 * np.eye(3)
        mean = np.array([[0.5, -0.3, 8.0]])
        cov2_1 = rn.project(mean, cov3[None], cam)[2][0]
        cov2_4 = rn.project(mean, 4.0 * cov3[None], cam)[2][0]
        assert np.allclose(cov2_4 - 0.3 * np.eye(2),
                           4.0 * (cov2_1 - 0.3 * np.eye(2)), rtol=1e-12)


class TestDepthSort:
    def test_reference_order(self):
        order = rn.depth_sort([1.0, 3.0, 2.0], ids=[0, 1, 2])
        assert list(order) == [1, 2, 0]

    def test_ties_by_id(self):
        order = rn.depth_sort([2.0, 2.0, 2.0], ids=[30, 10, 20])
        assert list(order) == [1, 2, 0]

    def test_large_random_matches_sorted(self, rng):
        # integer depths, so many keys tie and the id tiebreak is exercised
        depths = rng.integers(0, 1000, size=100_000)
        ids = rng.permutation(len(depths))
        order = rn.depth_sort(depths, ids)
        ref = sorted(range(len(depths)), key=lambda i: (-depths[i], ids[i]))
        assert np.array_equal(order, ref)


class TestFragmentBounds:
    def bounds(self, cov2, alpha, size=64):
        """(x0, x1, y0, y1), the inclusive bounding box of the fragments of
        one splat centered at (20, 20) in a size x size frame, or None if it
        has none."""
        cov2 = np.asarray(cov2, float)[None]
        inv = np.linalg.inv(cov2)
        conic = np.stack([inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 1]], axis=1)
        _, col, row, *_ = rn._build_fragments(np.array([[20.0, 20.0]]), conic, cov2[:, 1, 1],
                                              np.array([alpha]), np.array([0]), size, size)
        if len(col) == 0:
            return None
        return int(col.min()), int(col.max()), int(row.min()), int(row.max())

    def test_half_extents_reference(self, monkeypatch):
        # level 2 ln(1 / e^-2) = 4, so half-extents sqrt(4 * 4) = 4 and
        # sqrt(4 * 1) = 2: pixel centers c + 0.5 in [16, 24] x [18, 22]
        monkeypatch.setattr(rn, "ALPHA_MIN", math.exp(-2.0))
        assert self.bounds(np.diag([4.0, 1.0]), 1.0) == (16, 23, 18, 21)
        # clipped to a 20 x 20 frame; a 10 x 10 frame misses it
        assert self.bounds(np.diag([4.0, 1.0]), 1.0, size=20) == (16, 19, 18, 19)
        assert self.bounds(np.diag([4.0, 1.0]), 1.0, size=10) is None

    def test_dim_splat_empty(self):
        # peak alpha 0.001 < ALPHA_MIN = 1/255: the splat is culled before
        # it gets a rectangle, so it covers no pixel
        g = params(mu=[0.0, 0.0, 5.0, 1.0], scale=[0.1, 0.1, 0.1, 0.2],
                   opacity=0.001, base_color=[1.0, 1.0, 1.0])
        fb = rn.render_batch(batch_of([g]), 1.0, simple_camera())
        assert np.all(fb.transmittance == 1.0)

    def test_isotropic_square(self):
        x0, x1, y0, y1 = self.bounds(np.eye(2) * 2.5, 0.9)
        assert x1 - x0 == y1 - y0 > 0


class TestComposite:
    # principal point on the center of pixel (2, 2) of a 5x5 frame
    cam = simple_camera(width=5, height=5, cx=2.5, cy=2.5)

    def huge_gaussian(self, color, opacity, z):
        """On the optical axis, wide enough to cover the whole frame."""
        return params(mu=[0.0, 0.0, z, 1.0], scale=[50.0, 50.0, 50.0, 0.2],
                      opacity=opacity, base_color=color)

    def test_over_operator_reference(self):
        back = self.huge_gaussian([0, 1, 0], 0.5, z=10.0)
        front = self.huge_gaussian([1, 0, 0], 0.5, z=5.0)
        fb = rn.render_batch(batch_of([back, front]), 1.0, self.cam)
        assert np.allclose(fb.rgb[2, 2], [0.5, 0.25, 0.0], atol=1e-9)

    def test_zero_alpha_leaves_background(self, monkeypatch):
        bg = np.array([0.2, 0.4, 0.6])
        monkeypatch.setattr(rn, "BACKGROUND", bg)
        batch = batch_of([self.huge_gaussian([1, 1, 1], 0.0, z=z) for z in (3.0, 7.0)])
        fb = rn.render_batch(batch, 1.0, self.cam)
        assert np.allclose(fb.rgb, bg)
        assert np.all(fb.transmittance == 1.0)


def test_alpha_slope_is_the_branch_frag_alpha_takes(rng):
    """`_alpha_slope` reads the branch of `_frag_alpha` from raw alone. It
    equals the slope of the branch taken, also at the floating-point values
    next to each edge, and scales a gradient to the same bits."""
    near = []
    for edge in (rn.ALPHA_MIN, 2.0 * rn.ALPHA_MIN, rn.ALPHA_CLAMP):
        for direction in (0.0, 2.0):
            value = edge
            for _ in range(8):
                value = np.nextafter(value, direction)
                near.append(value)
            near.append(edge)
    raw = np.concatenate([near, [0.0, rn.ALPHA_MIN / 2.0, 1.0],
                          rng.uniform(0.0, 1.2, 10_000),
                          rng.uniform(rn.ALPHA_MIN / 2.0, 3.0 * rn.ALPHA_MIN, 10_000)])
    alpha = rn._frag_alpha(raw)
    expected = np.where(alpha < raw, 2.0, 1.0) * ((alpha > 0.0) & (alpha < rn.ALPHA_CLAMP))
    slope = rn._alpha_slope(raw)
    assert np.array_equal(slope, expected)
    assert set(np.unique(slope).tolist()) == {0, 1, 2}
    grad = rng.normal(size=len(raw))
    assert np.array_equal((grad * slope).view(np.int64), (grad * expected).view(np.int64))


def single_gaussian_scene(opacity=0.8, color=(1.0, 1.0, 1.0), z=5.0, t_mu=1.0):
    return batch_of([params(mu=[0.0, 0.0, z, t_mu], scale=[0.05, 0.05, 0.05, 0.2],
                            opacity=opacity, base_color=color)])


class TestRender:
    def test_empty_hierarchy_background(self, monkeypatch):
        h = build(duration=10.0)
        cam = simple_camera()
        monkeypatch.setattr(rn, "BACKGROUND", np.array([0.1, 0.2, 0.3]))
        fb = rn.render(h, 3.0, cam)
        assert np.allclose(fb.rgb, [0.1, 0.2, 0.3])

    def test_peak_alpha_at_principal_point(self):
        # principal point at the center of pixel (32, 32)
        cam = simple_camera(cx=32.5, cy=32.5)
        batch = single_gaussian_scene(opacity=0.8)
        fb = rn.render_batch(batch, 1.0, cam)
        assert fb.rgb[32, 32, 0] == pytest.approx(0.8, abs=1e-9)
        assert fb.rgb.max() == pytest.approx(0.8, abs=1e-9)

    def test_temporal_cull_removes_splat(self):
        cam = simple_camera()
        batch = single_gaussian_scene()
        r = ga.influence_radius(0.2 ** 2)
        inside = rn.render_batch(batch, 1.0, cam)
        outside = rn.render_batch(batch, 1.0 + 1.1 * float(r), cam)
        assert inside.rgb.max() > 0.5
        assert np.allclose(outside.rgb, 0.0)

    @pytest.mark.parametrize("cam", [simple_camera(width=24, height=24, fx=40.0),
                                     rotated_camera()], ids=["identity", "look_at"])
    def test_matches_reference_loop(self, rng, cam, monkeypatch):
        gaussians = []
        for _ in range(6):
            g = random_params(rng, t_center_range=(0.9, 1.1))
            g["mu"][0, :3] = rng.uniform(-0.6, 0.6, size=3) + np.array([0, 0, 6.0])
            g["scale"][0, :3] = rng.uniform(0.05, 0.4, size=3)
            gaussians.append(g)
        batch = batch_of(gaussians)
        monkeypatch.setattr(rn, "BACKGROUND", np.array([0.05, 0.1, 0.15]))
        fb = rn.render_batch(batch, 1.0, cam)
        ref = reference_render(batch, 1.0, cam)
        assert np.count_nonzero(fb.transmittance < 1.0) > 100
        assert np.max(np.abs(fb.rgb - ref)) < 1e-9

    def test_transmittance_bounds(self, rng):
        cam = simple_camera(width=32, height=32, fx=60.0)
        gaussians = []
        for _ in range(10):
            g = random_params(rng, t_center_range=(0.9, 1.1))
            g["mu"][0, :3] = rng.uniform(-0.5, 0.5, size=3) + np.array([0, 0, 5.0])
            gaussians.append(g)
        fb = rn.render_batch(batch_of(gaussians), 1.0, cam)
        assert np.all(fb.transmittance >= 0.0) and np.all(fb.transmittance <= 1.0)

    def test_energy_sanity_opaque_splat(self, monkeypatch):
        cam = simple_camera()
        g = params(mu=[0.0, 0.0, 1.0, 1.0], scale=[50.0, 50.0, 0.01, 0.2],
                   opacity=1.0, base_color=[0.3, 0.6, 0.9])
        monkeypatch.setattr(rn, "ALPHA_CLAMP", 1.0)
        fb = rn.render_batch(batch_of([g]), 1.0, cam)
        assert np.max(np.abs(fb.rgb - np.array([0.3, 0.6, 0.9]))) < 1e-3

    def test_out_of_range_time(self):
        h = build(duration=10.0)
        with pytest.raises(OutOfRangeError):
            rn.render(h, 11.0, simple_camera())

    def test_alpha_one_fragment_keeps_finite_gradients(self):
        # an opacity-1 splat centred on pixel (32, 32) at its temporal mean
        # reaches alpha exactly 1 there;
        # the backward pass divides the color behind a fragment by 1 - alpha,
        # so the clamp must stay below 1 for the splat behind to get finite
        # gradients
        assert 0.0 < rn.ALPHA_CLAMP < 1.0
        cam = simple_camera(cx=32.5, cy=32.5)
        front = params(mu=[0.0, 0.0, 5.0, 1.0], scale=[0.05, 0.05, 0.05, 0.2],
                       opacity=1.0, base_color=[0.9, 0.2, 0.1])
        behind = params(mu=[0.0, 0.0, 8.0, 1.0], scale=[0.1, 0.1, 0.1, 0.2],
                        opacity=0.7, base_color=[0.1, 0.5, 0.9])
        target = np.full((64, 64, 3), 0.5)
        _, fb, grads = rn.render_with_gradients(batch_of([front, behind]), 1.0, cam, target)
        # the front fragment at (32, 32) is clamped: 1 - ALPHA_CLAMP of the light passes
        assert 0.0 < fb.transmittance[32, 32] < 1.0 - rn.ALPHA_CLAMP
        assert grads.touched.all()
        for column in COLUMNS + ("viewspace_norm",):
            assert np.isfinite(grad_columns(grads)[column]).all(), column


@pytest.mark.parametrize("field, value", [
    ("fx", np.inf), ("fy", np.inf), ("cx", np.nan), ("cy", np.inf),
    ("rotation", np.full((3, 3), np.nan)), ("translation", [0.0, np.nan, 0.0]),
    ("width", np.nan), ("width", 8.5), ("height", 8.0), ("width", True), ("height", True)],
    ids=["fx", "fy", "cx", "cy", "rotation", "translation", "width", "width_fraction",
         "height_float", "width_bool", "height_bool"])
def test_invalid_camera_rejected(field, value):
    settings = dict(fx=100.0, fy=100.0, cx=32.0, cy=32.0, rotation=np.eye(3),
                    translation=np.zeros(3), width=64, height=64)
    settings[field] = value
    with pytest.raises(InvalidParameterError):
        Camera(**settings)


def test_camera_accepts_numpy_integer_size():
    cam = Camera(fx=10.0, fy=10.0, cx=4.0, cy=3.0, rotation=np.eye(3),
                 translation=[0.0, 0.0, 5.0], width=np.int64(8), height=np.int32(6))
    assert rn.render_batch(single_gaussian_scene(), 1.0, cam).rgb.shape == (6, 8, 3)


@pytest.mark.parametrize("column", COLUMNS)
def test_non_finite_parameters_raise(column):
    cam = simple_camera()
    batch = single_gaussian_scene()
    if column == "sh_residual":  # the row is diffuse: its SH is that of a zeroed slot
        batch.held, batch.sh = np.array([0]), np.zeros((1, sh.RESIDUAL_COEFFS))
    # row 0 of a batch of one
    values = (batch.sh if column == "sh_residual" else getattr(batch, column)).reshape(-1)
    for entry in (0, len(values) - 1):
        values[entry] = np.nan
        with pytest.raises(InvalidParameterError):
            rn.render_batch(batch, 1.0, cam)
        with pytest.raises(InvalidParameterError):
            rn.render_with_gradients(batch, 1.0, cam, np.zeros((64, 64, 3)))
        values[entry] = 1.0


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["render_batch", "render_with_gradients"])
def test_non_finite_timestamp_raises(entry, t):
    # such a t gives every splat a temporal weight of 0 or NaN, which would
    # cull them all and leave an empty frame with zero gradients
    cam = simple_camera()
    batch = single_gaussian_scene()
    extra = (np.zeros((64, 64, 3)),) if entry == "render_with_gradients" else ()
    assert (rn.render_batch(batch, 1.0, cam).transmittance < 1.0).any()
    with pytest.raises(InvalidParameterError):
        getattr(rn, entry)(batch, t, cam, *extra)
