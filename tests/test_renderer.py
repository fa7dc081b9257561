import math

import numpy as np
import pytest

from tgh import gaussians as ga
from tgh import renderer as rn
from tgh import sh
from tgh.camera import Camera, look_at
from tgh.errors import OutOfRangeError
from tgh.gaussians import ConditionedGaussian3D
from tgh.hierarchy import build
from tgh.store import GaussianBatch

from conftest import params, random_params, stack


def simple_camera(width=64, height=64, fx=100.0, cx=None, cy=None):
    return Camera(fx=fx, fy=fx, cx=width / 2.0 if cx is None else cx,
                  cy=height / 2.0 if cy is None else cy,
                  rotation=np.eye(3), translation=np.zeros(3),
                  width=width, height=height, near=0.1, far=100.0)


def batch_of(gaussians):
    """A batch of the given parameter dicts, with ids 0, 1, ..."""
    columns = stack(gaussians)
    return GaussianBatch(ids=np.arange(len(columns["mu"]), dtype=np.int64), **columns)


def reference_render(batch, t, cam, opts):
    """Independent per-pixel back-to-front over-compositing loop."""
    img = np.empty((cam.height, cam.width, 3))
    img[:] = opts.background
    splats = []
    cov = ga.batch_covariance(batch.mu, batch.scale, batch.rotor_left, batch.rotor_right)
    mean3, cov3, w_t = ga.batch_condition_at_time(batch.mu, cov, t)
    for i in range(len(batch)):
        if w_t[i] < opts.temporal_cutoff:
            continue
        cond = ConditionedGaussian3D(mean3=mean3[i], cov3=cov3[i],
                                     opacity_t=float(batch.opacity[i] * w_t[i]))
        view_dir = (mean3[i] - cam.center) / np.linalg.norm(mean3[i] - cam.center)
        color = np.clip(batch.base_color[i] + sh.eval_residual(batch.sh_residual[i], view_dir),
                        0.0, 1.0)
        s = rn.project(cond, cam, color=color, gid=int(batch.ids[i]))
        if s is None or s.alpha < opts.alpha_min:
            continue
        splats.append(s)
    order = rn.depth_sort([s.depth for s in splats], [s.gid for s in splats])
    for idx in order:  # back to front
        s = splats[idx]
        rect = rn.expand_quad(s, opts.alpha_min, cam.width, cam.height)
        if rect is None:
            continue
        conic = np.linalg.inv(s.cov2)
        for r in range(rect.y0, rect.y1 + 1):
            for c in range(rect.x0, rect.x1 + 1):
                d = np.array([c + 0.5, r + 0.5]) - s.center2
                a = min(s.alpha * math.exp(-0.5 * d @ conic @ d), opts.alpha_clamp)
                img[r, c] = a * s.color + (1 - a) * img[r, c]
    return img


class TestProject:
    def test_on_axis_reference(self):
        cam = simple_camera()
        cond = ConditionedGaussian3D(mean3=np.array([0.0, 0.0, 10.0]),
                                     cov3=np.eye(3), opacity_t=0.5)
        s = rn.project(cond, cam)
        assert np.allclose(s.center2, [32.0, 32.0])
        assert np.allclose(s.cov2, np.diag([100.3, 100.3]), atol=1e-9)
        assert s.depth == 10.0

    def test_behind_camera_culled(self):
        cam = simple_camera()
        cond = ConditionedGaussian3D(mean3=np.array([0.0, 0.0, -5.0]),
                                     cov3=np.eye(3), opacity_t=0.5)
        assert rn.project(cond, cam) is None

    def test_cov_scaling_bilinear(self, rng):
        cam = simple_camera()
        base = rng.normal(size=(3, 3))
        cov3 = base @ base.T + 0.1 * np.eye(3)
        mean = np.array([0.5, -0.3, 8.0])
        s1 = rn.project(ConditionedGaussian3D(mean, cov3, 0.5), cam)
        s4 = rn.project(ConditionedGaussian3D(mean, 4.0 * cov3, 0.5), cam)
        assert np.allclose(s4.cov2 - 0.3 * np.eye(2),
                           4.0 * (s1.cov2 - 0.3 * np.eye(2)), rtol=1e-12)


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


class TestExpandQuad:
    def make(self, cov2, alpha):
        return rn.Splat2D(center2=np.array([20.0, 20.0]), cov2=np.asarray(cov2, float),
                          depth=1.0, color=np.ones(3), alpha=alpha)

    def test_half_extents_reference(self):
        s = self.make(np.diag([4.0, 1.0]), 1.0)
        rect = rn.expand_quad(s, math.exp(-2.0))
        assert np.allclose(rect.half_extents, [4.0, 2.0], rtol=1e-12)

    def test_dim_splat_empty(self):
        s = self.make(np.eye(2), 0.001)
        assert rn.expand_quad(s, 1 / 255) is None

    def test_isotropic_square(self):
        s = self.make(np.eye(2) * 2.5, 0.9)
        rect = rn.expand_quad(s, 1 / 255)
        assert rect.half_extents[0] == rect.half_extents[1]
        assert rect.x1 - rect.x0 == rect.y1 - rect.y0


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
        fb = rn.render_batch(batch_of([back, front]), 1.0, self.cam, rn.RenderOptions())
        assert np.allclose(fb.rgb[2, 2], [0.5, 0.25, 0.0], atol=1e-9)

    def test_zero_alpha_leaves_background(self):
        bg = np.array([0.2, 0.4, 0.6])
        batch = batch_of([self.huge_gaussian([1, 1, 1], 0.0, z=z) for z in (3.0, 7.0)])
        fb = rn.render_batch(batch, 1.0, self.cam, rn.RenderOptions(background=bg))
        assert np.allclose(fb.rgb, bg)
        assert np.all(fb.transmittance == 1.0)


def single_gaussian_scene(opacity=0.8, color=(1.0, 1.0, 1.0), z=5.0, t_mu=1.0):
    return batch_of([params(mu=[0.0, 0.0, z, t_mu], scale=[0.05, 0.05, 0.05, 0.2],
                            opacity=opacity, base_color=color)])


class TestRender:
    def test_empty_hierarchy_background(self):
        h = build(duration=10.0)
        cam = simple_camera()
        opts = rn.RenderOptions(background=np.array([0.1, 0.2, 0.3]))
        fb = rn.render(h, 3.0, cam, opts)
        assert np.allclose(fb.rgb, [0.1, 0.2, 0.3])

    def test_peak_alpha_at_principal_point(self):
        # principal point at the center of pixel (32, 32)
        cam = simple_camera(cx=32.5, cy=32.5)
        batch = single_gaussian_scene(opacity=0.8)
        fb = rn.render_batch(batch, 1.0, cam, rn.RenderOptions())
        assert fb.rgb[32, 32, 0] == pytest.approx(0.8, abs=1e-9)
        assert fb.rgb.max() == pytest.approx(0.8, abs=1e-9)

    def test_temporal_cull_removes_splat(self):
        cam = simple_camera()
        batch = single_gaussian_scene()
        r = ga.influence_radius(0.2 ** 2, 0.05)
        inside = rn.render_batch(batch, 1.0, cam, rn.RenderOptions())
        outside = rn.render_batch(batch, 1.0 + 1.1 * float(r), cam, rn.RenderOptions())
        assert inside.rgb.max() > 0.5
        assert np.allclose(outside.rgb, 0.0)

    def test_matches_reference_loop(self, rng):
        cam = simple_camera(width=24, height=24, fx=40.0)
        gaussians = []
        for _ in range(6):
            g = random_params(rng, t_center_range=(0.9, 1.1))
            g["mu"][0, :3] = rng.uniform(-0.6, 0.6, size=3) + np.array([0, 0, 6.0])
            g["scale"][0, :3] = rng.uniform(0.05, 0.4, size=3)
            gaussians.append(g)
        batch = batch_of(gaussians)
        opts = rn.RenderOptions(background=np.array([0.05, 0.1, 0.15]))
        fb = rn.render_batch(batch, 1.0, cam, opts)
        ref = reference_render(batch, 1.0, cam, opts)
        assert np.max(np.abs(fb.rgb - ref)) < 1e-9

    def test_transmittance_bounds(self, rng):
        cam = simple_camera(width=32, height=32, fx=60.0)
        gaussians = []
        for _ in range(10):
            g = random_params(rng, t_center_range=(0.9, 1.1))
            g["mu"][0, :3] = rng.uniform(-0.5, 0.5, size=3) + np.array([0, 0, 5.0])
            gaussians.append(g)
        fb = rn.render_batch(batch_of(gaussians), 1.0, cam, rn.RenderOptions())
        assert np.all(fb.transmittance >= 0.0) and np.all(fb.transmittance <= 1.0)

    def test_energy_sanity_opaque_splat(self):
        cam = simple_camera()
        g = params(mu=[0.0, 0.0, 1.0, 1.0], scale=[50.0, 50.0, 0.01, 0.2],
                   opacity=1.0, base_color=[0.3, 0.6, 0.9])
        opts = rn.RenderOptions(alpha_clamp=1.0)
        fb = rn.render_batch(batch_of([g]), 1.0, cam, opts)
        assert np.max(np.abs(fb.rgb - np.array([0.3, 0.6, 0.9]))) < 1e-3

    def test_out_of_range_time(self):
        h = build(duration=10.0)
        with pytest.raises(OutOfRangeError):
            rn.render(h, 11.0, simple_camera(), rn.RenderOptions())

