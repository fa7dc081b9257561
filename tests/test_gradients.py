"""Central finite-difference validation of the analytic backward pass."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tgh import losses
from tgh import renderer as rn
from tgh.camera import Camera
from tgh.losses import loss as image_loss

from conftest import grad_columns, params
from test_renderer import batch_of

REL_TOL = 1e-4
ABS_TOL = 1e-7

PARAM_GROUPS = ("mu", "scale", "rotor_left", "rotor_right",
                "opacity", "base_color", "sh_residual")


def grad_camera(size=8, fx=12.0):
    return Camera(fx=fx, fy=fx, cx=size / 2.0 + 0.25, cy=size / 2.0 - 0.3,
                  rotation=np.eye(3), translation=np.zeros(3),
                  width=size, height=size, near=0.1, far=100.0)


def grad_scene(rng, n=1):
    """Gaussians positioned so no fragment sits on a clamp or rect boundary."""
    gaussians = []
    for _ in range(n):
        g = params(
            mu=np.concatenate([rng.uniform(-0.6, 0.6, 2), [rng.uniform(4.0, 6.0)],
                               [rng.uniform(0.9, 1.1)]]),
            scale=np.concatenate([rng.uniform(0.25, 0.7, 3), [rng.uniform(0.2, 0.5)]]),
            rotor_left=np.array([1.0, *rng.normal(scale=0.08, size=3)]),
            rotor_right=np.array([1.0, *rng.normal(scale=0.08, size=3)]),
            opacity=rng.uniform(0.3, 0.7),
            base_color=rng.uniform(0.25, 0.75, 3),
            sh_residual=rng.normal(scale=0.04, size=45))
        gaussians.append(g)
    return batch_of(gaussians)


def column(batch, group):
    """A group's values in `batch`, one row per Gaussian, as a view: every
    Gaussian of `grad_scene` holds a slot, so the SH block is one."""
    if group == "sh_residual":
        assert np.array_equal(batch.held, np.arange(len(batch)))
        return batch.sh
    return getattr(batch, group)


def grad_settings(patch, mse=1.0, ssim=0.0):
    """Set the loss weights and the renderer constants the checks run on."""
    patch.setattr(losses, "MSE_WEIGHT", mse)
    patch.setattr(losses, "SSIM_WEIGHT", ssim)
    patch.setattr(rn, "BACKGROUND", np.array([0.15, 0.1, 0.2]))
    # tiny ALPHA_MIN keeps every quad spanning the full 8x8 frame, away from
    # rectangle-boundary subgradient kinks
    patch.setattr(rn, "ALPHA_MIN", 1e-6)


def scalar_loss(batch, t, cam, target):
    fb = rn.render_batch(batch, t, cam)
    value, _ = image_loss(fb.rgb, target)
    return value


def check_group(batch, grads, group, t, cam, target, step=1e-4, entries=None):
    """Central differences against the analytic gradient, at every entry of
    the group or at the given index tuples."""
    analytic = grad_columns(grads)[group]
    arr = column(batch, group)
    worst = 0.0
    for idx in np.ndindex(arr.shape) if entries is None else entries:
        orig = arr[idx]
        arr[idx] = orig + step
        up = scalar_loss(batch, t, cam, target)
        arr[idx] = orig - step
        down = scalar_loss(batch, t, cam, target)
        arr[idx] = orig
        fd = (up - down) / (2 * step)
        err = abs(analytic[idx] - fd)
        tol = max(ABS_TOL, REL_TOL * abs(fd))
        assert err <= tol, (f"{group}[{idx}]: analytic={analytic[idx]:.8e} "
                            f"fd={fd:.8e} err={err:.2e}")
        worst = max(worst, err / max(abs(fd), ABS_TOL))
    return worst


@pytest.mark.parametrize("n_gaussians", [1, 3])
def test_mse_gradients_match_finite_differences(n_gaussians, monkeypatch):
    rng = np.random.default_rng(7 + n_gaussians)
    cam = grad_camera()
    batch = grad_scene(rng, n_gaussians)
    t = 1.02
    target = rng.uniform(0.1, 0.9, size=(cam.height, cam.width, 3))
    grad_settings(monkeypatch, mse=1.0, ssim=0.0)
    _, fb, grads = rn.render_with_gradients(batch, t, cam, target)
    assert fb.rgb.max() > 0.2  # scene actually covers pixels
    for group in PARAM_GROUPS:
        check_group(batch, grads, group, t, cam, target)


def test_full_loss_gradients_with_ssim(monkeypatch):
    rng = np.random.default_rng(41)
    cam = grad_camera(size=16, fx=24.0)
    batch = grad_scene(rng, 2)
    t = 0.98
    target = rng.uniform(0.2, 0.8, size=(16, 16, 3))
    grad_settings(monkeypatch, mse=0.8, ssim=0.2)
    _, _, grads = rn.render_with_gradients(batch, t, cam, target)
    for group in PARAM_GROUPS:
        check_group(batch, grads, group, t, cam, target)


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(30658299993794673493844998945893611219080768901232019407122433544031301034677996884340596411612120336536750612160582)
@settings(max_examples=8)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), size=st.sampled_from([16, 24]))
# at a hard level-set cut this draw differenced across a rectangle edge
@example(seed=1833167, n=3, size=16)
def test_random_scene_gradients_match_finite_differences(seed, n, size):
    """Both loss terms on a random small scene; four random entries of every
    parameter group (all of a smaller one) against central differences."""
    rng = np.random.default_rng(seed)
    cam = grad_camera(size=size, fx=1.5 * size)
    batch = grad_scene(rng, n)
    t = rng.uniform(0.95, 1.05)
    target = rng.uniform(0.1, 0.9, size=(size, size, 3))
    with pytest.MonkeyPatch.context() as patch:
        grad_settings(patch, mse=0.8, ssim=0.2)
        _, _, grads = rn.render_with_gradients(batch, t, cam, target)
        for group in PARAM_GROUPS:
            shape = column(batch, group).shape
            picks = rng.choice(np.prod(shape), size=min(4, np.prod(shape)), replace=False)
            check_group(batch, grads, group, t, cam, target,
                        entries=zip(*np.unravel_index(picks, shape)))


def test_identical_images_zero_gradients(monkeypatch):
    rng = np.random.default_rng(3)
    cam = grad_camera()
    batch = grad_scene(rng, 1)
    grad_settings(monkeypatch, mse=1.0, ssim=0.0)
    fb = rn.render_batch(batch, 1.0, cam)
    value, _, grads = rn.render_with_gradients(batch, 1.0, cam, fb.rgb)
    assert value == 0.0
    for group in PARAM_GROUPS:
        assert np.all(grad_columns(grads)[group] == 0.0), group


def test_opacity_gradient_sign(monkeypatch):
    # target brighter than the render at the splat: raising opacity must
    # lower the loss, so dL/dopacity < 0
    rng = np.random.default_rng(11)
    cam = grad_camera()
    batch = grad_scene(rng, 1)
    batch.base_color[:] = 0.9
    batch.opacity[:] = 0.4
    target = np.ones((8, 8, 3))
    grad_settings(monkeypatch, mse=1.0, ssim=0.0)
    _, _, grads = rn.render_with_gradients(batch, 1.0, cam, target)
    assert grads.opacity[0] < 0.0


def test_offscreen_splat_zero_gradients(monkeypatch):
    rng = np.random.default_rng(5)
    batch = grad_scene(rng, 1)
    batch.mu[0, :2] = 50.0  # projects far outside the 8x8 frame
    cam = grad_camera()
    target = rng.uniform(size=(8, 8, 3))
    grad_settings(monkeypatch, mse=1.0, ssim=0.0)
    _, _, grads = rn.render_with_gradients(batch, 1.0, cam, target)
    assert not grads.touched[0]
    for group in PARAM_GROUPS:
        assert np.all(grad_columns(grads)[group] == 0.0), group

