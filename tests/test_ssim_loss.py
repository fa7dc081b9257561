import numpy as np
import pytest

from tgh import ssim as sm
from tgh.errors import InvalidParameterError
from tgh.losses import LossWeights, loss, psnr


def test_identical_images_perfect_ssim(rng):
    img = rng.uniform(size=(20, 20, 3))
    assert sm.ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_decreases_with_noise(rng):
    img = rng.uniform(size=(24, 24, 3))
    noisy = np.clip(img + rng.normal(scale=0.2, size=img.shape), 0, 1)
    assert sm.ssim(img, noisy) < sm.ssim(img, np.clip(img + 0.01, 0, 1))


def test_filter_adjoint_identity(rng):
    x = rng.normal(size=(19, 23))
    y = rng.normal(size=(9, 13))
    lhs = np.sum(sm._filt_valid(x) * y)
    rhs = np.sum(x * sm._filt_adjoint(y))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ssim_gradient_matches_finite_differences(rng):
    img = rng.uniform(0.2, 0.8, size=(13, 14, 3))
    ref = rng.uniform(0.2, 0.8, size=(13, 14, 3))
    _, grad = sm.ssim(img, ref, grad=True)
    eps = 1e-6
    for _ in range(40):
        i, j, c = (int(rng.integers(13)), int(rng.integers(14)), int(rng.integers(3)))
        up, down = img.copy(), img.copy()
        up[i, j, c] += eps
        down[i, j, c] -= eps
        fd = (sm.ssim(up, ref) - sm.ssim(down, ref)) / (2 * eps)
        assert grad[i, j, c] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_small_image_rejected(rng):
    img = rng.uniform(size=(8, 8, 3))
    with pytest.raises(InvalidParameterError):
        sm.ssim(img, img)


class TestLoss:
    def test_identical_zero(self, rng):
        img = rng.uniform(size=(16, 16, 3))
        value, grad = loss(img, img, LossWeights(mse=0.8, ssim=0.0))
        assert value == 0.0
        assert np.all(grad == 0.0)
        # SSIM branch: analytically stationary at x == y, fp residue only
        value, grad = loss(img, img)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(grad)) < 1e-12

    def test_constant_offset_reference(self):
        a = np.full((16, 16, 3), 0.5)
        b = np.full((16, 16, 3), 0.6)
        value, _ = loss(a, b, LossWeights(mse=0.8, ssim=0.0))
        assert value == pytest.approx(0.8 * 0.01, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        img = rng.uniform(0.2, 0.8, size=(12, 12, 3))
        ref = rng.uniform(0.2, 0.8, size=(12, 12, 3))
        weights = LossWeights(mse=0.8, ssim=0.2)
        value, grad = loss(img, ref, weights)
        eps = 1e-6
        for _ in range(40):
            i, j, c = (int(rng.integers(12)), int(rng.integers(12)), int(rng.integers(3)))
            up, down = img.copy(), img.copy()
            up[i, j, c] += eps
            down[i, j, c] -= eps
            fd = (loss(up, ref, weights)[0] - loss(down, ref, weights)[0]) / (2 * eps)
            assert grad[i, j, c] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidParameterError):
            loss(rng.uniform(size=(12, 12, 3)), rng.uniform(size=(12, 13, 3)))


def test_psnr_reference():
    a = np.zeros((4, 4, 3))
    b = np.full((4, 4, 3), 0.1)
    assert psnr(a, b) == pytest.approx(20.0, rel=1e-9)
    assert psnr(a, a) == np.inf


@pytest.mark.parametrize("setting", [
    dict(mse=np.nan), dict(ssim=np.inf), dict(mse=np.inf), dict(ssim=np.nan), dict(mse=-1.0)],
    ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()))
def test_invalid_loss_weights_rejected(setting):
    with pytest.raises(InvalidParameterError):
        LossWeights(**setting)
