import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tgh import losses
from tgh.errors import InvalidParameterError
from tgh.losses import C1, C2, KERNEL, PAD, WINDOW, loss, psnr


def kernel_ssim(img, ref):
    """Mean SSIM of two (H, W, C) images and its gradient as an image-shaped
    array, by the kernel `loss` runs: `_ssim_box` on the crops of the support
    box, the gradient zero outside it."""
    box = losses._support_box(img, ref)
    value, grad_box = losses._ssim_box(img[box], ref[box], img.shape)
    grad = np.zeros(img.shape)
    grad[box] = grad_box
    return value, grad


# The per-channel SSIM that `losses._ssim_box` replaced, kept verbatim as the
# reference: five forward and five adjoint filters per channel, one plane at a
# time, each a column pass then a row pass.


def _filt_valid(img):
    """Separable windowed mean, valid region only: (H, W) -> (H-10, W-10)."""
    out = sliding_window_view(img, WINDOW, axis=0) @ KERNEL
    return sliding_window_view(out, WINDOW, axis=1) @ KERNEL


def _filt_adjoint(grad):
    """Adjoint of _filt_valid (the window is symmetric): (H-10, W-10) -> (H, W)."""
    pad = WINDOW - 1
    padded = np.pad(grad, ((pad, pad), (pad, pad)))
    return _filt_valid(padded)


def ssim(img, ref, grad=False):
    """Mean SSIM over channels and the valid region.

    With grad=True also returns d(mean SSIM)/d(img) as an image-shaped array.
    """
    img = np.asarray(img, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if img.shape != ref.shape or img.ndim != 3:
        raise InvalidParameterError("images must share an (H, W, C) shape")
    h, w, channels = img.shape
    if h < WINDOW or w < WINDOW:
        raise InvalidParameterError(f"images must be at least {WINDOW}x{WINDOW} for SSIM")

    total = 0.0
    grad_img = np.zeros_like(img) if grad else None
    n_valid = (h - WINDOW + 1) * (w - WINDOW + 1)
    for ch in range(channels):
        x, y = img[..., ch], ref[..., ch]
        mu_x, mu_y = _filt_valid(x), _filt_valid(y)
        sxx = _filt_valid(x * x) - mu_x * mu_x
        syy = _filt_valid(y * y) - mu_y * mu_y
        sxy = _filt_valid(x * y) - mu_x * mu_y
        a1 = 2 * mu_x * mu_y + C1
        a2 = 2 * sxy + C2
        b1 = mu_x * mu_x + mu_y * mu_y + C1
        b2 = sxx + syy + C2
        s = (a1 * a2) / (b1 * b2)
        total += s.mean()
        if grad:
            scale = 1.0 / (n_valid * channels)
            ds_da1 = a2 / (b1 * b2)
            ds_da2 = a1 / (b1 * b2)
            ds_db1 = -s / b1
            ds_db2 = -s / b2
            g_mu = (ds_da1 * 2 * mu_y + ds_db1 * 2 * mu_x) * scale
            g_sx = ds_db2 * scale
            g_xy = ds_da2 * 2 * scale
            grad_img[..., ch] = (
                _filt_adjoint(g_mu)
                + 2 * x * _filt_adjoint(g_sx) - 2 * _filt_adjoint(g_sx * mu_x)
                + y * _filt_adjoint(g_xy) - _filt_adjoint(g_xy * mu_y)
            )
    mean_ssim = total / channels
    return (mean_ssim, grad_img) if grad else mean_ssim


ORACLE_SHAPES = [(256, 256, 3), (37, 53, 1), (20, 29, 4)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_matches_reference(rng, shape):
    img = rng.uniform(size=shape)
    ref = np.clip(img + rng.normal(scale=0.1, size=shape), 0.0, 1.0)
    value, grad = kernel_ssim(img, ref)
    want_value, want_grad = ssim(img, ref, grad=True)
    assert value == pytest.approx(want_value, rel=1e-12)
    # Folding the adjoints rounds differently. Both gradients lie within
    # ~2e-15 * max|g| of an extended-precision evaluation, so the bound scales
    # with max|g|: about 4e-19 at 256x256 (max|g| ~4e-5), 5e-17 at 20x29.
    np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-14 * np.abs(want_grad).max())
    planes = np.moveaxis(img, -1, 0)
    np.testing.assert_allclose(losses._filt_valid(planes),
                               np.stack([_filt_valid(p) for p in planes]), rtol=1e-13)


@pytest.mark.parametrize("view", [lambda a: a[:, ::-1], lambda a: a.swapaxes(0, 1),
                                  lambda a: a.astype(np.float32)],
                         ids=["reversed-columns", "swapped-axes", "float32"])
def test_layout_and_dtype_do_not_change_result(rng, view):
    img = view(rng.uniform(size=(23, 31, 3)))
    ref = view(rng.uniform(size=(23, 31, 3)))
    value, grad = kernel_ssim(img, ref)
    want_value, want_grad = kernel_ssim(np.ascontiguousarray(img, dtype=np.float64),
                                        np.ascontiguousarray(ref, dtype=np.float64))
    assert value == want_value
    assert np.array_equal(grad, want_grad)


def test_identical_images_perfect_ssim(rng):
    img = rng.uniform(size=(20, 20, 3))
    assert kernel_ssim(img, img)[0] == pytest.approx(1.0, abs=1e-12)


def test_ssim_decreases_with_noise(rng):
    img = rng.uniform(size=(24, 24, 3))
    noisy = np.clip(img + rng.normal(scale=0.2, size=img.shape), 0, 1)
    assert kernel_ssim(img, noisy)[0] < kernel_ssim(img, np.clip(img + 0.01, 0, 1))[0]


def test_filter_adjoint_identity(rng):
    # _ssim_box's gradient filters zero-padded planes as the adjoint of _filt_valid
    for lead in [(), (3,)]:
        x = rng.normal(size=lead + (19, 23))
        y = rng.normal(size=lead + (9, 13))
        padded = np.pad(y, [(0, 0)] * len(lead) + [(PAD, PAD)] * 2)
        lhs = np.sum(losses._filt_valid(x) * y, axis=(-2, -1))
        rhs = np.sum(x * losses._filt_valid(padded), axis=(-2, -1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_ssim_gradient_matches_finite_differences(rng):
    img = rng.uniform(0.2, 0.8, size=(13, 14, 3))
    ref = rng.uniform(0.2, 0.8, size=(13, 14, 3))
    _, grad = kernel_ssim(img, ref)
    eps = 1e-6
    for _ in range(40):
        i, j, c = (int(rng.integers(13)), int(rng.integers(14)), int(rng.integers(3)))
        up, down = img.copy(), img.copy()
        up[i, j, c] += eps
        down[i, j, c] -= eps
        fd = (kernel_ssim(up, ref)[0] - kernel_ssim(down, ref)[0]) / (2 * eps)
        assert grad[i, j, c] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_small_image_rejected(rng):
    img = rng.uniform(size=(8, 8, 3))
    with pytest.raises(InvalidParameterError):
        loss(img, img)


def test_zero_channels_rejected():
    img = np.zeros((12, 12, 0))
    with pytest.raises(InvalidParameterError):
        loss(img, img)


def weights(patch, mse, ssim):
    patch.setattr(losses, "MSE_WEIGHT", mse)
    patch.setattr(losses, "SSIM_WEIGHT", ssim)


class TestLoss:
    def test_identical_zero(self, rng):
        img = rng.uniform(size=(16, 16, 3))
        with pytest.MonkeyPatch.context() as patch:
            weights(patch, mse=0.8, ssim=0.0)
            value, grad = loss(img, img)
        assert value == 0.0
        assert np.all(grad == 0.0)
        # SSIM branch: analytically stationary at x == y, fp residue only
        value, grad = loss(img, img)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(grad)) < 1e-12

    def test_constant_offset_reference(self, monkeypatch):
        a = np.full((16, 16, 3), 0.5)
        b = np.full((16, 16, 3), 0.6)
        weights(monkeypatch, mse=0.8, ssim=0.0)
        value, _ = loss(a, b)
        assert value == pytest.approx(0.8 * 0.01, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng, monkeypatch):
        img = rng.uniform(0.2, 0.8, size=(12, 12, 3))
        ref = rng.uniform(0.2, 0.8, size=(12, 12, 3))
        weights(monkeypatch, mse=0.8, ssim=0.2)
        value, grad = loss(img, ref)
        eps = 1e-6
        for _ in range(40):
            i, j, c = (int(rng.integers(12)), int(rng.integers(12)), int(rng.integers(3)))
            up, down = img.copy(), img.copy()
            up[i, j, c] += eps
            down[i, j, c] -= eps
            fd = (loss(up, ref)[0] - loss(down, ref)[0]) / (2 * eps)
            assert grad[i, j, c] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidParameterError):
            loss(rng.uniform(size=(12, 12, 3)), rng.uniform(size=(12, 13, 3)))

    def test_not_hwc_rejected_without_ssim(self, rng, monkeypatch):
        # the support box, which the MSE term reads, is defined on (H, W, C)
        weights(monkeypatch, mse=0.8, ssim=0.0)
        with pytest.raises(InvalidParameterError):
            loss(rng.uniform(size=(12, 12)), rng.uniform(size=(12, 12)))

    # `loss` checks its pair itself before it crops both to one box

    def test_not_hwc_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            loss(rng.uniform(size=(12, 12)), rng.uniform(size=(12, 12)))

    @pytest.mark.parametrize("shape", [(10, 12, 3), (12, 10, 3), (8, 8, 1)])
    def test_small_image_rejected(self, rng, shape):
        with pytest.raises(InvalidParameterError):
            loss(rng.uniform(size=shape), rng.uniform(size=shape))

    @pytest.mark.parametrize("ssim_weight", [0.2, 0.0])
    def test_zero_channels_rejected(self, monkeypatch, ssim_weight):
        weights(monkeypatch, mse=0.8, ssim=ssim_weight)
        with pytest.raises(InvalidParameterError):
            loss(np.zeros((12, 12, 0)), np.zeros((12, 12, 0)))

    def test_small_image_accepted_without_ssim(self, rng, monkeypatch):
        weights(monkeypatch, mse=0.8, ssim=0.0)
        img, ref = rng.uniform(size=(4, 5, 3)), rng.uniform(size=(4, 5, 3))
        value, grad = loss(img, ref)
        assert value == pytest.approx(0.8 * np.mean((img - ref) ** 2), rel=1e-12)
        np.testing.assert_allclose(grad, 1.6 * (img - ref) / img.size, rtol=1e-12)

    def test_support_box_found_once(self, rng, monkeypatch):
        """One `loss` call finds the support box once, for both terms."""
        img, ref = bordered(rng, (64, 64, 3), slice(20, 41), slice(10, 51))
        calls = []
        box = losses._support_box

        def counting(*args):
            calls.append(args[0].shape)
            return box(*args)

        monkeypatch.setattr(losses, "_support_box", counting)
        loss(img, ref)
        assert calls == [(64, 64, 3)]


def test_psnr_reference():
    a = np.zeros((4, 4, 3))
    b = np.full((4, 4, 3), 0.1)
    assert psnr(a, b) == pytest.approx(20.0, rel=1e-9)
    assert psnr(a, a) == np.inf


def test_psnr_shape_mismatch():
    with pytest.raises(InvalidParameterError):
        psnr(np.zeros((4, 4, 3)), np.full((4, 4, 1), 0.1))


# Support box: `_ssim_box` and the MSE term of `loss` run on the rows and columns
# within PAD of a pixel where either image is non-zero, and must agree with
# the dense reference above everywhere.


def bordered(rng, shape, rows, cols, where="both"):
    """An (img, ref) pair, uniform inside rows x cols and zero outside it.
    `where` keeps the support in "both" images, in the "img" or "ref" only,
    or in "one-channel" of both."""
    img, ref = np.zeros(shape), np.zeros(shape)
    inside = (rows, cols, slice(None))
    img[inside] = rng.uniform(0.05, 1.0, size=img[inside].shape)
    ref[inside] = np.clip(img[inside] + rng.normal(scale=0.1, size=img[inside].shape), 0.05, 1.0)
    if where == "img":
        ref[:] = 0.0
    elif where == "ref":
        img[:] = 0.0
    elif where == "one-channel":
        img[..., 1:] = 0.0
        ref[..., 1:] = 0.0
    return img, ref


def outside(shape, rows, cols):
    """Mask of the pixels farther than PAD from rows x cols."""
    mask = np.ones(shape, dtype=bool)
    mask[max(rows.start - PAD, 0):rows.stop + PAD,
         max(cols.start - PAD, 0):cols.stop + PAD] = False
    return mask


def assert_matches_reference(img, ref):
    """`kernel_ssim` equals the dense reference: the value to rel 1e-12, the
    gradient on the scale of test_matches_reference."""
    value, grad = kernel_ssim(img, ref)
    want_value, want_grad = ssim(img, ref, grad=True)
    assert value == pytest.approx(want_value, rel=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-14 * np.abs(want_grad).max())
    return grad, want_grad


def side(data, n):
    """[start, stop) of one side of a box in 0..n: touching the low or the
    high border, narrower than a window, or anywhere."""
    kind = data.draw(st.sampled_from(["low", "high", "narrow", "any"]))
    if kind == "low":
        return slice(0, data.draw(st.integers(1, n)))
    if kind == "high":
        return slice(data.draw(st.integers(0, n - 1)), n)
    start = data.draw(st.integers(0, n - 1))
    longest = min(WINDOW - 1, n - start) if kind == "narrow" else n - start
    return slice(start, start + data.draw(st.integers(1, longest)))


@pytest.mark.parametrize("where", ["both", "img", "ref", "one-channel"])
@seed(81924466503197710248356231975524309918273645500172839405561728394051627384950617283940)
@settings(max_examples=25)
@given(h=st.integers(WINDOW, 64), w=st.integers(WINDOW, 64), channels=st.integers(1, 4),
       data=st.data())
def test_zero_bordered_images_match_reference(where, h, w, channels, data):
    """On images that are zero outside a box, the cropped SSIM equals the
    dense reference, and both gradients are exactly 0 farther than PAD from
    the box."""
    rows, cols = side(data, h), side(data, w)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    img, ref = bordered(rng, (h, w, channels), rows, cols, where)
    grad, want_grad = assert_matches_reference(img, ref)
    far = outside((h, w, channels), rows, cols)
    assert np.all(grad[far] == 0.0)
    assert np.all(want_grad[far] == 0.0)


def test_all_zero_images():
    img = np.zeros((20, 30, 3))
    value, grad = kernel_ssim(img, img)
    assert value == pytest.approx(ssim(img, img), rel=1e-12)
    assert value == pytest.approx(losses.S_EMPTY, rel=1e-15)
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)],
                         ids=["top-left", "top-right", "bottom-left", "bottom-right"])
def test_one_pixel_support_in_a_corner(corner):
    shape = (24, 27, 3)
    img, ref = np.zeros(shape), np.zeros(shape)
    img[corner + (1,)] = 0.7
    grad, want_grad = assert_matches_reference(img, ref)
    assert grad[corner + (1,)] != 0.0
    i, j = (n - 1 if k < 0 else 0 for k, n in zip(corner, shape))
    far = outside(shape, slice(i, i + 1), slice(j, j + 1))
    assert np.all(grad[far] == 0.0)


def test_loss_equals_dense_formula(rng):
    img, ref = bordered(rng, (40, 36, 3), slice(13, 25), slice(4, 19))
    value, grad = loss(img, ref)
    s, s_grad = ssim(img, ref, grad=True)
    diff = img - ref
    assert value == pytest.approx(
        losses.MSE_WEIGHT * np.mean(diff * diff) + losses.SSIM_WEIGHT * (1.0 - s), rel=1e-12)
    want = losses.MSE_WEIGHT * 2.0 * diff / diff.size - losses.SSIM_WEIGHT * s_grad
    np.testing.assert_allclose(grad, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_loss_gradient_matches_finite_differences_around_support(rng):
    """Central differences of loss() on a zero-bordered 32x32x3 pair: inside
    the support, in the PAD-wide margin where only the SSIM term moves, and
    farther out, where the gradient and the difference are both exactly 0."""
    img, ref = bordered(rng, (32, 32, 3), slice(11, 21), slice(11, 21))
    _, grad = loss(img, ref)
    eps = 1e-6

    def central(i, j, c):
        up, down = img.copy(), img.copy()
        up[i, j, c] += eps
        down[i, j, c] -= eps
        return (loss(up, ref)[0] - loss(down, ref)[0]) / (2 * eps)

    for i, j, c in [(11, 11, 0), (15, 17, 1), (20, 20, 2),   # support
                    (10, 15, 0), (1, 12, 1), (16, 21, 2), (25, 30, 0)]:  # 1 to 10 px out
        assert grad[i, j, c] != 0.0
        assert grad[i, j, c] == pytest.approx(central(i, j, c), rel=1e-5, abs=1e-10)
    for i, j, c in [(0, 0, 0), (31, 15, 1), (15, 31, 2), (0, 31, 0)]:  # 11 px or more out
        assert grad[i, j, c] == 0.0
        assert central(i, j, c) == 0.0


def test_ssim_filters_only_the_support_box(rng, monkeypatch):
    """Guards the saving itself: on a zero-bordered 256x256 pair every plane
    that reaches _filt_valid in `loss` spans the widened box, not the frame, and on an
    all-zero pair one window."""
    img, ref = bordered(rng, (256, 256, 3), slice(100, 141), slice(60, 201))
    seen = []
    filt = losses._filt_valid

    def recording(planes):
        seen.append(planes.shape)
        return filt(planes)

    monkeypatch.setattr(losses, "_filt_valid", recording)
    loss(img, ref)
    rows, cols = 140 + PAD - (100 - PAD) + 1, 200 + PAD - (60 - PAD) + 1
    assert seen == [(5, rows, cols), (3, cols + PAD, rows + PAD)] * 3
    seen.clear()
    loss(np.zeros_like(img), np.zeros_like(ref))
    assert seen == [(5, WINDOW, WINDOW), (3, WINDOW + PAD, WINDOW + PAD)] * 3
