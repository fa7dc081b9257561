"""Reconstruction objective: weighted MSE + SSIM terms with image gradients.

The weights are 3DGS's (arXiv 2308.04079), which mixes 0.8 of a pixel loss
with 0.2 of D-SSIM; here the pixel loss is the MSE. SSIM uses an 11x11
Gaussian window (sigma 1.5) on the valid interior region, with C1 = 0.01^2
and C2 = 0.03^2 for pixel values in [0, 1].

Support. Both terms run on the support box only (`_support_box`): the rows
and columns from PAD before the first pixel where either image is non-zero,
in any channel, to PAD after the last one, clipped to the frame. `loss`
finds it once and hands the same crops to the MSE and to `_ssim_box`.
Against the whole frame this is exact up to rounding, in value and
gradient:

- outside the box both images are zero, and so are the squared error and
  the MSE gradient; the mean still divides by the whole image's size;
- a valid window outside the box is all zero in both images, so its S is
  one constant, `S_EMPTY`: the same expressions on zero statistics. The
  value adds n_empty * S_EMPTY to the box's sum of S and divides by the
  whole image's window count, and the gradient's k uses that count too;
- the SSIM gradient is exactly zero outside the box: x = y = 0 there, and
  the folded term below is zero on every window whose mu_x and mu_y are
  both 0.

A pair with no zero border crops to itself, at the cost of the mask. With
no non-zero pixel at all the box is one window, and the gradient is all
zero. A black background and black target borders make the box smaller;
they never change the result.

SSIM cost. The windowed mean F is separable, and both of its 1-D passes
run the window down axis -2 (see `_filt_valid`): that pass is about 3x
cheaper than one whose window runs along axis -1, so the second pass runs
on a transposed copy. One call per channel filters the five planes x, y,
x*x, y*y, x*y as one stack.

SSIM gradient. With mu = F(x), sxx = F(x*x) - mu_x^2 and sxy = F(x*y) -
mu_x*mu_y, the chain rule through the three statistics gives, for the
adjoint A of F (the window is symmetric, so A(g) is F of g zero-padded by
10 on each side),

    dS/dx = A(g_mu) + 2x*A(g_sx) - 2A(g_sx*mu_x) + y*A(g_xy) - A(g_xy*mu_y),

and since A is linear the three terms without an image factor are one:

    dS/dx = 2x*A(g_sx) + y*A(g_xy) + A(g_mu - 2*g_sx*mu_x - g_xy*mu_y),

so each channel needs three adjoint planes, not five.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameterError

MSE_WEIGHT = 0.8
SSIM_WEIGHT = 0.2

WINDOW = 11
SIGMA = 1.5
C1 = 0.01 ** 2
C2 = 0.03 ** 2
PAD = WINDOW - 1


def _kernel():
    x = np.arange(WINDOW) - (WINDOW - 1) / 2.0
    k = np.exp(-0.5 * (x / SIGMA) ** 2)
    return k / k.sum()

KERNEL = _kernel()


def _image_pair(img, ref):
    """Both images as float64 arrays; their shapes must match exactly."""
    img = np.asarray(img, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if img.shape != ref.shape:
        raise InvalidParameterError(f"image shapes differ: {img.shape} vs {ref.shape}")
    return img, ref


def loss(rendered, target):
    """Objective value and its per-pixel gradient image of two (H, W, C)
    images.

    L = MSE_WEIGHT * mean((I - I_gt)^2) + SSIM_WEIGHT * (1 - SSIM(I, I_gt)),
    both terms read on one support box. SSIM is the mean over channels and
    valid windows; a zero SSIM_WEIGHT skips it, and with it the need for an
    image of at least WINDOW x WINDOW.
    """
    rendered, target = _image_pair(rendered, target)
    if rendered.ndim != 3 or rendered.shape[2] == 0:
        raise InvalidParameterError(
            f"images must have an (H, W, C) shape with C >= 1, got {rendered.shape}")
    if SSIM_WEIGHT != 0.0 and min(rendered.shape[:2]) < WINDOW:
        raise InvalidParameterError(f"images must be at least {WINDOW}x{WINDOW} for SSIM")
    box = _support_box(rendered, target)
    img, ref = rendered[box], target[box]
    diff = img - ref
    value = MSE_WEIGHT * (np.sum(diff * diff) / rendered.size)
    grad = np.zeros_like(rendered)
    grad_box = grad[box]
    np.multiply(MSE_WEIGHT * 2.0, diff, out=grad_box)
    grad_box /= rendered.size
    if SSIM_WEIGHT != 0.0:
        s, s_grad = _ssim_box(img, ref, rendered.shape)
        value += SSIM_WEIGHT * (1.0 - s)
        s_grad *= SSIM_WEIGHT
        grad_box -= s_grad
    return value, grad


def psnr(img, ref):
    """Peak signal-to-noise ratio in dB for a peak value of 1; inf for
    identical images."""
    img, ref = _image_pair(img, ref)
    mse = np.mean((img - ref) ** 2)
    if mse == 0.0:
        return np.inf
    return 10.0 * np.log10(1.0 / mse)


def _support_box(img, ref):
    """(rows, cols) slices of the support box of two (H, W, C) images: from
    PAD before the first row and column where `img` or `ref` is non-zero in
    any channel to PAD after the last, clipped to the frame. With no non-zero
    pixel it is the window at the origin. The stops may pass the end."""
    h, w, channels = img.shape
    # reduce rows over the contiguous (W*C) axis and columns down axis 0
    # first: 0.04 ms at 256x256x3 on one core of a 2-vCPU VM, against 1.4 ms
    # when a channel any() over the short last axis comes first
    m = (img != 0) | (ref != 0)
    box = []
    for nonzero in (m.reshape(h, w * channels).any(axis=1), m.any(axis=0).any(axis=1)):
        idx = np.flatnonzero(nonzero)
        first, last = (idx[0], idx[-1]) if idx.size else (0, 0)
        box.append(slice(max(first - PAD, 0), last + PAD + 1))
    return tuple(box)


def _filt_valid(img):
    """Separable windowed mean, valid region only: (..., H, W) -> (..., H-10, W-10).

    Both passes window axis -2, whose (W, 11) window matrix per output row
    has a unit stride along W, a layout matmul hands to BLAS; a window along
    axis -1 has unit strides on both axes and runs in numpy's own loop. On
    15 planes of 256x256 (one thread) the axis -2 pass took 3.3 ms against
    9.4 ms for the axis -1 pass, so the second pass runs on a transposed
    contiguous copy (2.5 ms) instead, and the result is a transposed view.
    """
    out = sliding_window_view(img, WINDOW, axis=-2) @ KERNEL
    out = np.ascontiguousarray(out.swapaxes(-1, -2))
    return (sliding_window_view(out, WINDOW, axis=-2) @ KERNEL).swapaxes(-1, -2)


def _similarity(mu_x, mu_y, exx, eyy, exy):
    """S per window from the windowed means, and the factors its gradient
    reads: (S, dS/da1, dS/da2, b1, b2)."""
    mxy = mu_x * mu_y
    a1 = 2.0 * mxy + C1
    a2 = 2.0 * (exy - mxy) + C2
    b1 = mu_x * mu_x + mu_y * mu_y + C1
    b2 = exx + eyy - b1 + (C1 + C2)  # sxx + syy + C2
    inv = 1.0 / (b1 * b2)
    q = a1 * inv
    return q * a2, a2 * inv, q, b1, b2

# S of a window that is all zero in both images (1 + 2.2e-16: b2 rounds)
S_EMPTY = _similarity(0.0, 0.0, 0.0, 0.0, 0.0)[0]


def _ssim_box(img, ref, shape):
    """Mean SSIM of two images of `shape`, (H, W, C), read on their support
    box: img and ref are the box crops (`_support_box`). Returns the mean
    SSIM of the whole images and its gradient on the box, (bh, bw, C)."""
    h, w, channels = shape
    bh, bw = img.shape[:2]
    windows = (h - PAD) * (w - PAD)
    empty = windows - (bh - PAD) * (bw - PAD)
    total = 0.0
    # d(mean SSIM)/d(statistic) carries 1/(windows * channels); k folds in the 2
    k = 2.0 / (windows * channels)
    grad_box = np.empty((bh, bw, channels))
    planes = np.empty((5, bh, bw))
    # adjoint inputs 2*g_sx, g_xy and the folded g_mu term inside a zero
    # border. The buffer is stored transposed, as _filt_valid's output is,
    # so the writes into it are contiguous; F weights both axes alike, so
    # filtering the stored (W, H) planes gives the transposed adjoint.
    adjoint = np.zeros((3, bw + PAD, bh + PAD))
    g_sx2, g_xy, g_rest = adjoint[:, PAD:-PAD, PAD:-PAD].swapaxes(-1, -2)
    for ch in range(channels):
        planes[0], planes[1] = img[..., ch], ref[..., ch]
        x, y = planes[0], planes[1]
        np.multiply(x, x, out=planes[2])
        np.multiply(y, y, out=planes[3])
        np.multiply(x, y, out=planes[4])
        stats = _filt_valid(planes)
        mu_x, mu_y = stats[:2]
        s, p, q, b1, b2 = _similarity(*stats)
        total += (s.sum() + empty * S_EMPTY) / windows
        # g_sx = -S/b2 * k/2, g_xy = q * k, g_mu = (mu_y*a2/(b1*b2) - mu_x*S/b1) * k
        s_b2 = s / b2
        np.multiply(s_b2, -k, out=g_sx2)
        np.multiply(q, k, out=g_xy)
        # g_mu - 2*g_sx*mu_x - g_xy*mu_y = (mu_y*(p - q) + mu_x*(S/b2 - S/b1)) * k
        np.multiply(mu_y * (p - q) + mu_x * (s_b2 - s / b1), k, out=g_rest)
        a_sx2, a_xy, a_rest = _filt_valid(adjoint).swapaxes(-1, -2)
        grad_box[..., ch] = x * a_sx2 + y * a_xy + a_rest
    return total / channels, grad_box
