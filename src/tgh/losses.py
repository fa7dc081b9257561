"""Reconstruction objective: weighted MSE + SSIM terms with image gradients.

The weights are 3DGS's (arXiv 2308.04079), which mixes 0.8 of a pixel loss
with 0.2 of D-SSIM; here the pixel loss is the MSE.
"""

import numpy as np

from .errors import InvalidParameterError
from .ssim import _check_shape, _ssim_box, _support_box

MSE_WEIGHT = 0.8
SSIM_WEIGHT = 0.2


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

    L = MSE_WEIGHT * mean((I - I_gt)^2) + SSIM_WEIGHT * (1 - SSIM(I, I_gt)).
    A zero SSIM_WEIGHT skips the SSIM term, which needs an 11x11 image.
    Both terms read one support box (`ssim._support_box`), found once: outside
    it both images are zero, and so are the squared error, the gradients of
    both terms and every window's SSIM but for a constant. The mean still
    divides by the whole image's size.
    """
    rendered, target = _image_pair(rendered, target)
    if SSIM_WEIGHT != 0.0:
        _check_shape(rendered.shape)
    elif rendered.ndim != 3 or rendered.shape[2] == 0:
        raise InvalidParameterError(
            f"images must have an (H, W, C) shape with C >= 1, got {rendered.shape}")
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
