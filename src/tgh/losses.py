"""Reconstruction objective: weighted MSE + SSIM terms with image gradients."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .ssim import ssim


@dataclass(frozen=True)
class LossWeights:
    mse: float = 0.8
    ssim: float = 0.2

    def __post_init__(self):
        if not (0 <= self.mse < math.inf and 0 <= self.ssim < math.inf):
            raise InvalidParameterError("loss weights must be finite and non-negative")


def _image_pair(img, ref):
    """Both images as float64 arrays; their shapes must match exactly."""
    img = np.asarray(img, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if img.shape != ref.shape:
        raise InvalidParameterError(f"image shapes differ: {img.shape} vs {ref.shape}")
    return img, ref


def loss(rendered, target, weights: LossWeights = LossWeights()):
    """Objective value and its per-pixel gradient image.

    L = w_mse * mean((I - I_gt)^2) + w_ssim * (1 - SSIM(I, I_gt)).
    """
    rendered, target = _image_pair(rendered, target)
    diff = rendered - target
    value = weights.mse * np.mean(diff * diff)
    grad = weights.mse * 2.0 * diff / diff.size
    if weights.ssim != 0.0:
        s, s_grad = ssim(rendered, target, grad=True)
        value += weights.ssim * (1.0 - s)
        grad -= weights.ssim * s_grad
    return value, grad


def psnr(img, ref, peak=1.0):
    """Peak signal-to-noise ratio in dB; inf for identical images."""
    img, ref = _image_pair(img, ref)
    mse = np.mean((img - ref) ** 2)
    if mse == 0.0:
        return np.inf
    return 10.0 * np.log10(peak * peak / mse)
