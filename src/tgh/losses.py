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


def loss(rendered, target, weights: LossWeights = LossWeights()):
    """Objective value and its per-pixel gradient image.

    L = w_mse * mean((I - I_gt)^2) + w_ssim * (1 - SSIM(I, I_gt)).
    """
    rendered = np.asarray(rendered, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if rendered.shape != target.shape:
        raise InvalidParameterError(
            f"image shapes differ: {rendered.shape} vs {target.shape}")
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
    mse = np.mean((np.asarray(img, dtype=np.float64) - np.asarray(ref, dtype=np.float64)) ** 2)
    if mse == 0.0:
        return np.inf
    return 10.0 * np.log10(peak * peak / mse)
