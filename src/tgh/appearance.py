"""Sparse view-dependent appearance control.

Residual SH coefficients start at exactly zero. While a Gaussian stays
all-zero, its SH gradient is dropped unless the gradient norm clears the
threshold, so diffuse content never accrues coefficients. Once the
view-dependent share of the population reaches the cutoff ratio the
threshold goes to infinity: the current diffuse set is locked in for good.
"""

import math

import numpy as np

from .errors import InvalidParameterError

G_TH = 1e-6             # gradient-norm threshold while the gate is open
LAMBDA_H = 0.15         # the paper's view-dependent ratio cutoff


class AppearanceGate:
    """The gate's state: its threshold `g_th`, G_TH until the gate freezes
    and +inf from then on."""

    def __init__(self):
        self.g_th = G_TH

    @property
    def frozen(self):
        return self.g_th == math.inf


def gate_gradients(h, grad_h, gate: AppearanceGate):
    """Filtered SH gradients: zeroed where ||g|| < g_th and ||h|| == 0.

    h, grad_h: (45,) or (N, 45). Gradients of view-dependent Gaussians
    (any nonzero coefficient) always pass. Returns a new array; only the SH
    block is ever touched.
    """
    h = np.asarray(h, dtype=np.float64)
    grad_h = np.asarray(grad_h, dtype=np.float64)
    if h.shape != grad_h.shape:
        raise InvalidParameterError("h and grad_h shapes differ")
    squeeze = h.ndim == 1
    if squeeze:
        h, grad_h = h[None], grad_h[None]
    diffuse = ~np.any(h != 0.0, axis=1)
    small = np.linalg.norm(grad_h, axis=1) < gate.g_th
    out = grad_h.copy()
    out[diffuse & small] = 0.0
    return out[0] if squeeze else out


def view_dependent_fraction(h):
    """Share of rows with any nonzero residual coefficient. h: (N, 45)."""
    h = np.asarray(h)
    if len(h) == 0:
        return 0.0
    return float(np.count_nonzero(np.any(h != 0.0, axis=1))) / len(h)


def update_ratio_cutoff(gate: AppearanceGate, fraction):
    """Freeze the gate once the view-dependent fraction reaches LAMBDA_H.

    Freezing is permanent; later calls never revert it. Returns the gate.
    """
    if not gate.frozen and fraction >= LAMBDA_H:
        gate.g_th = math.inf
    return gate
