"""Sparse view-dependent appearance control.

Residual SH coefficients start at exactly zero. While a Gaussian is diffuse,
its SH gradient is dropped unless the gradient norm clears the threshold, so
diffuse content never accrues coefficients. Once the view-dependent share of
the population reaches the cutoff ratio the threshold goes to infinity: the
current diffuse set is locked in for good.

The gate's state is its threshold `g_th`: G_TH while the gate is open and
+inf once it has frozen.

Whether a Gaussian is view-dependent is recorded once, by the store: it
holds an SH slot (`store.slot`). The gate reads the batch's diffuse mask,
and a diffuse row whose gradient it lets through takes a slot before its
step. So the view-dependent count is the number of slots held:
`view_dependent_fraction(len(store.held_slots()), len(store))`.
"""

import math

import numpy as np

G_TH = 1e-6             # gradient-norm threshold while the gate is open
LAMBDA_H = 0.15         # the paper's view-dependent ratio cutoff


def gate_gradients(diffuse, grad_h, g_th):
    """Positions, ascending, of the `diffuse` rows of the (N, 45) SH
    gradients `grad_h` that the gate lets through; a row with ||g|| < g_th
    stays closed. `grad_h` is only read: a closed row stays diffuse, holds
    no SH to step, and its gradient is never read."""
    rows = np.flatnonzero(diffuse)
    small = np.linalg.norm(grad_h[rows], axis=1) < g_th
    return rows[~small]


def view_dependent_fraction(held, population):
    """Share of `population` Gaussians that are view-dependent, where `held`
    of them are: the store's slots held."""
    return held / population if population else 0.0


def update_ratio_cutoff(g_th, fraction):
    """The gate's next threshold: +inf once the view-dependent fraction
    reaches LAMBDA_H, else `g_th`. An infinite threshold stays infinite, so
    freezing is permanent."""
    return math.inf if fraction >= LAMBDA_H else g_th
