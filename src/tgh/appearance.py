"""Sparse view-dependent appearance control.

Residual SH coefficients start at exactly zero. While a Gaussian stays
all-zero, its SH gradient is dropped unless the gradient norm clears the
threshold, so diffuse content never accrues coefficients. Once the
view-dependent share of the population reaches the cutoff ratio the
threshold goes to infinity: the current diffuse set is locked in for good.

The gate's state is its threshold `g_th`: G_TH while the gate is open and
+inf once it has frozen.

Only a Gaussian whose SH is non-zero needs SH storage: the store keeps it in
a slot table, one slot per such Gaussian (`store.slot`), and a diffuse
Gaussian's SH reads zero. So the gate's count reads the slotted rows only,
O(slots) per control pass: `view_dependent_fraction(store's slotted SH,
len(store))`.
"""

import math

import numpy as np

G_TH = 1e-6             # gradient-norm threshold while the gate is open
LAMBDA_H = 0.15         # the paper's view-dependent ratio cutoff


def gate_gradients(h, grad_h, g_th):
    """Filtered SH gradients: zeroed where ||g|| < g_th and ||h|| == 0.

    h, grad_h: (N, 45). Gradients of view-dependent Gaussians (any nonzero
    coefficient) always pass. Returns a new array; only the SH block is ever
    touched.
    """
    diffuse = ~np.any(h != 0.0, axis=1)
    small = np.linalg.norm(grad_h, axis=1) < g_th
    return np.where((diffuse & small)[:, None], 0.0, grad_h)


def view_dependent_fraction(h, population):
    """Share of `population` rows with any nonzero residual coefficient,
    where h (N, 45) holds the SH of every row that may have one: the whole
    population, or only the store's slotted rows."""
    h = np.asarray(h)
    if population == 0:
        return 0.0
    return float(np.count_nonzero(np.any(h != 0.0, axis=1))) / population


def update_ratio_cutoff(g_th, fraction):
    """The gate's next threshold: +inf once the view-dependent fraction
    reaches LAMBDA_H, else `g_th`. An infinite threshold stays infinite, so
    freezing is permanent."""
    return math.inf if fraction >= LAMBDA_H else g_th
