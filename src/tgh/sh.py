"""Real spherical harmonics bases of degrees 1..3 and their direction gradients.

The degree-0 (constant) band is folded into each Gaussian's base color, so the
residual coefficient layout is 15 bases x 3 channels, band-major:
l=1 (m=-1,0,1), l=2 (m=-2..2), l=3 (m=-3..3).
"""

import numpy as np

C1 = 0.4886025119029199
C2 = (1.0925484305920792, -1.0925484305920792, 0.31539156525252005,
      -1.0925484305920792, 0.5462742152960396)
C3 = (-0.5900435899266435, 2.890611442640554, -0.4570457994644658,
      0.3731763325901154, -0.4570457994644658, 1.445305721320277,
      -0.5900435899266435)

NUM_RESIDUAL_BASES = 15
RESIDUAL_COEFFS = NUM_RESIDUAL_BASES * 3


def eval_basis(dirs):
    """Evaluate the 15 residual bases at unit directions.

    dirs: (..., 3) unit vectors. Returns (..., 15).
    """
    d = np.asarray(dirs, dtype=np.float64)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    xx, yy, zz = x * x, y * y, z * z
    out = np.empty(d.shape[:-1] + (NUM_RESIDUAL_BASES,), dtype=np.float64)
    out[..., 0] = -C1 * y
    out[..., 1] = C1 * z
    out[..., 2] = -C1 * x
    out[..., 3] = C2[0] * x * y
    out[..., 4] = C2[1] * y * z
    out[..., 5] = C2[2] * (2.0 * zz - xx - yy)
    out[..., 6] = C2[3] * x * z
    out[..., 7] = C2[4] * (xx - yy)
    out[..., 8] = C3[0] * y * (3.0 * xx - yy)
    out[..., 9] = C3[1] * x * y * z
    out[..., 10] = C3[2] * y * (4.0 * zz - xx - yy)
    out[..., 11] = C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy)
    out[..., 12] = C3[4] * x * (4.0 * zz - xx - yy)
    out[..., 13] = C3[5] * z * (xx - yy)
    out[..., 14] = C3[6] * x * (xx - 3.0 * yy)
    return out


def eval_basis_grad(dirs):
    """Partial derivatives of the 15 bases with respect to the direction.

    dirs: (..., 3). Returns (..., 15, 3) where [..., b, k] = dY_b/dd_k.
    The bases are plain polynomials in (x, y, z); no unit-norm constraint is
    applied here, so the caller chains through its own normalization.
    """
    d = np.asarray(dirs, dtype=np.float64)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    xx, yy, zz = x * x, y * y, z * z
    zero = np.zeros_like(x)
    g = np.empty(d.shape[:-1] + (NUM_RESIDUAL_BASES, 3), dtype=np.float64)
    g[..., 0, :] = np.stack([zero, np.full_like(x, -C1), zero], axis=-1)
    g[..., 1, :] = np.stack([zero, zero, np.full_like(x, C1)], axis=-1)
    g[..., 2, :] = np.stack([np.full_like(x, -C1), zero, zero], axis=-1)
    g[..., 3, :] = np.stack([C2[0] * y, C2[0] * x, zero], axis=-1)
    g[..., 4, :] = np.stack([zero, C2[1] * z, C2[1] * y], axis=-1)
    g[..., 5, :] = np.stack([-2.0 * C2[2] * x, -2.0 * C2[2] * y, 4.0 * C2[2] * z], axis=-1)
    g[..., 6, :] = np.stack([C2[3] * z, zero, C2[3] * x], axis=-1)
    g[..., 7, :] = np.stack([2.0 * C2[4] * x, -2.0 * C2[4] * y, zero], axis=-1)
    g[..., 8, :] = np.stack([C3[0] * 6.0 * x * y, C3[0] * (3.0 * xx - 3.0 * yy), zero], axis=-1)
    g[..., 9, :] = np.stack([C3[1] * y * z, C3[1] * x * z, C3[1] * x * y], axis=-1)
    g[..., 10, :] = np.stack([-2.0 * C3[2] * x * y,
                              C3[2] * (4.0 * zz - xx - 3.0 * yy),
                              8.0 * C3[2] * y * z], axis=-1)
    g[..., 11, :] = np.stack([-6.0 * C3[3] * x * z,
                              -6.0 * C3[3] * y * z,
                              C3[3] * (6.0 * zz - 3.0 * xx - 3.0 * yy)], axis=-1)
    g[..., 12, :] = np.stack([C3[4] * (4.0 * zz - 3.0 * xx - yy),
                              -2.0 * C3[4] * x * y,
                              8.0 * C3[4] * x * z], axis=-1)
    g[..., 13, :] = np.stack([2.0 * C3[5] * x * z,
                              -2.0 * C3[5] * y * z,
                              C3[5] * (xx - yy)], axis=-1)
    g[..., 14, :] = np.stack([C3[6] * (3.0 * xx - 3.0 * yy),
                              -6.0 * C3[6] * x * y,
                              zero], axis=-1)
    return g

