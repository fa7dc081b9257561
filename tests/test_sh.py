import numpy as np
import pytest

from tgh import sh

from conftest import params, random_params

# (band, index-within-layout): l=1 bases 0..2, l=2 bases 3..7, l=3 bases 8..14
BAND_SLICES = {1: slice(0, 3), 2: slice(3, 8), 3: slice(8, 15)}


def unit_dirs(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def eval_residual(coeffs, view_dir):
    """Residual color: the 15 bases contracted with (15, 3) coefficients."""
    return sh.eval_basis(np.asarray(view_dir, dtype=np.float64)) @ np.reshape(coeffs, (-1, 3))


def eval_color(p, view_dir):
    """Base color plus residual SH, clamped to [0, 1], as the renderer
    colors a splat. view_dir must be unit."""
    return np.clip(p["base_color"][0] + eval_residual(p["sh_residual"][0], view_dir), 0.0, 1.0)


def test_zero_residual_is_direction_independent(rng):
    g = params(mu=np.zeros(4), scale=np.ones(4), base_color=np.array([0.3, 0.5, 0.7]))
    colors = np.stack([eval_color(g, d) for d in unit_dirs(rng, 100)])
    assert np.max(np.abs(colors - colors[0])) == 0.0
    assert np.allclose(colors[0], [0.3, 0.5, 0.7])


def test_degree1_z_coefficient_front_back_difference():
    # basis (l=1, m=0) = C1 * z; layout index 1, channel-interleaved
    k = 0.05
    coeffs = np.zeros(45)
    coeffs[1 * 3:1 * 3 + 3] = k
    g = params(mu=np.zeros(4), scale=np.ones(4), base_color=np.full(3, 0.5),
               sh_residual=coeffs)
    up = eval_color(g, [0.0, 0.0, 1.0])
    down = eval_color(g, [0.0, 0.0, -1.0])
    assert np.allclose(up - down, 2.0 * k * 0.4886025119, atol=1e-9)


def test_band_parity_under_antipodal_directions(rng):
    # even bands are invariant under d -> -d, odd bands negate
    for _ in range(20):
        coeffs = rng.normal(size=(15, 3))
        d = unit_dirs(rng, 1)[0]
        for band, parity in ((1, -1.0), (2, 1.0), (3, -1.0)):
            c = np.zeros((15, 3))
            c[BAND_SLICES[band]] = coeffs[BAND_SLICES[band]]
            plus = eval_residual(c.ravel(), d)
            minus = eval_residual(c.ravel(), -d)
            assert np.allclose(minus, parity * plus, atol=1e-12)


def test_basis_matches_polynomial_table(rng):
    # independent evaluation straight from the standard real SH polynomials
    x, y, z = unit_dirs(rng, 1)[0]
    expected = np.array([
        -0.4886025119029199 * y,
        0.4886025119029199 * z,
        -0.4886025119029199 * x,
        1.0925484305920792 * x * y,
        -1.0925484305920792 * y * z,
        0.31539156525252005 * (2 * z * z - x * x - y * y),
        -1.0925484305920792 * x * z,
        0.5462742152960396 * (x * x - y * y),
        -0.5900435899266435 * y * (3 * x * x - y * y),
        2.890611442640554 * x * y * z,
        -0.4570457994644658 * y * (4 * z * z - x * x - y * y),
        0.3731763325901154 * z * (2 * z * z - 3 * x * x - 3 * y * y),
        -0.4570457994644658 * x * (4 * z * z - x * x - y * y),
        1.445305721320277 * z * (x * x - y * y),
        -0.5900435899266435 * x * (x * x - 3 * y * y),
    ])
    assert np.allclose(sh.eval_basis([x, y, z]), expected, atol=1e-14)


def test_basis_grad_matches_finite_differences(rng):
    eps = 1e-6
    for _ in range(10):
        d = rng.normal(size=3)  # gradient is of the raw polynomial, no unit constraint
        g = sh.eval_basis_grad(d)
        for k in range(3):
            dp = d.copy(); dp[k] += eps
            dm = d.copy(); dm[k] -= eps
            fd = (sh.eval_basis(dp) - sh.eval_basis(dm)) / (2 * eps)
            assert np.allclose(g[:, k], fd, atol=1e-7)


def test_eval_color_clamps(rng):
    g = random_params(rng)
    g["base_color"][0] = [1.5, -0.5, 0.5]
    g["sh_residual"][0] = 0.0
    assert np.allclose(eval_color(g, [0, 0, 1.0]), [1.0, 0.0, 0.5])
