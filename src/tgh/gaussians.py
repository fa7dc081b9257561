"""4D Gaussian primitives and the closed-form math on them.

A primitive is an anisotropic Gaussian over (x, y, z, t). `build_covariance`
is the one function that forms its 4x4 covariance, from a pair of unit
quaternions (the left/right isoclinic factors of a 4D rotation) and four
positive scales, and `condition_at_time` the one conditioning function: it
slices the 4D Gaussian at a timestamp into the 3D splat actually rendered,
whose opacity the temporal marginal w_t modulates. `geometry_backward` is
their backward pass, from a splat's gradients to its Gaussian's parameters.
`batch_temporal_variance` gives only the time entry Sigma[3, 3], for the
hierarchy's placement: it forms row 3 of the rotation in closed form from
the renormalized rotors.

All functions here are pure and operate on stacked arrays.
"""

from collections import namedtuple

import numpy as np

from .errors import InvalidParameterError

# normalized temporal factor below which a Gaussian has no influence: it
# bounds the influence range the hierarchy places by and the renderer's cull
TEMPORAL_THRESHOLD = 0.05


def _squared_norms(q, axis=-1):
    """|q|^2 over the component axis, the sum `np.linalg.norm` takes the
    root of. InvalidParameterError if a norm is zero or not finite."""
    n2 = np.add.reduce(q * q, axis=axis)
    if np.any(n2 == 0.0) or not np.all(np.isfinite(n2)):
        raise InvalidParameterError("rotor has zero or non-finite norm")
    return n2


def _normalize_rows(q):
    return q / np.sqrt(_squared_norms(q))[..., None]


# The isoclinic factors are linear in the quaternion q = (w, x, y, z):
# L(q)[i, j] = sign[i, j] * q[component[i, j]], and the left and right
# factors share the component pattern. As bases, L(q) = sum_c q_c _LEFT_BASIS[c].
_COMPONENT = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1.0, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]])
_RIGHT_SIGN = np.array([[1.0, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]])
_ONE_HOT = np.arange(4)[:, None, None] == _COMPONENT
_LEFT_BASIS = _LEFT_SIGN * _ONE_HOT          # (4, 4, 4)
_RIGHT_BASIS = _RIGHT_SIGN * _ONE_HOT

Geometry = namedtuple("Geometry", "rotor_left rotor_right left right scale rot4 m cov")
Conditioned = namedtuple("Conditioned", "dt mean3 cov3 w_t")


def isoclinic_factors(rotor_left, rotor_right):
    """Unit rotors and their isoclinic factors (q_l, q_r, L(q_l), R(q_r)).

    Rotors are (..., 4) and renormalized; factors are (..., 4, 4). The 4D
    rotation is L(q_l) @ R(q_r).
    """
    ql = _normalize_rows(np.asarray(rotor_left, dtype=np.float64))
    qr = _normalize_rows(np.asarray(rotor_right, dtype=np.float64))
    shape = ql.shape[:-1] + (4, 4)
    left = np.einsum("nc,cij->nij", ql.reshape(-1, 4), _LEFT_BASIS).reshape(shape)
    right = np.einsum("nc,cij->nij", qr.reshape(-1, 4), _RIGHT_BASIS).reshape(shape)
    return ql, qr, left, right


def build_covariance(scale, rotor_left, rotor_right):
    """Covariances Sigma = M M^T, M = R4 diag(s), as a Geometry with the
    factors that build them: the renormalized rotors `rotor_left` and
    `rotor_right` (..., 4), their isoclinic factors `left` and `right`, the
    4D rotation `rot4` = L @ R and `m` = M (..., 4, 4), the scale as float64,
    `scale` = s (..., 4), and `cov` = Sigma.
    """
    ql, qr, left, right = isoclinic_factors(rotor_left, rotor_right)
    s = np.asarray(scale, dtype=np.float64)
    rot4 = left @ right
    m = rot4 * s[..., None, :]
    return Geometry(ql, qr, left, right, s, rot4, m, m @ np.swapaxes(m, -1, -2))


def _components(x):
    """(4, ...) float64 copy of a (..., 4) array, one contiguous array per component."""
    return np.moveaxis(np.asarray(x, dtype=np.float64), -1, 0).copy()


def batch_temporal_variance(scale, rotor_left, rotor_right):
    """sigma_t = Sigma[3, 3] = |row 3 of L(q_l) R(q_r) * s|^2, without the
    factors: each entry of the row is a signed sum of four products
    q_l[a] q_r[b] of the renormalized rotors. A zero or non-finite norm
    raises InvalidParameterError, as in `isoclinic_factors`."""
    # one contiguous array per component: arithmetic on the strided columns
    # of (..., 4) rows is several times slower
    ql, qr = _components(rotor_left), _components(rotor_right)
    ql /= np.sqrt(_squared_norms(ql, axis=0))
    qr /= np.sqrt(_squared_norms(qr, axis=0))
    a0, a1, a2, a3 = ql
    b0, b1, b2, b3 = qr
    # L[3, :] = (a3, -a2, a1, a0) times the rows of R (_RIGHT_SIGN, _COMPONENT)
    row = (a3 * b0 - a2 * b1 + a1 * b2 + a0 * b3,
           a0 * b2 - a3 * b1 - a2 * b0 - a1 * b3,
           a1 * b0 - a3 * b2 - a2 * b3 - a0 * b1,
           a0 * b0 + a1 * b1 + a2 * b2 - a3 * b3)
    # the squares are added from the first, which equals `sum` from 0, as
    # 0 + x is x for x >= 0
    s = _components(scale)
    total = np.square(row[0] * s[0])
    for r, s_j in zip(row[1:], s[1:]):
        total += np.square(r * s_j)
    return total


def influence_radius(sigma_t):
    """Radius where the normalized temporal factor drops to TEMPORAL_THRESHOLD."""
    return np.sqrt(np.log(TEMPORAL_THRESHOLD) / -0.5 * sigma_t)


def condition_at_time(mu, cov, t):
    """Condition stacked 4D Gaussians on a timestamp.

    mu: (N, 4), cov: (N, 4, 4), t: scalar. Returns a Conditioned: dt =
    t - mu_t, the conditional mean3 (N, 3) and cov3 (N, 3, 3), and the
    normalized temporal factor w_t = exp(-dt^2 / (2 cov[3, 3])) in (0, 1].
    """
    v = cov[..., :3, 3]
    sigma_t = cov[..., 3, 3]
    dt = float(t) - mu[..., 3]
    w_t = np.exp(-0.5 * dt * dt / sigma_t)
    mean3 = mu[..., :3] + v * (dt / sigma_t)[..., None]
    cov3 = cov[..., :3, :3] - v[..., :, None] * v[..., None, :] / sigma_t[..., None, None]
    return Conditioned(dt, mean3, cov3, w_t)


def geometry_backward(rotor_left, rotor_right, geom, dt, w_t, grad_mean3, grad_cov3, grad_w):
    """Gradients (mu, scale, rotor_left, rotor_right) of K Gaussians from
    those of their conditioned mean3 (K, 3), cov3 (K, 3, 3) and w_t (K,).

    The rotors are the raw (K, 4) rows given to `build_covariance`, geom its
    Geometry and dt, w_t those of `condition_at_time`, all at the same K
    rows. Conditioning goes back to mu and cov4, then cov4 = M M^T to the
    scale and the unit rotors; a rotor gets the renormalisation's
    derivative, its gradient's tangent part over |q|. `v` and
    `sigma_t` are views of geom.cov, as `condition_at_time` reads them: a
    contiguous copy would make the einsums on `v` round differently.
    """
    v, sigma_t = geom.cov[:, :3, 3], geom.cov[:, 3, 3]
    gm_dot_v = np.sum(grad_mean3 * v, axis=1)
    grad_v = grad_mean3 * (dt / sigma_t)[:, None] \
        - 2.0 * np.einsum("nij,nj->ni", grad_cov3, v) / sigma_t[:, None]
    grad_sigma = (-gm_dot_v * dt / sigma_t ** 2
                  + np.einsum("ni,nij,nj->n", v, grad_cov3, v) / sigma_t ** 2
                  + grad_w * w_t * dt * dt / (2.0 * sigma_t ** 2))
    grad_mu = np.column_stack([grad_mean3, -gm_dot_v / sigma_t + grad_w * w_t * dt / sigma_t])

    grad_cov4 = np.zeros((len(dt), 4, 4))
    grad_cov4[:, :3, :3] = grad_cov3
    grad_cov4[:, :3, 3] = grad_v
    grad_cov4[:, 3, 3] = grad_sigma

    # cov4 = M M^T with M = R4 * diag(scales)
    grad_m4 = (grad_cov4 + np.swapaxes(grad_cov4, 1, 2)) @ geom.m
    grad_rot4 = grad_m4 * geom.scale[:, None, :]
    grad_s = np.einsum("nij,nij->nj", geom.rot4, grad_m4)
    grad_left = np.einsum("nij,cij->nc", grad_rot4 @ np.swapaxes(geom.right, 1, 2), _LEFT_BASIS)
    grad_right = np.einsum("nij,cij->nc", np.swapaxes(geom.left, 1, 2) @ grad_rot4, _RIGHT_BASIS)
    grads = [grad_mu, grad_s]
    for raw_q, q_hat, g_hat in ((rotor_left, geom.rotor_left, grad_left),
                                (rotor_right, geom.rotor_right, grad_right)):
        proj = np.sum(q_hat * g_hat, axis=1, keepdims=True)
        grads.append((g_hat - q_hat * proj) / np.linalg.norm(raw_q, axis=1, keepdims=True))
    return grads
