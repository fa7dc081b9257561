"""Reference guard for the fragment -> splat gradient sums.

`parent_splat_sum` below is the per-fragment formulation that the span
reduction of `renderer._splat_sum` replaces, kept verbatim: it scatters the
color gradient of the layer-major blend kernel `_composite_backward` back
through `perm`, gathers the conic per fragment and sums each weight column
per splat with `np.bincount`. The two add the same products in a different
order, so gradients agree to rounding (rtol 1e-12, atol 1e-12 of the
field's largest value), while the image, the loss and `touched` are exact.
The per-fragment color gradient the span reduction starts from is that
kernel's, bit for bit.

`_composite_backward` is the (N, 3) form of the renderer's blend gradient
kernel, which also returns each fragment's color gradient: it holds colors
and upstream gradients as (N, 3) rows, where the renderer's kernel holds
them channel-major as (3, N), so its callers here transpose the renderer's
fragment colors at that boundary. The renderer's own kernel returns the
alpha gradient only, and forms the color gradient per fragment in
`_fragment_terms`.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from tgh import renderer as rn
from tgh.camera import Camera
from tgh.losses import loss as image_loss

from conftest import batch_of_columns, grad_columns

SIZE = 24
FOCAL = 40.0
GRAD_FIELDS = ("mu", "scale", "rotor_left", "rotor_right", "opacity",
               "base_color", "sh_residual", "viewspace_norm", "touched")


def _composite_backward(dl_dpx_color, background, sa, sc,
                        trans_final, t_frag, off, width):
    """Gradients of the ordered reduction w.r.t. fragment alpha and color.

    Walks the layer-major layout of `_composite_ordered` from the deepest
    layer to the front, one slice per layer, so every pixel sees its own
    fragments back to front in the same operation order as a per-pixel loop.
    dl_dpx_color: (G, 3) upstream gradient per pixel group in layout order;
    sa, sc, t_frag per layout position; off, width as returned by
    `_composite_ordered`. The final pixel is
    C = sum_i a_i c_i T_i + T_N * bg; `behind` tracks the composited color
    strictly behind the current fragment including the background term, so
    dC/da_i = c_i T_i - behind_i / (1 - a_i) covers the T_N path too.
    Returns (grad_alpha, grad_color) per layout position.
    """
    grad_alpha = np.empty(len(sa))
    grad_color = np.empty((len(sa), 3))
    behind = trans_final[:, None] * background[None, :]
    for o, k in zip(off.tolist()[::-1], width.tolist()[::-1]):
        s = slice(o, o + k)
        a = sa[s]
        t = t_frag[s]
        c = sc[s]
        upstream = dl_dpx_color[:k]
        at = (a * t)[:, None]
        grad_color[s] = upstream * at
        # the channel terms add left to right, the order np.sum(axis=1) uses
        g = upstream * (c * t[:, None] - behind[:k] / (1.0 - a)[:, None])
        grad_alpha[s] = (g[:, 0] + g[:, 1]) + g[:, 2]
        behind[:k] += at * c
    return grad_alpha, grad_color


def _splat_sum(sidx, columns, nk):
    """(nk, len(columns)) per-splat sums of per-fragment weight columns.

    bincount adds each bin's weights in input order starting from 0.0, which
    is exactly what `np.add.at` into zeros does, at a fraction of its cost.
    """
    return np.stack([np.bincount(sidx, weights=w, minlength=nk) for w in columns],
                    axis=1)


def parent_splat_sum(ctx, dl_flat):
    """The per-fragment sums; from `nk = len(keep)` on, the lines of
    `_backward` before the span reduction, verbatim. The lines above rebuild
    the per-fragment splat index, dy and the kept splats' alpha they read."""
    first, span_dy, span_sidx = ctx["spans"]
    length = np.diff(first, append=len(ctx["px"]))
    w_t = ctx["cond"].w_t
    ctx = dict(ctx, sidx=np.repeat(span_sidx, length), dy=np.repeat(span_dy, length),
               alpha_k=(ctx["batch"].opacity * w_t)[ctx["keep"]])
    keep = ctx["keep"]
    BACKGROUND, _frag_alpha, ALPHA_CLAMP = rn.BACKGROUND, rn._frag_alpha, rn.ALPHA_CLAMP

    nk = len(keep)

    # fragment-level gradients in layout order, scattered back to fragments
    sidx = ctx["sidx"]
    unique_px, _, trans, perm, t_frag, off, width, sa, sc = ctx["composite"]
    g_a, g_c = _composite_backward(
        dl_flat[unique_px], BACKGROUND, sa, sc.T, trans, t_frag, off, width)
    grad_frag_alpha = np.empty(len(sidx))
    grad_frag_alpha[perm] = g_a
    # (3, N): one contiguous row per channel for the per-splat sums
    grad_frag_color = np.empty((3, len(sidx)))
    grad_frag_color[:, perm] = g_c.T

    # fragment -> kept splat
    alpha_k = ctx["alpha_k"]
    gauss = ctx["gauss"]
    raw = alpha_k[sidx] * gauss
    frag_alpha = _frag_alpha(raw)
    # d alpha / d raw: 2 on the ramp, 1 in the body, 0 outside the level set
    # and under the clamp
    slope = np.where(frag_alpha < raw, 2.0, 1.0) * ((frag_alpha > 0.0)
                                                    & (frag_alpha < ALPHA_CLAMP))
    grad_raw = grad_frag_alpha * slope
    grad_alpha_k = np.bincount(sidx, weights=grad_raw * gauss, minlength=nk)
    grad_gauss = grad_raw * alpha_k[sidx]
    grad_q = -0.5 * gauss * grad_gauss
    dx, dy = ctx["dx"], ctx["dy"]
    conic = ctx["conic"]
    grad_conic = _splat_sum(
        sidx, (grad_q * dx * dx, grad_q * 2.0 * dx * dy, grad_q * dy * dy), nk)
    a_f = conic[sidx, 0]
    b_f = conic[sidx, 1]
    c_f = conic[sidx, 2]
    grad_dx = grad_q * 2.0 * (a_f * dx + b_f * dy)
    grad_dy = grad_q * 2.0 * (b_f * dx + c_f * dy)
    grad_center2 = _splat_sum(sidx, (-grad_dx, -grad_dy), nk)
    grad_color = _splat_sum(sidx, grad_frag_color, nk)
    touched_k = np.bincount(sidx, minlength=nk) > 0

    return grad_alpha_k, grad_conic, grad_center2, grad_color, touched_k


def camera():
    return Camera(fx=FOCAL, fy=FOCAL, cx=SIZE / 2.0, cy=SIZE / 2.0,
                  rotation=np.eye(3), translation=np.zeros(3),
                  width=SIZE, height=SIZE, near=0.1, far=100.0)


def unit_rows(rng, n):
    v = rng.normal(size=(n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_scene(seed, n, offscreen, single):
    """A batch alive around t = 1: n overlapping Gaussians in front of
    `camera()`, `offscreen` kept ones that project outside the frame, and
    `single` point-like ones, each in front of one pixel center.

    A point-like splat's screen covariance is the 0.3 px^2 low-pass; with a
    peak alpha below 1.5 ALPHA_MIN its level set has a half-width under
    0.5 px, so it covers the one pixel whose center it projects to.
    """
    rng = np.random.default_rng(seed)
    total = n + offscreen + single
    z = rng.uniform(3.0, 7.0, total)
    xy = rng.uniform(-0.8, 0.8, (total, 2))
    scale = np.column_stack([rng.uniform(0.05, 0.8, (total, 3)), rng.uniform(0.1, 0.5, total)])
    opacity = rng.uniform(0.05, 1.0, total)
    t = rng.uniform(0.8, 1.2, total)
    off = slice(n, n + offscreen)
    side = rng.choice([-1.0, 1.0], offscreen)
    xy[off, 0] = side * rng.uniform(4.0, 8.0, offscreen) * z[off] / 5.0
    scale[off, :3] = rng.uniform(0.05, 0.1, (offscreen, 3))
    t[off] = 1.0
    point = slice(n + offscreen, total)
    pixel = rng.integers(2, SIZE - 2, (single, 2)) + 0.5
    xy[point] = (pixel - SIZE / 2.0) * z[point, None] / FOCAL
    scale[point, :3] = 1e-3
    scale[point, 3] = 1.0
    t[point] = 1.0
    opacity[point] = rng.uniform(1.05, 1.45, single) * rn.ALPHA_MIN
    return batch_of_columns(dict(
        mu=np.column_stack([xy, z, t]), scale=scale,
        rotor_left=unit_rows(rng, total), rotor_right=unit_rows(rng, total),
        opacity=opacity, base_color=rng.uniform(0.0, 1.0, (total, 3)),
        sh_residual=rng.normal(scale=0.1, size=(total, 45))))


def scene_and_target(seed, n, offscreen, single):
    target = np.random.default_rng([seed, 1]).uniform(size=(SIZE, SIZE, 3))
    return random_scene(seed, n, offscreen, single), target


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(77044215096371842960155128736118803218930541870216431519617316436902146523219)
@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 12),
       offscreen=st.integers(0, 3), single=st.integers(0, 3))
def test_span_sums_match_per_fragment_sums(seed, n, offscreen, single):
    batch, target = scene_and_target(seed, n, offscreen, single)
    cam = camera()
    loss, fb, grads = rn.render_with_gradients(batch, 1.0, cam, target)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rn, "_splat_sum", parent_splat_sum)
        loss_r, fb_r, grads_r = rn.render_with_gradients(batch, 1.0, cam, target)
    assert loss == loss_r
    assert np.array_equal(fb.rgb, fb_r.rgb)
    assert np.array_equal(fb.transmittance, fb_r.transmittance)
    assert np.array_equal(grads.touched, grads_r.touched)
    for name in GRAD_FIELDS[:-1]:
        new, ref = grad_columns(grads)[name], grad_columns(grads_r)[name]
        np.testing.assert_allclose(new, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max(initial=0.0), err_msg=name)


@pytest.mark.parametrize("shape", [(12, 3, 3), (0, 3, 0), (0, 0, 3), (20, 0, 0)],
                         ids=["mixed", "offscreen_only", "single_pixel_only", "overlap_only"])
def test_scenes_have_their_shape(shape):
    """The kept off-screen splats own no fragment and the point-like ones one each."""
    n, offscreen, single = shape
    batch, _ = scene_and_target(5, n, offscreen, single)
    _, ctx = rn._forward(batch, 1.0, camera())
    keep = ctx["keep"]
    assert len(keep) == n + offscreen + single
    first, _, span_sidx = ctx["spans"]
    per_splat = np.bincount(keep[np.repeat(span_sidx, np.diff(first, append=len(ctx["px"])))],
                            minlength=len(keep))
    assert np.all(per_splat[n:n + offscreen] == 0)
    assert np.all(per_splat[n + offscreen:] == 1)
    if n:
        assert per_splat[:n].max() > 50


@pytest.mark.parametrize("shape", [(12, 3, 3), (0, 0, 3), (20, 0, 0)],
                         ids=["mixed", "single_pixel_only", "overlap_only"])
def test_fragment_color_gradient_is_the_kernels(shape):
    """Formed in generation order from T, alpha and the upstream gradient,
    each fragment's color gradient equals the layer-major kernel's
    `grad_color` at its layout position."""
    batch, target = scene_and_target(9, *shape)
    fb, ctx = rn._forward(batch, 1.0, camera())
    dl_flat = image_loss(fb.rgb, target)[1].reshape(-1, 3)
    unique_px, _, trans, perm, t_frag, off, width, sa, sc = ctx["composite"]
    _, g_c = _composite_backward(
        dl_flat[unique_px], rn.BACKGROUND, sa, sc.T, trans, t_frag, off, width)
    kernel = np.empty_like(g_c)
    kernel[perm] = g_c
    assert np.array_equal(rn._fragment_terms(ctx, dl_flat)[4:].T, kernel)
