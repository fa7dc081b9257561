"""Exactness guard for the layer-major blend kernels.

The two functions below are the per-layer reference kernels, kept verbatim:
one Python pass per depth layer over the pixels that still hold a fragment,
with fancy-index gathers and scatters. The renderer's kernels must reproduce
them bit for bit. Each test renders a scene with the renderer's own kernels,
then again with these monkeypatched in, and compares with np.array_equal:
a reordering of any pixel's arithmetic would show here, where the 1e-9
tolerance of `test_matches_reference_loop` would hide it. The references
take per-fragment colors and an explicit background and also return a color
gradient; `reference_kernels` adapts them to the renderer's signatures. They
hold colors, color sums and upstream gradients as (N, 3) rows, the
renderer's kernels channel-major as (3, N): the adapters transpose at that
boundary only.
"""

import dataclasses

import numpy as np
import pytest

from tgh import renderer as rn
from tgh.camera import Camera

from conftest import grad_columns, params, random_params
from test_renderer import batch_of


def _composite_ordered(px, frag_alpha, frag_color, save=False):
    """Sequential per-pixel over-compositing of depth-ordered fragments.

    px: flat pixel index per fragment, fragments front-to-back within a pixel.
    Returns (unique_px, color_sum, final_T[, order, T_frag, starts, counts,
    sa, sc]).
    """
    order = np.argsort(px, kind="stable")
    spx = px[order]
    sa = frag_alpha[order]
    sc = frag_color[order]
    is_start = np.empty(len(spx), dtype=bool)
    if len(spx):
        is_start[0] = True
        is_start[1:] = spx[1:] != spx[:-1]
    starts = np.flatnonzero(is_start)
    unique_px = spx[starts]
    counts = np.diff(np.append(starts, len(spx)))
    trans = np.ones(len(starts))
    color = np.zeros((len(starts), 3))
    t_frag = np.empty(len(spx)) if save else None
    max_depth = int(counts.max()) if len(counts) else 0
    for j in range(max_depth):
        act = np.flatnonzero(counts > j)
        f = starts[act] + j
        if save:
            t_frag[f] = trans[act]
        w = sa[f] * trans[act]
        color[act] += w[:, None] * sc[f]
        trans[act] = trans[act] * (1.0 - sa[f])
    if save:
        return unique_px, color, trans, order, t_frag, starts, counts, sa, sc
    return unique_px, color, trans


def _composite_backward(dl_dpx_color, background, sa, sc,
                        trans_final, t_frag, starts, counts):
    """Gradients of the ordered reduction w.r.t. fragment alpha and color.

    dl_dpx_color: (G, 3) upstream gradient per covered pixel group. The final
    pixel is C = sum_i a_i c_i T_i + T_N * bg; `behind` tracks the composited
    color strictly behind the current fragment including the background term,
    so dC/da_i = c_i T_i - behind_i / (1 - a_i) covers the T_N path too.
    Returns (grad_alpha, grad_color) per sorted fragment.
    """
    grad_alpha = np.zeros(len(sa))
    grad_color = np.zeros((len(sa), 3))
    behind = trans_final[:, None] * background[None, :]
    max_depth = int(counts.max()) if len(counts) else 0
    for j in range(max_depth - 1, -1, -1):
        act = np.flatnonzero(counts > j)
        f = starts[act] + j
        a = sa[f]
        t = t_frag[f]
        upstream = dl_dpx_color[act]
        grad_color[f] = upstream * (a * t)[:, None]
        grad_alpha[f] = np.sum(
            upstream * (sc[f] * t[:, None] - behind[act] / (1.0 - a)[:, None]), axis=1)
        behind[act] += (a * t)[:, None] * sc[f]
    return grad_alpha, grad_color


def reference_kernels(patch):
    """Monkeypatch the reference kernels into the renderer: the forward one
    gets each fragment's color color[sidx], and the backward one the
    renderer's BACKGROUND, of which only grad_alpha is returned. Color sums
    and fragment colors go to the renderer transposed to (3, N), and the
    backward one gets the upstream gradient and colors back as C-ordered
    (N, 3) rows, the layout it always ran on."""
    def ordered(px, frag_alpha, color, sidx):
        out = _composite_ordered(px, frag_alpha, np.take(color, sidx, axis=0), save=True)
        unique_px, color_sum, trans, order, t_frag, starts, counts, sa, sc = out
        return unique_px, color_sum.T, trans, order, t_frag, starts, counts, sa, sc.T

    def backward(dl_dpx_color, sa, sc, trans_final, t_frag, *rest):
        rows = np.ascontiguousarray
        return _composite_backward(rows(dl_dpx_color.T), rn.BACKGROUND, sa, rows(sc.T),
                                   trans_final, t_frag, *rest)[0], sa * t_frag

    patch.setattr(rn, "_composite_ordered", ordered)
    patch.setattr(rn, "_composite_backward", backward)


GRAD_FIELDS = ("mu", "scale", "rotor_left", "rotor_right", "opacity",
               "base_color", "sh_residual", "viewspace_norm", "touched")


def camera(size=24, fx=40.0):
    return Camera(fx=fx, fy=fx, cx=size / 2.0, cy=size / 2.0,
                  rotation=np.eye(3), translation=np.zeros(3),
                  width=size, height=size, near=0.1, far=100.0)


def deep_overlap(rng):
    """30 Gaussians stacked along the optical axis at different depths."""
    gaussians = []
    for _ in range(30):
        g = random_params(rng, t_center_range=(0.95, 1.05))
        g["mu"][0, :3] = np.concatenate([rng.uniform(-0.15, 0.15, 2), [rng.uniform(4.0, 8.0)]])
        g["scale"][0, :3] = rng.uniform(0.2, 0.5, size=3)
        g["scale"][0, 3] = rng.uniform(0.3, 0.6)
        gaussians.append(g)
    return batch_of(gaussians), {"BACKGROUND": np.array([0.1, 0.2, 0.3])}


def single_pixel(rng):
    """Three point-like Gaussians in front of the center of pixel (12, 12).

    With ALPHA_MIN 0.3 and opacity 0.5 the level-set rectangle of a splat
    whose screen covariance is the 0.3 px^2 low-pass has half-width 0.55 px,
    so each covers that one pixel only.
    """
    gaussians = []
    for z in (3.0, 5.0, 7.0):
        xy = 0.5 * z / 40.0  # projects to 12.5 px under `camera()`
        gaussians.append(params(mu=[xy, xy, z, 1.0], scale=[1e-3, 1e-3, 1e-3, 0.2],
                                opacity=0.5, base_color=rng.uniform(0.2, 0.8, size=3)))
    return batch_of(gaussians), {"ALPHA_MIN": 0.3}


def culled(rng):
    """Every Gaussian is behind the camera or far from the render time."""
    gaussians = []
    for i in range(6):
        g = random_params(rng, t_center_range=(0.9, 1.1))
        if i % 2:
            g["mu"][0, 2] = -5.0
        else:
            g["mu"][0] = [0.0, 0.0, 5.0, 9.0]
            g["scale"][0, 3] = 0.1
        gaussians.append(g)
    return batch_of(gaussians), {}


def offscreen(rng):
    """Gaussians survive culling but project right of the frame, level with
    its rows: `_build_fragments` walks their rows, and every row's span
    clips to zero columns, so they emit no fragments
    (`test_offscreen_rows_are_walked`)."""
    gaussians = []
    for _ in range(4):
        g = random_params(rng, t_center_range=(0.95, 1.05), scale_range=(0.05, 0.1))
        g["mu"][0, :3] = [40.0, rng.uniform(-1.0, 1.0), 5.0]
        g["scale"][0, 3] = 1.0
        gaussians.append(g)
    return batch_of(gaussians), {}


SCENES = {"deep_overlap": deep_overlap, "single_pixel": single_pixel,
          "culled": culled, "offscreen": offscreen}


def scene(name, patch):
    """The named scene's batch, with the renderer constants it changes set
    through `patch`."""
    batch, constants = SCENES[name](np.random.default_rng(sorted(SCENES).index(name) + 5))
    for constant, value in constants.items():
        patch.setattr(rn, constant, value)
    return batch


def render(batch, target, cam):
    return rn.render_with_gradients(batch, 1.0, cam, target)


def assert_identical(new, ref):
    (loss_n, fb_n, g_n), (loss_r, fb_r, g_r) = new, ref
    assert loss_n == loss_r
    assert np.array_equal(fb_n.rgb, fb_r.rgb)
    assert np.array_equal(fb_n.transmittance, fb_r.transmittance)
    for name in GRAD_FIELDS:
        assert np.array_equal(grad_columns(g_n)[name], grad_columns(g_r)[name]), name


@pytest.mark.parametrize("name", sorted(SCENES))
def test_render_with_gradients_matches_reference(name, monkeypatch):
    batch = scene(name, monkeypatch)
    cam = camera()
    target = np.random.default_rng(3).uniform(size=(cam.height, cam.width, 3))
    new = render(batch, target, cam)
    reference_kernels(monkeypatch)
    ref = render(batch, target, cam)
    assert_identical(new, ref)


def test_scenes_have_their_shape():
    cam = camera()
    depth = {}
    for name in SCENES:
        with pytest.MonkeyPatch.context() as patch:
            fb, ctx = rn._forward(scene(name, patch), 1.0, cam)
        px = ctx.get("px", np.empty(0, dtype=np.intp))
        depth[name] = int(np.bincount(px).max()) if len(px) else 0
        covered = np.count_nonzero(fb.transmittance < 1.0)
        if name == "single_pixel":
            assert covered == 1 and np.all(np.unique(px) == 12 * cam.width + 12)
        if name in ("culled", "offscreen"):
            assert covered == 0 and len(px) == 0
            assert (len(ctx["keep"]) > 0) == (name == "offscreen")
    assert depth["deep_overlap"] >= 20
    assert depth["single_pixel"] == 3


def test_offscreen_rows_are_walked():
    """In a frame widened to reach the `offscreen` splats, with the same
    rows, every kept splat emits fragments: their row ranges lie in the
    frame, and in `camera()` only the columns of each span miss it."""
    with pytest.MonkeyPatch.context() as patch:
        batch = scene("offscreen", patch)
    cam = camera()
    _, ctx = rn._forward(batch, 1.0, cam)
    _, wide = rn._forward(batch, 1.0, dataclasses.replace(cam, width=400))
    assert len(ctx["px"]) == 0
    assert np.array_equal(np.unique(wide["spans"][2]), np.arange(len(wide["keep"])))
    assert np.all(wide["px"] // 400 < cam.height)


def test_kernels_match_reference_per_fragment(monkeypatch):
    """Kernel outputs compared pixel by pixel and fragment by fragment."""
    rng = np.random.default_rng(11)
    n = 4000
    px = rng.integers(0, 300, size=n)
    alpha = rng.uniform(0.0, 0.99, size=n)
    color = rng.uniform(size=(n, 3))
    sidx = rng.integers(0, n, size=n)
    background = np.array([0.3, 0.1, 0.6])
    monkeypatch.setattr(rn, "BACKGROUND", background)
    new = rn._composite_ordered(px, alpha, color, sidx)
    ref = _composite_ordered(px, alpha, color[sidx], save=True)
    by_px_new, by_px_ref = np.argsort(new[0]), np.argsort(ref[0])
    assert np.array_equal(new[0][by_px_new], ref[0][by_px_ref])
    assert np.array_equal(new[1].T[by_px_new], ref[1][by_px_ref])
    assert np.array_equal(new[2][by_px_new], ref[2][by_px_ref])
    # per fragment: position in each kernel's own order -> fragment index
    t_new, t_ref = np.empty(n), np.empty(n)
    t_new[new[3]] = new[4]
    t_ref[ref[3]] = ref[4]
    assert np.array_equal(t_new, t_ref)

    # per layout position: the color each kernel blended
    assert np.array_equal(new[8].T, color[sidx[new[3]]])
    assert np.array_equal(ref[8], color[sidx[ref[3]]])

    upstream = rng.normal(size=(300, 3))
    g_new, at = rn._composite_backward(upstream[new[0]].T, alpha[new[3]], new[8],
                                       new[2], new[4], *new[5:7])
    assert np.array_equal(at, alpha[new[3]] * new[4])
    g_ref = _composite_backward(upstream[ref[0]], background, alpha[ref[3]],
                                ref[8], ref[2], ref[4], *ref[5:7])[0]
    per_frag_new, per_frag_ref = np.empty(n), np.empty(n)
    per_frag_new[new[3]] = g_new
    per_frag_ref[ref[3]] = g_ref
    assert np.array_equal(per_frag_new, per_frag_ref)


def test_kernels_are_channel_major():
    """The blend kernels hold colors channel-major: color sums (3, G) and
    per-position colors (3, N), one contiguous row per channel."""
    rng = np.random.default_rng(12)
    n = 500
    px = rng.integers(0, 40, size=n)
    color = rng.uniform(size=(n, 3))
    out = rn._composite_ordered(px, rng.uniform(0.0, 0.99, size=n), color,
                                rng.integers(0, n, size=n))
    unique_px, color_sum, sc = out[0], out[1], out[8]
    assert color_sum.shape == (3, len(unique_px)) and color_sum.flags.c_contiguous
    assert sc.shape == (3, n) and sc.flags.c_contiguous
