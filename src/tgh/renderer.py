"""Deterministic software splatting renderer.

A frame runs these stages, each by one function:

1. check that every parameter is finite (`_forward`);
2. build each working-set Gaussian's 4D covariance and condition it at the
   timestamp (`gaussians.build_covariance`, `gaussians.condition_at_time`,
   back-propagated by `gaussians.geometry_backward`);
3. cull by temporal factor, depth and opacity (`_forward`);
4. project to screen-space 2D Gaussians, EWA first-order (`project`);
5. color each splat from its base color, plus its residual SH if it holds
   a slot (`_forward`);
6. sort back to front (`depth_sort`);
7. bound each splat's rows by its opacity level set and emit, row by row,
   the pixels whose centres lie inside it (`_build_fragments`);
8. give each fragment its alpha (`_frag_alpha`), gather the fragment colors
   once, in blend order, and alpha-blend the fragments in depth order
   (`_composite_ordered`).

`render_with_gradients` runs the same stages and back-propagates the image
loss analytically to every Gaussian parameter: `_backward` through screen
space, colour and opacity, `gaussians.geometry_backward` on to mu, scale and
rotors. There is one base gradient row per batch row, and an SH gradient row
per kept splat, slotted or not, as the appearance gate reads the diffuse
ones. The backward pass runs in the kept splats' rows and writes each
gradient column once; a culled row's gradients are exact zeros. Only the
splats that hold a slot have a view-direction term.

The renderer runs one configuration, the settings of 3DGS (arXiv 2308.04079),
as module constants: a splat whose peak alpha is below `ALPHA_MIN` = 1/255 is
culled, a fragment's alpha is clamped at `ALPHA_CLAMP` = 0.99, frames are
composited over a black `BACKGROUND`, and `COV2_LOWPASS` is the 0.3 px^2
screen-space dilation. The clamp stays below 1 because the backward pass
divides by 1 - alpha.

`ALPHA_MIN` also bounds what a splat covers: only the pixels whose raw
alpha a * exp(-q/2) reaches it, the ellipse q <= 2 ln(a / ALPHA_MIN), become
fragments, one row span at a time as in Speedy-Splat (arXiv 2412.00578).
3DGS skips the fragments under the threshold after generating them; here
they are never generated. So that the cut is continuous, and the loss and
its analytic gradients with it, the fragment alpha
min(max(2 (raw - ALPHA_MIN), 0), raw, ALPHA_CLAMP) equals 3DGS's
min(raw, ALPHA_CLAMP) from raw = 2 ALPHA_MIN up and ramps linearly to 0 at
the level set. A pixel that rounding moves across the edge of a span thus
has an alpha within rounding of 0 either way, and a splat whose peak alpha
nears ALPHA_MIN fades out instead of popping off.

Blending runs on a layer-major fragment layout: fragments are grouped by
pixel, pixels are ranked by fragment count, deepest first, and the j-th
fragments of all pixels that have one form one contiguous block. The forward
pass walks the blocks front to back and the backward pass back to front, one
slice operation per depth layer. Each pixel still folds its own fragments
one at a time in depth order and never mixes with another pixel's values, so
the output is bit-identical to a per-pixel loop. A log-space prefix sum over
all fragments would drop the layer loop, but its rounding would depend on the
pixels sorted before each one, so a pixel's value would no longer be exact.
The layout takes two stable sorts, each done as one value sort of packed
int64 keys (`_layer_major`).

The blend kernels hold colors channel-major: fragment colors as (3, N),
color sums and `behind` as (3, G) and the blend's gradient factors as
(3, N). numpy runs an
operation on (n, 3) operands with an inner loop 3 elements long, one per
pixel, where a (3, k) slice gives it three loops k long; each layer runs
about ten such operations. The colors are transposed at the kernels'
boundaries only, once per frame: the splat colors before the gather, the
color sums in the image write and the loss gradient in `_fragment_terms`.
Every element keeps its multiply and add sequence, so the output bits are
the same in either layout.

The backward pass reduces fragment gradients to splats in two levels, as
gsplat (arXiv 2409.06765) sums per-pixel contributions within a warp before
adding them to a Gaussian. The fragments of one row span are contiguous and
share their splat and dy, and the spans of one splat are contiguous and share
its conic. So each fragment forms only the terms that vary along a row (g,
g dx, g dx^2 with g its q gradient, plus its alpha and color gradients),
one segment sum per span reduces them, dy is folded in once per span, and a
second segment sum per splat finishes (`_splat_sum`). These sums add the
same products as a per-fragment formulation in another order, so gradients
match it to rounding; the forward values are untouched.

A training step runs on two lanes: the calling thread and one worker
thread (`lane`). Three pieces of `render_with_gradients` run on the worker,
each beside main-thread work that does not need it:

- the blend's back-to-front walk (`_blend_factors`), during `image_loss`.
  Each fragment's alpha gradient is sum_c u_c (c_c T - behind_c / (1 - a))
  for the loss gradient u of its pixel, and its color gradient u a T. The
  walk forms the factors c T - behind / (1 - a) and a T, which need no loss
  gradient, and `_fragment_terms` multiplies in u;
- the last SSIM channel, beside the others (`losses`);
- the per-fragment terms and per-span sums of the back half of the spans,
  cut at the span start nearest the middle fragment, beside the front half
  (`_splat_sum`).

`render` and `render_batch` submit nothing. Every task a call submits is
awaited before the call returns or raises; a task never submits to the lane
or waits on it, and never calls a public entry point. The bits are those of
one thread: each task writes only its own outputs, and the calling thread
combines them in the order one thread did. A factor times u is the same
product as u times the factor, and the channel terms still add in channel
order; the SSIM channel terms add in channel order; the span sums are
joined in span order before the per-splat sums.
"""

from dataclasses import dataclass, make_dataclass
from functools import partial

import numpy as np

from . import gaussians as ga
from . import lane, sh
from .camera import Camera
from .errors import InvalidParameterError
from .losses import loss as image_loss
from .store import GaussianBatch, NamedColumns

COV2_LOWPASS = 0.3                      # px^2 added to screen-space covariance
BACKGROUND = np.zeros(3)                # color behind every splat; black keeps
                                        # the loss's support box small (speed
                                        # only, never correctness: losses.py)
ALPHA_MIN = 1.0 / 255.0                 # splat and fragment opacity threshold
ALPHA_CLAMP = 0.99                      # per-fragment opacity ceiling


@dataclass
class Framebuffer:
    rgb: np.ndarray              # (H, W, 3)
    transmittance: np.ndarray    # (H, W), remaining background visibility


ParamGradients = make_dataclass(
    "ParamGradients", ("params", "keep", "sh", "viewspace_norm", "touched"),
    bases=(NamedColumns,), slots=True, eq=False, namespace={"__doc__": (
        "A base gradient row per batch row, the SH gradient row of each kept splat (`keep`, "
        "ascending batch positions), each splat's NDC-scale screen position gradient norm "
        "and whether it was kept and covered pixels.")})


# --------------------------------------------------------------------------
# screen space

def project(cam_pts, cov3, cam: Camera):
    """EWA first-order projection of camera-space means (K, 3) with their
    world-space covariances (K, 3, 3).

    Returns (center2, k_mat, cov2): pixel centers (K, 2), k_mat = J R_cam
    with J the Jacobian of the perspective map at each mean (K, 2, 3), and
    cov2 = k_mat cov3 k_mat^T + COV2_LOWPASS I (K, 2, 2).
    """
    x, y, z = cam_pts[:, 0], cam_pts[:, 1], cam_pts[:, 2]
    center2 = np.stack([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy], axis=1)
    jac = np.zeros((len(z), 2, 3))
    jac[:, 0, 0] = cam.fx / z
    jac[:, 0, 2] = -cam.fx * x / (z * z)
    jac[:, 1, 1] = cam.fy / z
    jac[:, 1, 2] = -cam.fy * y / (z * z)
    k_mat = jac @ cam.rotation
    cov2 = np.einsum("nij,njk,nlk->nil", k_mat, cov3, k_mat)
    cov2[:, 0, 0] += COV2_LOWPASS
    cov2[:, 1, 1] += COV2_LOWPASS
    return center2, k_mat, cov2


def depth_sort(depths, ids):
    """Back-to-front permutation: decreasing depth, ties by ascending id."""
    depths = np.asarray(depths, dtype=np.float64)
    if not np.all(np.isfinite(depths)):
        raise InvalidParameterError("depths must be finite")
    return np.lexsort((np.asarray(ids), -depths))


# --------------------------------------------------------------------------
# fragment machinery

def _build_fragments(center2, conic, var_y, alpha, order, width, height):
    """Fragments of each splat's ALPHA_MIN level set, one row span at a time.

    alpha * exp(-q / 2) >= ALPHA_MIN is the ellipse q(dx, dy) <= L =
    2 ln(alpha / ALPHA_MIN). Its rows are those whose pixel centres lie
    within sqrt(L var_y) of the splat centre, var_y = cov2[1, 1], clipped to
    the frame. On a row whose centres sit dy below the splat centre it holds
    the offsets dx between (-b dy - sqrt(disc)) / a and (-b dy + sqrt(disc)) / a,
    with (a, b, c) the conic and disc = a L - dy^2 (a c - b^2); a row with
    disc < 0 is empty. The span becomes the columns whose centres it holds,
    clipped to the frame, so a splat beside the frame walks its rows and
    emits nothing.

    Fragments are emitted splat by splat in `order`, front to back, so that
    the per-pixel fragment sequences come out depth-ordered; each splat's
    rows come top to bottom, each row left to right. So the fragments of one
    row span are contiguous and share their splat, row and dy, and the spans
    of one splat are contiguous. Returns (sidx, col, row, gauss, dx, dy,
    spans): per fragment the splat index (into center2, conic, var_y and
    alpha), pixel column and row, kernel value exp(-q/2), and the offset of
    the pixel center from the splat center; spans = (first, dy, sidx) holds
    each non-empty span's first fragment, dy and splat index.
    """
    level = 2.0 * np.log(alpha / ALPHA_MIN)
    half_y = np.sqrt(level * np.maximum(var_y, 0.0))
    y0 = np.maximum(np.ceil(center2[:, 1] - half_y - 0.5), 0).astype(np.int64)
    y1 = np.minimum(np.floor(center2[:, 1] + half_y - 0.5), height - 1).astype(np.int64)
    nrows = np.maximum(y1 - y0 + 1, 0)[order]
    rsid = np.repeat(order, nrows)
    row_r = y0[rsid] + np.arange(len(rsid)) - np.repeat(np.cumsum(nrows) - nrows, nrows)
    cx_r, cy_r = center2[rsid].T
    dy_r = (row_r + 0.5) - cy_r
    a_, b_, c_ = conic[rsid].T
    disc = a_ * level[rsid] - dy_r * dy_r * (a_ * c_ - b_ * b_)
    half = np.sqrt(np.maximum(disc, 0.0)) / a_
    mid = cx_r - 0.5 - b_ * dy_r / a_
    # clipped on both sides so that a span far off the frame casts to intp
    c0 = np.clip(np.ceil(mid - half), 0, width)
    c1 = np.minimum(np.floor(mid + half), width - 1)
    counts = np.where(disc >= 0.0, np.maximum(c1 - c0 + 1, 0), 0).astype(np.intp)
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    filled = np.flatnonzero(counts)
    spans = (first[filled], dy_r[filled], rsid[filled])
    if total == 0:
        return (np.empty(0, dtype=np.intp),) * 3 + (np.empty(0),) * 3 + (spans,)
    # row values are repeated over their spans, never gathered per fragment
    sidx = np.repeat(rsid, counts)
    row = np.repeat(row_r, counts)
    col = np.arange(total) - np.repeat(first - c0.astype(np.intp), counts)
    dx = (col + 0.5) - np.repeat(cx_r, counts)
    dy = np.repeat(dy_r, counts)
    # 2 b and c dy^2 are per-row constants, formed once per row
    q = (np.repeat(a_, counts) * dx * dx + np.repeat(2.0 * b_, counts) * dx * dy
         + np.repeat(c_ * dy_r * dy_r, counts))
    gauss = np.exp(-0.5 * q)
    return sidx, col, row, gauss, dx, dy, spans


def _frag_alpha(raw):
    """Fragment alpha min(max(2 (raw - ALPHA_MIN), 0), raw, ALPHA_CLAMP) of
    the raw value raw = alpha * exp(-q/2): 3DGS's min(raw, ALPHA_CLAMP) from
    raw = 2 ALPHA_MIN up, and a linear ramp to 0 at the level set below."""
    alpha = np.maximum(2.0 * (raw - ALPHA_MIN), 0.0)
    np.minimum(alpha, raw, out=alpha)
    return np.minimum(alpha, ALPHA_CLAMP, out=alpha)


def _alpha_slope(raw):
    """d alpha / d raw of `_frag_alpha` as int8: 2 on the ramp, 1 in the
    body, 0 outside the level set and under the clamp, that is 2 for
    ALPHA_MIN < raw < 2 ALPHA_MIN, 1 for 2 ALPHA_MIN <= raw < ALPHA_CLAMP
    and 0 elsewhere. These are the branches `_frag_alpha` takes in floating
    point too: raw - ALPHA_MIN is exact for raw within a factor 2 of
    ALPHA_MIN, and 2 (raw - ALPHA_MIN) >= raw after rounding above it."""
    slope = np.less(raw, 2.0 * ALPHA_MIN).view(np.int8) + np.less(raw, ALPHA_CLAMP).view(np.int8)
    slope *= np.greater(raw, ALPHA_MIN).view(np.int8)
    return slope


def _sort_packed(high):
    """Positions of `high` (non-negative ints) ordered by value, ties by
    position: the stable argsort, found by one value sort of the unique keys
    (high << b) | position, b the bits of the largest position. Returns
    (positions, sorted high). InvalidParameterError if a key needs more than
    63 bits."""
    b = (len(high) - 1).bit_length()
    if int(high.max()).bit_length() + b > 63:
        raise InvalidParameterError(
            f"sort key of {len(high)} values up to {int(high.max())} passes 63 bits")
    key = (high.astype(np.int64, copy=False) << b) | np.arange(len(high))
    key.sort()
    return key & ((1 << b) - 1), key >> b


def _layer_major(px):
    """Layer-major layout of fragments that are front-to-back within a pixel.

    Returns (perm, off, width): layout position off[j] + g holds fragment
    perm[off[j] + g], the j-th fragment of the g-th pixel when pixels are
    ranked by fragment count, deepest first (ties in ascending pixel order).
    Pixels with more than j fragments are exactly the first width[j] ranks.

    Both orders are stable sorts done as value sorts of packed int64 keys
    (`_sort_packed`): fragments by pixel, and pixel groups by
    (max_count - count, group). px must be non-negative.
    """
    n = len(px)
    if n == 0:
        return (np.empty(0, dtype=np.intp),) * 3
    order, spx = _sort_packed(px)
    is_start = np.empty(n, dtype=bool)
    is_start[:1] = True
    is_start[1:] = spx[1:] != spx[:-1]
    starts = np.flatnonzero(is_start)
    counts = np.diff(np.append(starts, n))
    rank = np.arange(n) - np.repeat(starts, counts)
    slot = np.empty(len(counts), dtype=np.intp)
    slot[_sort_packed(counts.max() - counts)[0]] = np.arange(len(counts))
    width = np.bincount(rank)
    off = np.cumsum(width) - width
    perm = np.empty(n, dtype=np.intp)
    perm[off[rank] + np.repeat(slot, counts)] = order
    return perm, off, width


def _composite_ordered(px, frag_alpha, color, sidx):
    """Sequential per-pixel over-compositing of depth-ordered fragments.

    px: flat pixel index per fragment, fragments front-to-back within a pixel;
    fragment i has alpha frag_alpha[i] and its splat's color color[sidx[i]],
    color being (K, 3). It puts the fragments in layer-major order, gathers
    their colors once, in that order, and blends one whole layer j, the block
    [off[j], off[j] + width[j]), per pass. Each pixel's result is
    bit-identical to a loop over that pixel alone.

    Returns (unique_px, color_sum, final_T, perm, T_frag, off, width, sa,
    sc), one entry per pixel group in layout order, color_sum channel-major
    (3, G). perm maps a layout position to its fragment; T_frag, sa and sc
    are the transmittance in front of, the alpha and the color of each
    layout position, sc channel-major (3, N).
    """
    perm, off, width = _layer_major(px)
    sa = frag_alpha[perm]
    sc = np.take(np.ascontiguousarray(color.T), sidx[perm], axis=1)
    groups = int(width[0]) if len(width) else 0
    unique_px = px[perm[:groups]]
    trans = np.ones(groups)
    color_sum = np.zeros((3, groups))
    t_frag = np.empty(len(sa))
    # per-layer products go to buffers sized for the widest layer, the first
    w_buf, c_buf = np.empty(groups), np.empty((3, groups))
    for o, k in zip(off.tolist(), width.tolist()):
        s = slice(o, o + k)
        t = trans[:k]
        t_frag[s] = t
        a = sa[s]
        w = np.multiply(a, t, out=w_buf[:k])
        color_sum[:, :k] += np.multiply(w, sc[:, s], out=c_buf[:, :k])
        t *= np.subtract(1.0, a, out=w_buf[:k])
    return unique_px, color_sum, trans, perm, t_frag, off, width, sa, sc


def _composite_backward(sa, sc, trans_final, t_frag, off, width):
    """The blend's alpha gradient factors, without the upstream gradient.

    Walks the layer-major layout of `_composite_ordered` from the deepest
    layer to the front, one slice per layer, so every pixel sees its own
    fragments back to front in the same operation order as a per-pixel loop.
    sa, t_frag per layout position and sc (3, N); off, width as returned by
    `_composite_ordered`. The final pixel is
    C = sum_i a_i c_i T_i + T_N * BACKGROUND; `behind` (3, G) tracks the
    composited color strictly behind the current fragment including the
    background term, so dC/da_i = c_i T_i - behind_i / (1 - a_i) covers the
    T_N path too. Returns that factor per channel, (3, N), and at = sa * t_frag,
    per layout position; an upstream gradient u gives the alpha gradient
    (fac_0 u_0 + fac_1 u_1) + fac_2 u_2 (`_fragment_terms`).
    """
    fac = np.empty((3, len(sa)))
    behind = BACKGROUND[:, None] * trans_final
    # the per-position factors at once; the (3, k) quotients go to a buffer
    one_minus, at = 1.0 - sa, sa * t_frag
    d_buf = np.empty_like(behind)
    for o, k in zip(off.tolist()[::-1], width.tolist()[::-1]):
        s = slice(o, o + k)
        c = sc[:, s]
        behind_k = behind[:, :k]
        # c t - behind / (1 - a)
        f = np.multiply(c, t_frag[s], out=fac[:, s])
        f -= np.divide(behind_k, one_minus[s], out=d_buf[:, :k])
        behind_k += np.multiply(at[s], c, out=d_buf[:, :k])
    return fac, at


def _blend_factors(ctx):
    """`_composite_backward`'s factors in generation order, (3, N) and (N,),
    or None for a frame that kept no splat. It needs no loss gradient, so
    `render_with_gradients` runs it on the lane while the loss is formed."""
    if "composite" not in ctx:
        return None
    _, _, trans, perm, t_frag, off, width, sa, sc = ctx["composite"]
    fac, at = _composite_backward(sa, sc, trans, t_frag, off, width)
    fac_gen, at_gen = np.empty_like(fac), np.empty_like(at)
    for ch in range(3):
        fac_gen[ch][perm] = fac[ch]
    at_gen[perm] = at
    return fac_gen, at_gen


# --------------------------------------------------------------------------
# batch forward

def _forward(batch: GaussianBatch, t, cam: Camera):
    """Run the full pipeline on a parameter batch; returns (framebuffer, ctx).

    ctx carries every intermediate needed by the analytic backward pass.
    """
    if not np.isfinite(t):
        raise InvalidParameterError(f"timestamp must be finite, got {t!r}")
    if not (np.isfinite(batch.params).all() and np.isfinite(batch.sh).all()):
        raise InvalidParameterError("non-finite Gaussian parameters")
    ctx = {"batch": batch, "cam": cam}
    h_img, w_img = cam.height, cam.width
    geom = ga.build_covariance(batch.scale, batch.rotor_left, batch.rotor_right)
    cond = ga.condition_at_time(batch.mu, geom.cov, t)
    alpha_splat = batch.opacity * cond.w_t
    cam_pts = cond.mean3 @ cam.rotation.T + cam.translation
    keep = np.flatnonzero((cond.w_t >= ga.TEMPORAL_THRESHOLD)
                          & (cam_pts[:, 2] >= cam.near) & (cam_pts[:, 2] <= cam.far)
                          & (alpha_splat >= ALPHA_MIN))
    ctx.update(geom=geom, cond=cond, keep=keep)
    rgb = np.empty((h_img, w_img, 3))
    for ch in range(3):  # three strided fills: a (3,) broadcast loops 3 elements at a time
        rgb[..., ch] = BACKGROUND[ch]
    trans_img = np.ones((h_img, w_img))
    if len(keep) == 0:
        return Framebuffer(rgb, trans_img), ctx

    pts = cam_pts[keep]
    center2, k_mat, cov2 = project(pts, cond.cov3[keep], cam)
    a_, b_, c_ = cov2[:, 0, 0], cov2[:, 0, 1], cov2[:, 1, 1]
    det = a_ * c_ - b_ * b_
    conic = np.stack([c_ / det, -b_ / det, a_ / det], axis=1)

    u_dir = cond.mean3[keep] - cam.center
    u_norm = np.linalg.norm(u_dir, axis=1)
    dirs = u_dir / u_norm[:, None]
    basis = sh.eval_basis(dirs)
    # the SH term of the kept splats that hold a slot: `lit` indexes `keep`
    lit = np.flatnonzero(np.isin(keep, batch.held))
    coeffs = batch.sh[np.searchsorted(batch.held, keep[lit])].reshape(-1, sh.NUM_RESIDUAL_BASES, 3)
    color_raw = batch.base_color[keep]
    color_raw[lit] += np.einsum("nb,nbc->nc", basis[lit], coeffs)
    color = np.clip(color_raw, 0.0, 1.0)

    # fragments are generated front to back: the back-to-front order reversed
    front = depth_sort(pts[:, 2], batch.ids[keep])[::-1]
    alpha_k = alpha_splat[keep]
    sidx, col, row, gauss, dx, _, spans = _build_fragments(
        center2, conic, cov2[:, 1, 1], alpha_k, front, w_img, h_img)
    raw = alpha_k[sidx] * gauss
    frag_alpha = _frag_alpha(raw)
    px = row * w_img + col

    ctx.update(cam_pts=pts, k_mat=k_mat, conic=conic, u_norm=u_norm, dirs=dirs,
               basis=basis, lit=lit, coeffs=coeffs, color_raw=color_raw, gauss=gauss,
               dx=dx, px=px, spans=spans, raw=raw)

    ctx["composite"] = _composite_ordered(px, frag_alpha, color, sidx)
    unique_px, csum, trans = ctx["composite"][:3]
    rgb.reshape(-1, 3)[unique_px] = (csum + trans * BACKGROUND[:, None]).T
    trans_img.reshape(-1)[unique_px] = trans
    return Framebuffer(rgb, trans_img), ctx


def render_batch(batch: GaussianBatch, t, cam: Camera):
    """Render a parameter batch at timestamp t."""
    fb, _ = _forward(batch, t, cam)
    return fb


def render(h, t, cam: Camera):
    """Render the hierarchy's working set at timestamp t."""
    return render_batch(h.materialize(h.query(t)), t, cam)


# --------------------------------------------------------------------------
# analytic backward

def _sym_matrix(a_, b_, c_):
    """Symmetric 2x2 [[a, b], [b, c]] from packed entries."""
    out = np.empty(a_.shape + (2, 2))
    out[..., 0, 0] = a_
    out[..., 0, 1] = b_
    out[..., 1, 0] = b_
    out[..., 1, 1] = c_
    return out


def _fragment_terms(ctx, dl_t, frags):
    """(7, n) gradient terms of the fragments `frags`, a slice of generation
    order: g, g dx, g dx^2, grad_raw * gauss and the three color gradients,
    where grad_raw is the loss gradient of the fragment's raw value
    alpha * gauss and g = -1/2 raw grad_raw that of its q. dl_t is the image
    gradient channel-major, (3, H W); ctx holds `_blend_factors`."""
    fac, at = (f[..., frags] for f in ctx["factors"])
    raw, gauss, dx, px = (ctx[name][frags] for name in ("raw", "gauss", "dx", "px"))
    terms = np.empty((7, len(raw)))
    g, g_dx, g_dx2, g_alpha, g_color = terms[0], terms[1], terms[2], terms[3], terms[4:]
    # each fragment's upstream gradient, read by the alpha and color terms
    for ch in range(3):
        np.take(dl_t[ch], px, out=g_color[ch])
    # the channel terms add in channel order, as np.sum over a pixel's three
    # channels does
    grad_raw = np.multiply(fac[0], g_color[0])
    prod = np.multiply(fac[1], g_color[1])
    grad_raw += prod
    grad_raw += np.multiply(fac[2], g_color[2], out=prod)
    grad_raw *= _alpha_slope(raw)
    np.multiply(grad_raw, gauss, out=g_alpha)
    np.multiply(raw, grad_raw, out=g)
    g *= -0.5
    np.multiply(g, dx, out=g_dx)
    np.multiply(g_dx, dx, out=g_dx2)
    # upstream * (alpha * T)
    g_color *= at
    return terms


def _span_sums(ctx, dl_t, starts, frags):
    """(7, len(starts)) sums of the `_fragment_terms` of the fragments
    `frags`, one per row span; `starts` holds the spans' first fragments,
    counted from frags.start."""
    return np.add.reduceat(_fragment_terms(ctx, dl_t, frags), starts, axis=1)


def _splat_sum(ctx, dl_flat):
    """Per kept splat: (grad_alpha, grad_conic, grad_center2, grad_color,
    touched), the fragment gradients summed once per row span, then once per
    splat.

    The fragments of a span share dy and the spans of a splat share its
    conic (a, b, c), so with G0, G1, G2 the span sums of g, g dx and g dx^2
    (`_fragment_terms`), g dy = dy G0, g dx dy = dy G1 and g dy^2 = dy^2 G0
    per span. Summed per splat: grad_conic = (sum G2, 2 sum dy G1,
    sum dy^2 G0), and with Sx = sum G1, Sy = sum dy G0, grad_center2 =
    -2 (a Sx + b Sy, b Sx + c Sy). A kept splat that owns no non-empty span
    gets zeros and is not touched.
    """
    nk, n = len(ctx["keep"]), len(ctx["px"])
    first, span_dy, span_sidx = ctx["spans"]
    # channel-major, read per fragment
    dl_t = np.ascontiguousarray(dl_flat.T)
    # the spans from the span start nearest n / 2 on are the back half, summed
    # on the lane
    bounds = np.append(first, n)
    cut = int(np.abs(bounds - n / 2).argmin())
    mid = int(bounds[cut])
    back, front = lane.beside(partial(_span_sums, ctx, dl_t, first[cut:] - mid, slice(mid, n)),
                              partial(_span_sums, ctx, dl_t, first[:cut], slice(0, mid)))
    per_span = np.concatenate([front, back], axis=1)
    g0, g1, g2 = per_span[:3]
    dy_g0 = span_dy * g0
    folded = np.concatenate([[g2, span_dy * g1, span_dy * dy_g0, g1, dy_g0], per_span[3:]])
    own = np.flatnonzero(np.diff(span_sidx, prepend=-1))
    sums = np.zeros((9, nk))
    sums[:, span_sidx[own]] = np.add.reduceat(folded, own, axis=1)
    touched = np.zeros(nk, dtype=bool)
    touched[span_sidx] = True
    a_, b_, c_ = ctx["conic"].T
    sx, sy = sums[3], sums[4]
    grad_conic = np.stack([sums[0], 2.0 * sums[1], sums[2]], axis=1)
    grad_center2 = -2.0 * np.stack([a_ * sx + b_ * sy, b_ * sx + c_ * sy], axis=1)
    return sums[5], grad_conic, grad_center2, sums[6:].T, touched


def _backward(ctx, dl_dimage):
    """Propagate an image gradient to all batch parameters, in the kept
    splats' rows: each gradient column is written once, at `keep`, and a
    culled row keeps its zeros."""
    batch, cam, keep = ctx["batch"], ctx["cam"], ctx["keep"]
    n = len(batch)
    grads = ParamGradients(np.zeros_like(batch.params), keep, np.zeros((0, sh.RESIDUAL_COEFFS)),
                           np.zeros(n), np.zeros(n, dtype=bool))
    if len(keep) == 0:
        return grads
    dt, cov3, w_t = ctx["cond"].dt[keep], ctx["cond"].cov3[keep], ctx["cond"].w_t[keep]
    grad_alpha, grad_conic, grad_center2, grad_color, grads.touched[keep] = _splat_sum(
        ctx, dl_dimage.reshape(-1, 3))

    # conic -> cov2 via d(X^-1) = -X^-1 dX X^-1
    conic_full = _sym_matrix(*ctx["conic"].T)
    # b is read twice in the symmetric matrix: its gradient splits in half
    g_conic_full = _sym_matrix(grad_conic[:, 0], grad_conic[:, 1] / 2.0, grad_conic[:, 2])
    grad_cov2 = -conic_full @ g_conic_full @ conic_full

    # cov2 = K cov3 K^T + lowpass I
    k_mat = ctx["k_mat"]
    grad_cov3 = np.einsum("nji,njk,nkl->nil", k_mat, grad_cov2, k_mat)
    grad_k = 2.0 * np.einsum("nij,njk,nkl->nil", grad_cov2, k_mat, cov3)
    grad_jac = grad_k @ cam.rotation.T

    # center2 and Jacobian entries -> camera-space mean
    x, y, z = ctx["cam_pts"].T
    inv_z = 1.0 / z
    inv_z2 = inv_z * inv_z
    grad_m = np.zeros((len(keep), 3))
    grad_m[:, 0] += grad_center2[:, 0] * cam.fx * inv_z
    grad_m[:, 1] += grad_center2[:, 1] * cam.fy * inv_z
    grad_m[:, 2] += (-grad_center2[:, 0] * cam.fx * x
                     - grad_center2[:, 1] * cam.fy * y) * inv_z2
    grad_m[:, 0] += grad_jac[:, 0, 2] * (-cam.fx * inv_z2)
    grad_m[:, 1] += grad_jac[:, 1, 2] * (-cam.fy * inv_z2)
    grad_m[:, 2] += (grad_jac[:, 0, 0] * (-cam.fx * inv_z2)
                     + grad_jac[:, 1, 1] * (-cam.fy * inv_z2)
                     + grad_jac[:, 0, 2] * (2.0 * cam.fx * x * inv_z2 * inv_z)
                     + grad_jac[:, 1, 2] * (2.0 * cam.fy * y * inv_z2 * inv_z))
    grad_mean3 = grad_m @ cam.rotation

    # color: clamp, SH contraction; the view direction of the `lit` splats only
    clamp_mask = (ctx["color_raw"] > 0.0) & (ctx["color_raw"] < 1.0)
    g_color_raw = grad_color * clamp_mask
    grads.base_color[keep] = g_color_raw
    grads.sh = (ctx["basis"][:, :, None] * g_color_raw[:, None, :]).reshape(len(keep), -1)
    lit, dirs = ctx["lit"], ctx["dirs"][ctx["lit"]]
    grad_basis = np.einsum("nbc,nc->nb", ctx["coeffs"], g_color_raw[lit])
    grad_dirs = np.einsum("nb,nbk->nk", grad_basis, sh.eval_basis_grad(dirs))
    dots = np.sum(dirs * grad_dirs, axis=1)
    grad_mean3[lit] += (grad_dirs - dirs * dots[:, None]) / ctx["u_norm"][lit, None]
    ndc = grad_center2 * np.array([cam.width / 2.0, cam.height / 2.0])
    grads.viewspace_norm[keep] = np.linalg.norm(ndc, axis=1)

    # alpha = opacity * w_t; the Gaussian's own parameters from `gaussians`
    grad_w = grad_alpha * batch.opacity[keep]
    grads.opacity[keep] = grad_alpha * w_t
    geom = ga.Geometry._make(a[keep] for a in ctx["geom"])
    grads.mu[keep], grads.scale[keep], grads.rotor_left[keep], grads.rotor_right[keep] = \
        ga.geometry_backward(batch.scale[keep], batch.rotor_left[keep], batch.rotor_right[keep],
                             geom, dt, w_t, grad_mean3, grad_cov3, grad_w)
    return grads


def render_with_gradients(batch: GaussianBatch, t, cam: Camera, target):
    """Render a parameter batch, compare against a target image and
    back-propagate. Returns (loss value, framebuffer, ParamGradients)."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (cam.height, cam.width, 3):
        raise InvalidParameterError(
            f"target shape {target.shape} does not match camera "
            f"({cam.height}, {cam.width}, 3)")
    if not np.isfinite(target).all():
        raise InvalidParameterError("target has a non-finite value")
    fb, ctx = _forward(batch, t, cam)
    ctx["factors"], (value, dl_dimage) = lane.beside(partial(_blend_factors, ctx),
                                                     partial(image_loss, fb.rgb, target))
    grads = _backward(ctx, dl_dimage)
    return value, fb, grads
