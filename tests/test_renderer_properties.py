"""Property tests for the renderer invariants: batch-order independence,
exactness of the SH term's skip for diffuse splats and transmittance bounds,
on small random scenes drawn by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from tgh import renderer as rn
from tgh.camera import Camera
from tgh.errors import InvalidParameterError
from tgh.store import GaussianBatch

from conftest import batch_of_columns, batch_rows, grad_columns, joined

SIZE = 16
GRAD_GROUPS = ("mu", "scale", "rotor_left", "rotor_right", "opacity",
               "base_color", "sh_residual", "viewspace_norm", "touched")


def camera():
    return Camera(fx=24.0, fy=24.0, cx=SIZE / 2.0, cy=SIZE / 2.0,
                  rotation=np.eye(3), translation=np.zeros(3),
                  width=SIZE, height=SIZE, near=0.1, far=100.0)


def unit_rows(rng, n):
    v = rng.normal(size=(n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_batch(seed, n):
    """n overlapping Gaussians in front of `camera()`, alive around t = 1."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(10 * n)[:n].astype(np.int64)
    return batch_of_columns(dict(
            mu=np.column_stack([rng.uniform(-0.8, 0.8, (n, 2)), rng.uniform(3.0, 7.0, n),
                                rng.uniform(0.8, 1.2, n)]),
            scale=np.column_stack([rng.uniform(0.05, 0.8, (n, 3)), rng.uniform(0.1, 0.5, n)]),
            rotor_left=unit_rows(rng, n),
            rotor_right=unit_rows(rng, n),
            opacity=rng.uniform(0.05, 1.0, n),
            base_color=rng.uniform(0.0, 1.0, (n, 3)),
            sh_residual=rng.normal(scale=0.1, size=(n, 45))), ids)


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(10530999069302283498793760580245582015933045249322294319922469031925756708533250071253245115921741967692811208988483)
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), data=st.data())
def test_batch_order_does_not_change_output(seed, n, data):
    """Reordering the batch rows with their ids leaves the image and loss
    bit-identical and reorders every gradient group the same way."""
    perm = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    batch = random_batch(seed, n)
    cam = camera()
    target = np.random.default_rng(seed).uniform(size=(SIZE, SIZE, 3))
    loss, fb, grads = rn.render_with_gradients(batch, 1.0, cam, target)
    loss_p, fb_p, grads_p = rn.render_with_gradients(batch_rows(batch, perm), 1.0, cam, target)
    assert loss_p == loss
    assert np.array_equal(fb_p.rgb, fb.rgb)
    assert np.array_equal(fb_p.transmittance, fb.transmittance)
    for name in GRAD_GROUPS:
        assert np.array_equal(grad_columns(grads_p)[name], grad_columns(grads)[name][perm]), name


def culled_copies(batch, rows, t, cam):
    """Copies of `batch`'s `rows` with fresh ids, culled in turn by the
    temporal factor (mu_t 50 s away), by depth (the mean at the camera centre
    at t) and by opacity (1e-4, below ALPHA_MIN)."""
    copy = batch_rows(batch, rows)
    copy.ids = batch.ids.max() + 1 + np.arange(len(rows), dtype=np.int64)
    kind = np.arange(len(rows)) % 3
    copy.mu[kind == 0, 3] += 50.0
    copy.mu[kind == 1] = np.append(cam.center, t)
    copy.opacity[kind == 2] = 1e-4
    return copy


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(71931760254489127634401879937566320041858274623910585174062098391732648160912)
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 10), data=st.data())
def test_culled_rows_change_no_gradient(seed, n, data):
    """Culled copies mixed into the batch leave the image, the loss and every
    gradient of the original rows bit-identical, and get exact zeros."""
    t, cam = 1.0, camera()
    batch = random_batch(seed, n)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=9)))
    extra = culled_copies(batch, rows, t, cam)
    both = joined(batch, extra)
    perm = np.array(data.draw(st.permutations(range(len(both)))), dtype=np.intp)
    target = np.random.default_rng(seed).uniform(size=(SIZE, SIZE, 3))
    loss, fb, grads = rn.render_with_gradients(batch, t, cam, target)
    loss_x, fb_x, grads_x = rn.render_with_gradients(batch_rows(both, perm), t, cam, target)
    assert loss_x == loss
    assert np.array_equal(fb_x.rgb, fb.rgb)
    # position in the permuted batch of each original row and of each copy
    where = np.argsort(perm)
    for name in GRAD_GROUPS:
        got = grad_columns(grads_x)[name]
        assert np.array_equal(got[where[:n]], grad_columns(grads)[name]), name
        assert not np.any(got[where[n:]]), name


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(61803398874989484820458683436563811772030917980576286213544862270526046281890)
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), data=st.data())
def test_zeroed_slot_renders_as_diffuse(seed, n, data):
    """The renderer skips the SH term of a splat that holds no slot. That
    is exact: the same splats, some holding an all-+0.0 slot in one batch
    and diffuse in the other, give byte-identical images, the same loss and
    equal gradients."""
    t, cam = 1.0, camera()
    batch = random_batch(seed, n)
    diffuse = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    batch.sh[diffuse] = 0.0
    slotted = GaussianBatch(batch.ids, batch.params, batch.held, batch.sh)
    left_diffuse = GaussianBatch(batch.ids, batch.params, np.flatnonzero(~diffuse),
                                 batch.sh[~diffuse])
    target = np.random.default_rng(seed).uniform(size=(SIZE, SIZE, 3))
    loss, fb, grads = rn.render_with_gradients(slotted, t, cam, target)
    loss_d, fb_d, grads_d = rn.render_with_gradients(left_diffuse, t, cam, target)
    assert loss_d == loss
    assert fb_d.rgb.tobytes() == fb.rgb.tobytes()
    assert fb_d.transmittance.tobytes() == fb.transmittance.tobytes()
    assert np.array_equal(grads_d.keep, grads.keep)
    for name in ("params", "sh", "viewspace_norm", "touched"):
        assert np.array_equal(getattr(grads_d, name), getattr(grads, name)), name


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(26180705779817071846778421121710096855824193843337944819220368967095869777879123691240614868869159708526151227139045)
@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 24),
       alpha_clamp=st.floats(0.5, 1.0), t=st.floats(0.5, 1.5))
def test_transmittance_in_unit_interval(seed, n, alpha_clamp, t):
    batch = random_batch(seed, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rn, "ALPHA_CLAMP", alpha_clamp)
        fb = rn.render_batch(batch, t, camera())
    assert np.all(fb.transmittance >= 0.0) and np.all(fb.transmittance <= 1.0)
    assert np.all(np.isfinite(fb.rgb))


def stable_layer_major(px):
    """`_layer_major` by two stable argsorts, the formulation the packed-key
    sorts replace: fragments by pixel, then pixel groups by count, deepest
    first."""
    order = np.argsort(px, kind="stable")
    spx = px[order]
    n = len(spx)
    is_start = np.empty(n, dtype=bool)
    is_start[:1] = True
    is_start[1:] = spx[1:] != spx[:-1]
    starts = np.flatnonzero(is_start)
    counts = np.diff(np.append(starts, n))
    rank = np.arange(n) - np.repeat(starts, counts)
    slot = np.empty(len(counts), dtype=np.intp)
    slot[np.argsort(-counts, kind="stable")] = np.arange(len(counts))
    width = np.bincount(rank)
    off = np.cumsum(width) - width
    perm = np.empty(n, dtype=np.intp)
    perm[off[rank] + np.repeat(slot, counts)] = order
    return perm, off, width


def assert_same_layout(px):
    px = np.asarray(px, dtype=np.int64)
    for new, ref in zip(rn._layer_major(px), stable_layer_major(px)):
        assert np.array_equal(new, ref)


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(48151623421597302958314410926193385461780284527001968306152049173612099471254)
@settings(max_examples=40)
@given(pool=st.lists(st.integers(0, 2 ** 44), min_size=1, max_size=12),
       n=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
def test_layer_major_matches_stable_argsorts(pool, n, seed):
    """Pixels drawn from a pool of at most 12 values, so most fragments tie
    with many others; values up to 2^44 keep the key within 63 bits."""
    assert_same_layout(np.random.default_rng(seed).choice(pool, n))


@pytest.mark.parametrize("px", [[], [7], [0], [2 ** 61 - 1, 0, 5, 2 ** 61 - 1]],
                         ids=["empty", "one", "one_at_zero", "key_of_63_bits"])
def test_layer_major_edge_inputs(px):
    assert_same_layout(px)


@pytest.mark.parametrize("px", [[2 ** 62, 0], [2 ** 61] * 5, [2 ** 55] + [3] * 299],
                         ids=["64_bits", "65_bits", "65_bits_from_the_count"])
def test_layer_major_rejects_a_key_past_63_bits(px):
    with pytest.raises(InvalidParameterError):
        rn._layer_major(np.array(px, dtype=np.int64))
