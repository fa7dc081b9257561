"""Property tests for the temporal hierarchy: the partition and minimality
that `audit()` checks survive random interleavings of writes, the member
index and `query` agree with a brute-force grouping of the store, batch
placement agrees with a brute-force scan and with testing every level, and a
failed batch update or remove, given an unknown or a repeated id, changes
nothing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from tgh import sh
from tgh.errors import InvalidParameterError, NotFoundError
from tgh.hierarchy import build

from conftest import placement_of, range_of
from test_hierarchy import (brute_force_indices, brute_force_placement, levels, placement,
                            time_gaussian)

DURATION = 40.0


def random_arrays(rng, n):
    """`insert_batch` arguments whose influence ranges span every level."""
    q = rng.normal(size=(2, n, 4))
    q /= np.linalg.norm(q, axis=2, keepdims=True)
    mu = np.column_stack([rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-2.0, DURATION + 2.0, n)])
    scale = np.exp(rng.uniform(np.log(1e-3), np.log(8.0), (n, 4)))
    return dict(mu=mu, scale=scale, rotor_left=q[0], rotor_right=q[1],
                opacity=rng.uniform(0.05, 1.0, n), base_color=rng.uniform(0.0, 1.0, (n, 3)),
                sh_residual=np.zeros((n, sh.RESIDUAL_COEFFS)))


def edit(h, gids, rng):
    """Move and stretch the given Gaussians in time, as a training step would."""
    rows = h.store.rows_of(gids)
    h.store.mu[rows, 3] = rng.uniform(-2.0, DURATION + 2.0, len(rows))
    h.store.scale[rows] = np.exp(rng.uniform(np.log(1e-3), np.log(8.0), (len(rows), 4)))


def brute_force_members(h):
    """{flat segment: ascending ids} grouped from the store's rows."""
    rows = h.store.live_rows()
    members = {}
    for gid, flat in zip(h.store.ids_at_rows(rows).tolist(), h.store.segment[rows].tolist()):
        members.setdefault(flat, []).append(gid)
    return {flat: sorted(ids) for flat, ids in members.items()}


def check_member_index(h, ts):
    """Each member array is a non-empty, strictly ascending int64 array equal
    to the brute-force grouping, and `query` at each of `ts` is its segments'
    ids, each segment's sorted, levels in order and then the global one."""
    expected = brute_force_members(h)
    assert sorted(h._members) == sorted(expected)
    for flat, members in h._members.items():
        assert isinstance(members, np.ndarray) and members.dtype == np.int64
        assert members.ndim == 1 and len(members) > 0 and np.all(np.diff(members) > 0)
        assert members.tolist() == expected[flat]
    for t in ts:
        flats = [*(h._first + h.query_indices(t)).tolist(), 0]  # 0: the global segment
        ids = h.query(t).gaussian_ids
        assert ids.dtype == np.int64
        assert ids.tolist() == [g for f in flats for g in expected.get(f, [])]


def snapshot(h):
    segments = {flat: members.tolist() for flat, members in h._members.items()}
    ids = h.store.ids
    return (segments, ids, [placement_of(h, g) for g in ids], [range_of(h, g) for g in ids],
            h.store.mu.copy(), h.store.scale.copy())


OPS = st.lists(st.tuples(st.sampled_from(["insert", "update", "remove"]),
                         st.integers(0, 2 ** 32 - 1), st.integers(1, 40)),
               min_size=1, max_size=12)


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(22551931376871140902370268054441700110451332448229032242057560136882974140657704828160714365617662346466513472602716)
@settings(max_examples=30)
@given(ops=OPS)
def test_random_interleavings_keep_invariants(ops):
    h = build(DURATION)
    alive = []
    for op, seed, k in ops:
        rng = np.random.default_rng(seed)
        if op == "insert" or not alive:
            alive += h.insert_batch(**random_arrays(rng, k)).tolist()
        elif op == "update":
            chosen = rng.choice(alive, size=min(k, len(alive)), replace=False)
            edit(h, chosen, rng)
            pairs = h.update_levels(chosen)
            assert len(pairs) == len(chosen)
            for gid, (_, new) in zip(chosen.tolist(), pairs):
                assert new == placement_of(h, gid) == brute_force_placement(h, *range_of(h, gid))
        else:
            h.remove([alive.pop(int(rng.integers(len(alive))))
                      for _ in range(min(k, len(alive)))])
        h.audit()
        check_member_index(h, rng.uniform(0.0, DURATION, 5))
        per_level, per_segment = h.occupancy()
        assert len(h) == len(alive) == len(h.store)
        assert sum(per_level.values()) == sum(per_segment.values()) == len(alive)
        assert h.store.ids == sorted(alive)


def test_update_files_ids_by_id_not_by_position():
    """`update_levels` takes ids in working-set order, not ascending; ids
    moved from several segments into one land in it ascending, whether the
    segment was empty, holds larger ids (a merge) or only smaller ones (an
    append)."""
    rng = np.random.default_rng(5)
    h = build(DURATION)
    old = h.insert_batch(**random_arrays(rng, 40))
    new = h.insert_batch(**random_arrays(rng, 10))
    level = levels(h)[-1]
    t = level.offset + 512.5 * level.seg_length  # centre of a deepest segment
    [target] = h._find_placements(np.array([t - 1e-3]), np.array([t + 1e-3])).tolist()
    assert target not in h._members

    def move(gids):
        rows = h.store.rows_of(gids)
        h.store.mu[rows, 3] = t
        h.store.scale[rows] = 1e-3  # influence radius ~2.4e-3 at any rotation
        h.update_levels(gids)

    first = [old[i] for i in (31, 4, 17, 9, 25)]
    assert len({placement_of(h, g) for g in first}) > 1
    move(first)
    assert h._members[target].tolist() == sorted(first)
    move([new[2], old[0], old[20]])                       # merges around held ids
    assert h._members[target].tolist() == sorted(first + [new[2], old[0], old[20]])
    move([new[9], new[5]])                                # appends
    held = sorted(first + [new[2], old[0], old[20], new[9], new[5]])
    assert h._members[target].tolist() == held
    h.remove([old[17], new[9]])
    assert h._members[target].tolist() == [g for g in held if g not in (old[17], new[9])]
    h.audit()
    check_member_index(h, [t, *rng.uniform(0.0, DURATION, 5)])


def test_member_index_at_flat_indices_near_2_to_53():
    """A batch whose flat segments span ~2^53 and whose ids span 2^11 needs
    64 bits for a packed (segment, id) key; filing it still sorts by
    segment, then id."""
    h = build(1.7e14)
    rng = np.random.default_rng(3)
    n = 3000
    mu_t = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1e3, n),
                    rng.uniform(1.7e14 - 1e3, 1.7e14, n))
    radius = np.where(rng.random(n) < 0.1, 1e15, np.exp(rng.uniform(np.log(1e-3), 0.0, n)))
    ids = h.insert_batch(**time_gaussian(mu_t, radius))
    assert max(h._members) > 2 ** 52 and 0 in h._members
    h.audit()
    check_member_index(h, [0.0, 500.0, 1.7e14 - 500.0, 1.7e14])
    chosen = rng.permutation(ids)[:1500]
    rows = h.store.rows_of(chosen)
    h.store.mu[rows, 3] = h.store.mu[rows[::-1], 3]  # swap timestamps between chosen
    h.update_levels(chosen)
    h.remove(rng.permutation(ids)[:1000])
    h.audit()
    check_member_index(h, [0.0, 500.0, 1.7e14 - 500.0, 1.7e14])


def boundary_ranges(h, data, count):
    """Ranges whose ends sit exactly on segment boundaries, or an ulp away.

    Widths are positive: an influence range has a positive radius, and a
    zero-width range on a boundary lies in two segments, where the brute
    force takes the earlier one and the hierarchy the one a query at that
    timestamp returns.
    """
    starts, ends = [], []
    for _ in range(count):
        lv = levels(h)[data.draw(st.integers(0, h.num_levels - 1))]
        n = data.draw(st.integers(0, lv.count - 1))
        a, b = lv.span(n)
        start = data.draw(st.sampled_from([a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf)])
                          | st.floats(a - lv.seg_length, b))
        end = data.draw(st.sampled_from([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)])
                        | st.floats(start, b + lv.seg_length))
        starts.append(float(start))
        ends.append(max(float(end), float(np.nextafter(start, np.inf))))
    return starts, ends


def edge_ranges(duration):
    """Ranges out at +-1e18 and +-1e308, and ranges wholly before 0 or after
    the duration."""
    return [(-1e308, 1e308), (-1e308, -1e18), (1e18, 1e308), (-1e18, 1e18),
            (-1e308, 1.0), (1.0, 1e18), (1e18, 1e18 + 1e3), (1e308, 1e308),
            (-1e308, -1e308), (-3.0, -2.9), (-0.5, -0.1), (-0.01, -0.001),
            (duration + 0.001, duration + 0.002), (duration + 1.0, duration + 2.0),
            (duration + 50.0, duration + 60.0)]


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; this seed fixes them, so that an edit to the body keeps its cases.
@seed(17909529640588843448530858852399247270444608794347068319469909138829500235418035216064945544367668736431341864941307)
@settings(max_examples=30)
@given(num_levels=st.integers(1, 9), duration=st.sampled_from([10.0, 40.0, 123.4]),
       data=st.data())
def test_batch_placement_matches_brute_force(num_levels, duration, data):
    h = build(duration, num_levels=num_levels)
    starts, ends = boundary_ranges(h, data, 25)
    wide = data.draw(st.lists(st.tuples(st.floats(-20.0, duration + 20.0),
                                        st.floats(1e-9, 2.0 * duration)), max_size=25))
    starts += [s for s, _ in wide]
    ends += [s + w for s, w in wide]
    rng = np.random.default_rng(len(starts))
    starts += [s for s, _ in edge_ranges(duration)]
    ends += [e for _, e in edge_ranges(duration)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow at the extremes
        flat = h._find_placements(np.array(starts), np.array(ends))
        expected = [brute_force_placement(h, s, e) for s, e in zip(starts, ends)]
        assert h._placements(flat) == expected
        for s, e, want in zip(starts, ends, expected):
            assert placement(h, s, e) == want
        h.insert_batch(**random_arrays(rng, 5))
        h.audit()
        # 0, the duration and every level boundary between them
        bounds = [lv.offset + np.arange(lv.count + 1) * lv.seg_length for lv in levels(h)]
        ts = np.unique(np.concatenate([[0.0, duration], *bounds]))
        ts = ts[(ts >= 0.0) & (ts <= duration)]
        for t, want in zip(ts.tolist(), brute_force_indices(h, ts).tolist()):
            assert h.query_indices(t) == want


def all_levels_placements(h, start, end):
    """Flat index of the deepest segment containing each [start, end], found
    by testing every level of the documented geometry. Per level: the index
    n of the segment holding start, floor((start - offset) / seg_length)
    moved by one where rounding crossed a boundary, and a fit where
    0 <= n < count and end <= offset + (n + 1) * seg_length. Starts are first
    clipped to [-2S, D + 2S], past every segment. Flat index 0 is the global
    segment, then each level's segments in order."""
    lv = levels(h)
    offset = np.array([[level.offset] for level in lv])
    seg_length = np.array([[level.seg_length] for level in lv])
    count = np.array([[level.count] for level in lv])
    first = 1 + np.cumsum([0] + [level.count for level in lv[:-1]])[:, None]
    t = np.clip(start, -2.0 * h.root_length, h.duration + 2.0 * h.root_length)
    n = np.floor((t - offset) / seg_length)
    n += t >= offset + (n + 1) * seg_length
    n -= t < offset + n * seg_length
    fits = (n >= 0) & (n < count) & (end <= offset + (n + 1) * seg_length)
    return np.where(fits, first + n, 0).max(axis=0).astype(np.int64)


def ulps(x):
    """x and its two float neighbours."""
    return [float(np.nextafter(x, -np.inf)), float(x), float(np.nextafter(x, np.inf))]


def adversarial_ranges(h, data, count):
    """Ranges that start at a segment edge or an ulp from it and end at the
    segment's other edge, or a segment length of this level or a neighbour
    later, each an ulp either way; some start below 0 or end past the
    duration."""
    lv = levels(h)
    starts, ends = [], []
    for _ in range(count):
        level = lv[data.draw(st.integers(0, h.num_levels - 1))]
        n = data.draw(st.sampled_from([0, 1, level.count - 1, level.count])
                      | st.integers(-1, level.count))
        a, b = level.span(n)
        start = data.draw(st.sampled_from(ulps(a)))
        lengths = [lv[max(level.index - 1, 0)].seg_length, level.seg_length,
                   lv[min(level.index + 1, h.num_levels - 1)].seg_length]
        length = data.draw(st.sampled_from(lengths))
        end = data.draw(st.sampled_from(ulps(b) + ulps(start + length)))
        starts.append(start)
        ends.append(max(end, start))
    return starts, ends


# num_levels 1-32 at exact and inexact root lengths, and a geometry whose
# 511 * 1.7e13 segments come near the 2^53 that flat indices allow
GEOMETRIES = (st.tuples(st.sampled_from([0.5, 10.0, 40.0, 123.4]),
                        st.sampled_from([0.3, 7.3, 10.0]), st.integers(1, 32))
              | st.just((1.7e14, 10.0, 9)))


@settings(max_examples=60)
@given(geometry=GEOMETRIES, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_find_placements_matches_every_level(geometry, seed, data):
    """The levels `_find_placements` skips could hold none of the ranges:
    it agrees with testing every level, which is also what `audit()`
    checks minimality against."""
    duration, root_length, num_levels = geometry
    h = build(duration, root_length=root_length, num_levels=num_levels)
    starts, ends = adversarial_ranges(h, data, 40)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-root_length, duration + root_length, 400)
    radii = root_length * np.exp(rng.uniform(np.log(1e-4), np.log(2.0), 400))
    starts += (centers - radii).tolist() + [s for s, _ in edge_ranges(duration)]
    ends += (centers + radii).tolist() + [e for _, e in edge_ranges(duration)]
    start, end = np.array(starts), np.array(ends)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow at the extremes
        expected = all_levels_placements(h, start, end)
        assert np.array_equal(h._find_placements(start, end), expected)
        # one by one, and within a batch too large for one pass over all tries
        for i in range(0, len(start), 37):
            assert h._find_placements(start[i:i + 1], end[i:i + 1]).tolist() == [expected[i]]
        many = rng.integers(0, len(start), 5000)
        assert np.array_equal(h._find_placements(start[many], end[many]), expected[many])


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 30), data=st.data())
def test_update_with_unknown_id_changes_nothing(seed, n, data):
    rng = np.random.default_rng(seed)
    h = build(DURATION)
    ids = h.insert_batch(**random_arrays(rng, n)).tolist()
    removed = ids.pop(data.draw(st.integers(0, n - 1)))
    h.remove([removed])
    unknown = data.draw(st.sampled_from([removed, ids[-1] + 1, 10 ** 9, -1]))
    gids = ids.copy()
    gids.insert(data.draw(st.integers(0, len(gids))), unknown)
    edit(h, ids, rng)
    for write in (h.update_levels, h.remove):
        before = snapshot(h)
        with pytest.raises(NotFoundError):
            write(gids)
        after = snapshot(h)
        assert before[:4] == after[:4]
        assert np.array_equal(before[4], after[4]) and np.array_equal(before[5], after[5])
    h.update_levels(ids)
    h.audit()


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), data=st.data())
def test_update_with_repeated_id_changes_nothing(seed, n, data):
    # filing an id twice would put it in a segment twice, and `query` would
    # return it twice
    rng = np.random.default_rng(seed)
    h = build(DURATION)
    ids = h.insert_batch(**random_arrays(rng, n)).tolist()
    gids = ids.copy()
    gids.insert(data.draw(st.integers(0, n)), data.draw(st.sampled_from(ids)))
    edit(h, ids, rng)
    for write in (h.update_levels, h.remove):
        before = snapshot(h)
        with pytest.raises(InvalidParameterError):
            write(gids)
        after = snapshot(h)
        assert before[:4] == after[:4]
        assert np.array_equal(before[4], after[4]) and np.array_equal(before[5], after[5])
    h.update_levels(ids)
    h.audit()
    check_member_index(h, rng.uniform(0.0, DURATION, 5).tolist())
