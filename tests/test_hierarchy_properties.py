"""Property tests for the temporal hierarchy: the partition and minimality
that `audit()` checks survive random interleavings of writes, batch
placement agrees with a brute-force scan, and a failed batch update or
remove changes nothing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from tgh import sh
from tgh.errors import NotFoundError
from tgh.hierarchy import build

from test_hierarchy import brute_force_indices, brute_force_placement, levels, placement

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


def snapshot(h):
    segments = {flat: set(members) for flat, members in h._members.items()}
    ids = h.store.ids
    return (segments, ids, [h.placement_of(g) for g in ids], [h.range_of(g) for g in ids],
            h.store.mu.copy(), h.store.scale.copy())


OPS = st.lists(st.tuples(st.sampled_from(["insert", "update", "remove"]),
                         st.integers(0, 2 ** 32 - 1), st.integers(1, 40)),
               min_size=1, max_size=12)


@settings(max_examples=30)
@given(ops=OPS)
def test_random_interleavings_keep_invariants(ops):
    h = build(DURATION)
    alive = []
    for op, seed, k in ops:
        rng = np.random.default_rng(seed)
        if op == "insert" or not alive:
            alive += h.insert_batch(**random_arrays(rng, k))
        elif op == "update":
            chosen = rng.choice(alive, size=min(k, len(alive)), replace=False)
            edit(h, chosen, rng)
            pairs = h.update_levels(chosen)
            assert len(pairs) == len(chosen)
            for gid, (_, new) in zip(chosen.tolist(), pairs):
                assert new == h.placement_of(gid) == brute_force_placement(h, *h.range_of(gid))
        else:
            h.remove([alive.pop(int(rng.integers(len(alive))))
                      for _ in range(min(k, len(alive)))])
        h.audit()
        per_level, per_segment = h.occupancy()
        assert len(h) == len(alive) == len(h.store)
        assert sum(per_level.values()) == sum(per_segment.values()) == len(alive)
        assert h.store.ids == sorted(alive)


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


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 30), data=st.data())
def test_update_with_unknown_id_changes_nothing(seed, n, data):
    rng = np.random.default_rng(seed)
    h = build(DURATION)
    ids = h.insert_batch(**random_arrays(rng, n))
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
