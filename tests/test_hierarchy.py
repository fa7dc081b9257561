import math
import time
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from tgh import gaussians as ga
from tgh.errors import InvalidParameterError, NotFoundError, OutOfRangeError
from tgh.hierarchy import GLOBAL_LEVEL, AuditError, TemporalHierarchy, build
from tgh.store import COLUMNS, checked_columns

from conftest import columns_of, params, placement_of, random_params, range_of, stack

GLOBAL_SEGMENT = (GLOBAL_LEVEL, 0)  # the placement of a range no level segment contains


class Level(NamedTuple):
    index: int
    seg_length: float
    offset: float
    count: int                   # segments 0 .. count - 1 cover [0, duration]

    def span(self, n):
        return (self.offset + n * self.seg_length,
                self.offset + (n + 1) * self.seg_length)


def levels(h):
    """Each level of `h` by the documented formulas, from its construction
    arguments alone: segment length S / 2^l, offset -S / 2^(l+2), and as
    many segments as reach past the duration."""
    out = []
    for l in range(h.num_levels):
        seg_length, offset = h.root_length / 2.0 ** l, -h.root_length / 2.0 ** (l + 2)
        out.append(Level(l, seg_length, offset, math.ceil((h.duration - offset) / seg_length)))
    return out


def brute_force_placement(h, start, end):
    """Scan every (level, segment) pair; deepest containing segment wins."""
    best = GLOBAL_SEGMENT
    for lv in levels(h):
        n = np.arange(lv.count)
        a = lv.offset + n * lv.seg_length
        b = lv.offset + (n + 1) * lv.seg_length
        hits = np.flatnonzero((a <= start) & (end <= b))
        if hits.size:
            best = (lv.index, int(hits[0]))
    return best


def brute_force_indices(h, ts):
    """Per timestamp, each level's last segment starting at or before it."""
    starts = [lv.offset + np.arange(lv.count) * lv.seg_length for lv in levels(h)]
    return np.stack([np.minimum(b.searchsorted(ts, side="right") - 1, lv.count - 1)
                     for lv, b in zip(levels(h), starts)], axis=1)


def random_ranges(rng, n, duration):
    centers = rng.uniform(-5.0, duration + 5.0, size=n)
    radii = np.exp(rng.uniform(np.log(1e-4), np.log(duration), size=n))
    return np.stack([centers - radii, centers + radii], axis=1)


def time_gaussian(mu_t, radius):
    """Identity-rotor Gaussians, one per entry of `mu_t` and `radius`, whose
    influence radius is `radius`."""
    s_t = np.atleast_1d(radius) / math.sqrt(-2.0 * math.log(ga.TEMPORAL_THRESHOLD))
    return stack([params(mu=[0.0, 0.0, 0.0, m], scale=[1.0, 1.0, 1.0, s], opacity=0.5)
                  for m, s in zip(np.atleast_1d(mu_t).tolist(), s_t.tolist())])


def insert_ranges(h, ranges):
    """Insert Gaussians centred in `ranges` (rows of start, end) with their
    half-widths as influence radii; returns their ids and the ranges the
    hierarchy placed them by."""
    ids = h.insert_batch(**time_gaussian(ranges.mean(axis=1), (ranges[:, 1] - ranges[:, 0]) / 2))
    return ids, np.array([range_of(h, g) for g in ids])


def placement(h, start, end):
    """The segment the hierarchy places an influence range [start, end] in."""
    return h._placements(h._find_placements(np.array([start]), np.array([end])))[0]


class TestGeometry:
    def test_reference_level_sizes(self):
        h = build(duration=40.0, root_length=10.0, num_levels=9)
        assert h._seg_length[0] == 10.0
        assert h._seg_length[8] == 10.0 / 256 == 0.0390625
        assert h._offset[0] == -2.5
        assert h._offset[1] == -1.25
        assert h._offset[2] == -0.625

    def test_single_level_segment_count(self):
        h = build(duration=10.0, root_length=10.0, num_levels=1)
        assert len(h._count) == 1
        assert h._offset[0] == -2.5
        assert h._count[0] == math.ceil(12.5 / 10.0) == 2

    def test_segments_cover_duration(self):
        for T in (10.0, 40.0, 123.4):
            h = build(duration=T)
            for level in range(h.num_levels):
                first = h._edge(0, level)
                last = h._edge(h._count[level], level)  # the end of the last segment
                assert first <= 0.0 and last >= T

    def test_memory_independent_of_duration(self):
        def held_bytes(duration):
            tracemalloc.start()
            try:
                h = build(duration)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        build(10.0)
        assert abs(held_bytes(10_000.0) - held_bytes(10.0)) < 16 * 1024

    def test_invalid_parameters(self):
        for kwargs in (dict(duration=0.0), dict(duration=-1.0),
                       dict(duration=10.0, root_length=0.0),
                       dict(duration=10.0, num_levels=0),
                       dict(duration=10.0, num_levels=40)):
            with pytest.raises(InvalidParameterError):
                build(**kwargs)

    @pytest.mark.parametrize("geometry", [
        dict(num_levels=2.5), dict(num_levels="3"), dict(num_levels=math.nan),
        dict(num_levels=np.float64(3.0)), dict(root_length="5"), dict(root_length=math.nan),
        dict(root_length=math.inf), dict(root_length=np.array([5.0])), dict(num_levels=True)],
        ids=lambda geometry: "-".join(f"{k}={v!r}" for k, v in geometry.items()))
    def test_untyped_geometry_rejected(self, geometry):
        with pytest.raises(InvalidParameterError):
            build(10.0, **geometry)

    @pytest.mark.parametrize("geometry", [
        dict(duration=True), dict(duration=np.True_), dict(root_length=True),
        dict(root_length=False)],
        ids=lambda geometry: "-".join(f"{k}={v!r}" for k, v in geometry.items()))
    def test_bool_duration_or_root_length_rejected(self, geometry):
        with pytest.raises(InvalidParameterError):
            build(**{"duration": 10.0, **geometry})

    @pytest.mark.parametrize("geometry", [
        dict(duration=1e18), dict(duration=1e300), dict(duration=10.0, root_length=1e-300),
        dict(duration=1e300, root_length=1e-300), dict(duration=2e14)],
        ids=lambda geometry: "-".join(f"{k}={v!r}" for k, v in geometry.items()))
    def test_segment_count_past_exact_floats_rejected(self, geometry):
        # segment indices are computed in float64, exact only below 2^53
        with pytest.raises(InvalidParameterError):
            build(**geometry)

    def test_largest_segment_count_accepted(self):
        # 9 levels of a 10 s root: about 51.1 segments per second, 2^53 at ~1.76e14 s
        h = build(1.7e14)
        assert 1 + h._count.sum() < 2 ** 53
        last = h.query_indices(h.duration)
        assert last == (h._count - 1).tolist()
        assert all(h._edge(n, level) <= h.duration <= h._edge(n + 1, level)
                   for level, n in enumerate(last))

    def test_numpy_geometry_accepted(self):
        h = build(np.float64(10.0), root_length=np.float32(5.0), num_levels=np.int64(3))
        assert len(h._count) == 3 and h._seg_length[0] == 5.0


class TestPlace:
    def test_mid_scale_range(self):
        # [3.0, 4.2] straddles the level-3 boundary at 3.4375 but fits the
        # level-2 segment [1.875, 4.375): deepest containing wins
        h = build(duration=40.0)
        assert placement(h, 3.0, 4.2) == brute_force_placement(h, 3.0, 4.2) == (2, 1)

    def test_short_early_range(self):
        h = build(duration=40.0)
        assert placement(h, 0.1, 0.2) == brute_force_placement(h, 0.1, 0.2) == (5, 0)

    def test_oversized_range_goes_global(self):
        h = build(duration=40.0)
        assert placement(h, -5.0, 45.0) == GLOBAL_SEGMENT
        [gid] = h.insert_batch(**time_gaussian(20.0, 25.0))
        assert placement_of(h, gid) == GLOBAL_SEGMENT
        assert h.occupancy()[1] == {GLOBAL_SEGMENT: 1}

    def test_pre_start_range_goes_global(self):
        h = build(duration=40.0)
        assert placement(h, -4.0, -3.0) == GLOBAL_SEGMENT

    def test_start_an_ulp_below_a_boundary(self):
        # (start + 2.5) / 10 rounds up to 1.0, yet start lies in level-0
        # segment 0 [-2.5, 7.5), which the end does not fit either
        h = build(duration=40.0)
        start = float(np.nextafter(7.5, -np.inf))
        assert placement(h, start, 12.0) == \
            brute_force_placement(h, start, 12.0) == GLOBAL_SEGMENT

    @pytest.mark.parametrize("root_length", [0.3, 7.3])
    def test_boundaries_at_inexact_root_length(self, root_length):
        # n * seg_length rounds at these root lengths, so the floor of the
        # quotient lands a segment off either way near a boundary
        h = build(duration=4 * root_length, root_length=root_length, num_levels=6)
        starts, ends = [], []
        for lv in levels(h):
            a = lv.offset + np.arange(lv.count + 1) * lv.seg_length
            for start in (np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf)):
                for end in (a + lv.seg_length, np.nextafter(start, np.inf)):
                    starts += start.tolist()
                    ends += end.tolist()
        flat = h._find_placements(np.array(starts), np.array(ends))
        assert h._placements(flat) == [brute_force_placement(h, s, e)
                                       for s, e in zip(starts, ends)]
        ts = np.array(starts)
        ts = ts[(ts >= 0.0) & (ts <= h.duration)]
        for t, want in zip(ts.tolist(), brute_force_indices(h, ts).tolist()):
            assert h.query_indices(t) == want

    def test_agrees_with_brute_force(self, rng):
        h = build(duration=40.0)
        for a, b in random_ranges(rng, 2000, 40.0):
            assert placement(h, a, b) == brute_force_placement(h, a, b)

    def test_infinite_range_rejected(self):
        # a temporal scale whose variance overflows gives an infinite range;
        # neither insert nor re-placement may file it
        h = build(duration=40.0)
        [gid] = h.insert_batch(**time_gaussian(1.0, 1.0))
        before = placement_of(h, gid), range_of(h, gid)
        huge = time_gaussian(1.0, 1.0)
        huge["scale"][0, 3] = 1e200
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError):
            h.insert_batch(**huge)
        assert len(h.store) == len(h) == 1
        [row] = h.store.rows_of([gid])
        h.store.scale[row, 3] = 1e200
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError):
            h.update_levels([gid])
        assert (placement_of(h, gid), range_of(h, gid)) == before
        h.audit()
        assert h.insert_batch(**time_gaussian(2.0, 1.0)).tolist() == [1]  # no id was spent


class TestQuery:
    def test_reference_indices(self):
        h = build(duration=10.0, root_length=10.0, num_levels=3)
        assert h.query_indices(7.0) == [0, 1, 3]

    def test_t_zero_and_duration_valid(self):
        h = build(duration=40.0)
        for t in (0.0, 40.0):
            for lv, n in zip(levels(h), h.query_indices(t), strict=True):
                assert 0 <= n < lv.count

    def test_out_of_range(self):
        h = build(duration=40.0)
        for t in (-0.001, 40.001):
            with pytest.raises(OutOfRangeError):
                h.query(t)

    def test_cardinality_independent_of_duration(self):
        for T in (10.0, 100.0, 1000.0, 10000.0):
            h = build(duration=T, num_levels=9)
            for t in (0.0, T / 3, T):
                assert len(h.query_indices(t)) + 1 == 10  # and the global segment

    def test_completeness_against_linear_scan(self, rng):
        h = build(duration=40.0)
        ids, ranges = insert_ranges(h, random_ranges(rng, 500, 40.0))
        for t in rng.uniform(0.0, 40.0, size=200):
            covered = set(np.array(ids)[(ranges[:, 0] <= t) & (t <= ranges[:, 1])].tolist())
            got = set(h.query(t).gaussian_ids.tolist())
            assert covered <= got

    def test_deterministic(self, rng):
        h = build(duration=40.0)
        insert_ranges(h, random_ranges(rng, 300, 40.0))
        w1, w2 = h.query(17.3), h.query(17.3)
        assert h.query_indices(17.3) == h.query_indices(17.3)
        assert np.array_equal(w1.gaussian_ids, w2.gaussian_ids)

    def test_query_cost_independent_of_population(self, rng):
        def mean_query_time(h):
            ts = rng.uniform(0.0, h.duration, size=2000)
            t0 = time.perf_counter()
            for t in ts:
                h.query_indices(t)
            return (time.perf_counter() - t0) / len(ts)

        small = build(duration=40.0)
        big = build(duration=40.0)
        for h, n in ((small, 1000), (big, 200_000)):
            ranges = random_ranges(rng, n, 40.0)
            h._file(h._find_placements(ranges[:, 0], ranges[:, 1]), np.arange(n), add=True)
        mean_query_time(big)  # warm caches
        assert mean_query_time(big) < 5.0 * mean_query_time(small)


class TestUpdateLevel:
    def test_idempotent_when_unchanged(self):
        h = build(duration=40.0)
        [gid] = h.insert_batch(**time_gaussian(2.5, 2.0))
        before = placement_of(h, gid)
        old, new = h.update_levels([gid])[0]
        assert old == new == before == placement_of(h, gid)

    def test_shrunk_sigma_migrates_deeper(self):
        h = build(duration=40.0)
        g = time_gaussian(0.15, 2.0)
        [gid] = h.insert_batch(**g)
        assert placement_of(h, gid) == (0, 0)
        [row] = h.store.rows_of([gid])
        h.store.scale[row, 3] /= 100.0  # radius 2.0 -> 0.02 ... range [0.13, 0.17]
        old, new = h.update_levels([gid])[0]
        assert old == (0, 0)
        start, end = range_of(h, gid)
        assert new == brute_force_placement(h, start, end)
        assert new[0] > old[0]
        h.audit()

    def test_spec_migration_to_level_five(self):
        h = build(duration=40.0)
        [gid] = h.insert_batch(**time_gaussian(0.15, 2.0))
        [row] = h.store.rows_of([gid])
        h.store.scale[row, 3] = 0.05 / math.sqrt(-2.0 * math.log(0.05))
        _, new = h.update_levels([gid])[0]
        assert new == (5, 0)  # range is now [0.1, 0.2]

    def test_shift_across_level8_boundary(self):
        h = build(duration=40.0)
        [gid] = h.insert_batch(**time_gaussian(1.0, 1e-3))
        level, n = placement_of(h, gid)
        assert level == 8
        [row] = h.store.rows_of([gid])
        h.store.mu[row, 3] += levels(h)[8].seg_length
        old, new = h.update_levels([gid])[0]
        assert old == (8, n) and new == (8, n + 1)
        start, end = range_of(h, gid)
        assert new == brute_force_placement(h, start, end)

    def test_unknown_id(self):
        h = build(duration=40.0)
        with pytest.raises(NotFoundError):
            h.update_levels([123])


class TestInsertRemoveOccupancy:
    def test_insert_remove_restores_state(self, rng):
        h = build(duration=40.0)
        base_ids = h.insert_batch(**random_params(rng, 20))
        _, before = h.occupancy()
        extra = h.insert_batch(**random_params(rng))
        h.remove(extra)
        _, after = h.occupancy()
        assert before == after
        assert sorted(h.store.ids) == sorted(base_ids)

    def test_malformed_insert_changes_nothing(self, rng):
        h = build(duration=40.0)
        ids = h.insert_batch(**random_params(rng, 4)).tolist()
        bad = random_params(rng, 5)
        bad["opacity"] = bad["opacity"][:3]
        with pytest.raises(ValueError):
            h.insert_batch(**bad)
        assert len(h.store) == len(h) == 4
        assert h.insert_batch(**random_params(rng, 2)).tolist() == [4, 5]
        assert h.store.rows_of(ids + [4, 5]).tolist() == list(range(6))
        h.audit()

    @pytest.mark.parametrize("column, shape", [
        ("mu", ()), ("mu", (4,)), ("mu", (3, 3)), ("scale", (3, 3)), ("opacity", (3, 1)),
        ("sh_residual", (3, 44)), ("opacity", (2,))],
        ids=["mu_scalar", "mu_one_row", "mu_3_wide", "scale_3_wide", "opacity_2d",
             "sh_44_wide", "short_column"])
    def test_misshapen_insert_raises_typed_error(self, rng, column, shape):
        h = build(duration=40.0)
        h.insert_batch(**random_params(rng, 2))
        bad = random_params(rng, 3)
        bad[column] = np.resize(bad[column], shape)
        with pytest.raises(InvalidParameterError):
            h.insert_batch(**bad)
        assert len(h.store) == len(h) == 2
        h.audit()
        assert h.insert_batch(**random_params(rng, 1)).tolist() == [2]  # no id was spent

    @pytest.mark.parametrize("column", COLUMNS)
    def test_non_finite_insert_changes_nothing(self, rng, column):
        h = build(duration=40.0)
        h.insert_batch(**random_params(rng, 2))
        for entry in (0, -1):  # first and last value of the column
            bad = random_params(rng, 3)
            bad[column][(entry,) * bad[column].ndim] = np.nan
            with pytest.raises(InvalidParameterError):
                h.insert_batch(**bad)
            assert len(h.store) == len(h) == 2
        h.audit()
        assert h.insert_batch(**random_params(rng, 1)).tolist() == [2]  # no id was spent

    @pytest.mark.parametrize("column, entry, value", [
        ("scale", (0, 0), 0.0), ("scale", (2, 3), 0.0), ("scale", (1, 1), -0.1),
        ("scale", (1, 3), -0.0), ("opacity", (0,), -1e-9), ("opacity", (2,), 1.0 + 1e-9)],
        ids=["zero_spatial", "zero_temporal", "negative", "negative_zero", "opacity_below",
             "opacity_above"])
    def test_insert_outside_the_domain_changes_nothing(self, rng, column, entry, value):
        # a training step keeps a scale positive and an opacity in [0, 1], and
        # conditioning divides by the temporal variance a zero scale can give
        h = build(duration=40.0)
        h.insert_batch(**random_params(rng, 2))
        bad = random_params(rng, 3)
        bad[column][entry] = value
        with pytest.raises(InvalidParameterError):
            h.insert_batch(**bad)
        assert len(h.store) == len(h) == 2
        h.audit()
        assert h.insert_batch(**random_params(rng, 1)).tolist() == [2]  # no id was spent

    def test_opacity_on_the_bounds_is_accepted(self, rng):
        columns = random_params(rng, 2)
        columns["opacity"][:] = [0.0, 1.0]
        h = build(duration=40.0)
        rows = h.store.rows_of(h.insert_batch(**columns))
        assert h.store.opacity[rows].tolist() == [0.0, 1.0]

    def test_temporal_variance_that_rounds_to_zero_raises(self, rng):
        # positive scales whose squares underflow: sigma_t is exactly 0
        h = build(duration=40.0)
        bad = random_params(rng, 3)
        bad["scale"][1] = 1e-170
        assert ga.batch_temporal_variance(bad["scale"], bad["rotor_left"],
                                          bad["rotor_right"])[1] == 0.0
        with pytest.raises(InvalidParameterError):
            h.insert_batch(**bad)
        assert len(h.store) == len(h) == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_sh_value_in_a_zero_row_raises(self, rng, value):
        # only SH rows with a set bit are checked for finiteness, and a NaN
        # or an infinity always has one
        h = build(duration=40.0)
        h.insert_batch(**random_params(rng, 2))
        held = h.store.held_slots()
        bad = random_params(rng, 3)
        bad["sh_residual"][:] = 0.0
        bad["sh_residual"][1, 7] = value
        with pytest.raises(InvalidParameterError):
            h.insert_batch(**bad)
        assert len(h.store) == len(h) == 2
        assert np.array_equal(h.store.held_slots(), held)
        h.audit()
        assert h.insert_batch(**random_params(rng, 1)).tolist() == [2]  # no id was spent

    def test_negative_zero_sh_takes_a_slot(self, rng):
        h = build(duration=40.0)
        columns = random_params(rng, 2)
        columns["sh_residual"][:] = 0.0
        columns["sh_residual"][1, 44] = -0.0
        ids = h.insert_batch(**columns)
        diffuse, lit = h.store.slot[h.store.rows_of(ids)].tolist()
        assert diffuse == -1 and lit >= 0
        stored = columns_of(h.store.gather(ids))["sh_residual"]
        assert np.array_equal(stored.view(np.int64), columns["sh_residual"].view(np.int64))

    def test_remove_unknown(self):
        h = build(duration=40.0)
        with pytest.raises(NotFoundError):
            h.remove([99])

    def test_remove_rejects_repeated_id(self, rng):
        # a repeated id would free its row twice, and two later inserts
        # would share it
        h = build(duration=40.0)
        ids = h.insert_batch(**random_params(rng, 5))
        _, before = h.occupancy()
        with pytest.raises(InvalidParameterError):
            h.remove([ids[1], ids[3], ids[1]])
        _, after = h.occupancy()
        assert before == after and h.store.ids == ids.tolist()
        h.remove([ids[1], ids[3]])
        new = h.insert_batch(**random_params(rng, 3))
        assert sorted(h.store.rows_of(new).tolist()) == [1, 3, 5]
        h.audit()

    @pytest.mark.parametrize("call", ["remove", "update_levels", "gather", "placement_of"])
    @pytest.mark.parametrize("gids", [[1.7], np.array([2.9]), ["3"], [True]],
                             ids=["float", "float_array", "string", "bool"])
    def test_non_integer_ids_rejected(self, rng, call, gids):
        # a cast would act on the id the value truncates to
        h = build(duration=40.0)
        ids = h.insert_batch(**random_params(rng, 5))
        placements = [placement_of(h, g) for g in ids]
        act = {"remove": h.remove, "update_levels": h.update_levels, "gather": h.store.gather,
               "placement_of": lambda gids: placement_of(h, gids[0])}[call]
        with pytest.raises(InvalidParameterError):
            act(gids)
        assert h.store.ids == ids.tolist()
        assert [placement_of(h, g) for g in ids] == placements
        h.remove([])  # an empty id list is no id of the wrong type
        h.audit()

    def test_occupancy_partition(self, rng):
        h = build(duration=40.0)
        h.insert_batch(**random_params(rng, 300))
        per_level, per_segment = h.occupancy()
        assert sum(per_level.values()) == len(h) == 300
        assert sum(per_segment.values()) == 300

    def test_histogram_matches_brute_force(self, rng):
        h = build(duration=40.0)
        expected = {}
        _, ranges = insert_ranges(h, random_ranges(rng, 10_000, 40.0))
        for a, b in ranges:
            p = brute_force_placement(h, a, b)
            expected[p] = expected.get(p, 0) + 1
        _, per_segment = h.occupancy()
        assert per_segment == expected  # occupied segments only


class TestAudit:
    def test_partition_after_random_ops(self, rng):
        h = build(duration=40.0)
        alive = []
        for step in range(10_000):
            op = rng.integers(0, 3)
            if op == 0 or not alive:
                alive += h.insert_batch(**random_params(rng)).tolist()
            elif op == 1:
                gid = alive[int(rng.integers(len(alive)))]
                [row] = h.store.rows_of([gid])
                h.store.mu[row, 3] = rng.uniform(-2, 42)
                h.store.scale[row, 3] = np.exp(rng.uniform(np.log(1e-3), np.log(5)))
                h.update_levels([gid])
            else:
                gid = alive.pop(int(rng.integers(len(alive))))
                h.remove([gid])
        h.audit()
        assert len(h) == len(alive)

    def test_audit_catches_corruption(self, rng):
        h = build(duration=40.0)
        [gid] = h.insert_batch(**time_gaussian(2.5, 2.0))
        assert placement_of(h, gid) == (0, 0)
        [row] = h.store.rows_of([gid])
        flat = int(h.store.segment[row])
        h._members[flat + 1] = h._members.pop(flat)  # now in (0, 1)
        with pytest.raises(Exception):
            h.audit()
        h._members[flat] = h._members.pop(flat + 1)
        h.audit()
        h.store.segment[row] += 1  # the row records (0, 1)
        with pytest.raises(AuditError):
            h.audit()
        h.store.segment[row] -= 1
        h.store.influence[row] = (30.0, 31.0)  # fits a deeper segment elsewhere
        with pytest.raises(AuditError):
            h.audit()

    def test_audit_catches_members_out_of_order(self):
        h = build(duration=40.0)
        h.insert_batch(**time_gaussian([2.5, 2.6, 2.7], [2.0, 2.0, 2.0]))
        [flat] = h._members
        h._members[flat] = h._members[flat][::-1].copy()
        with pytest.raises(AuditError):
            h.audit()
        h._members[flat] = np.sort(h._members[flat])
        h.audit()

    def test_audit_catches_stored_id_not_placed(self, rng):
        h = build(duration=40.0)
        h.insert_batch(**random_params(rng, 3))
        h.store.insert_arrays(*checked_columns(**random_params(rng)))
        with pytest.raises(AuditError):
            h.audit()
