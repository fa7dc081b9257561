"""The temporal hierarchy: levels of disjoint equal-length segments plus one
global segment, each Gaussian living in the shortest segment that contains
its influence range.

Level l has segment length s_l = S / 2^l and a corrected offset of
-S / 2^(l+2) that staggers boundaries across levels. Per-timestamp queries
touch exactly one segment per level (plus global), independent of duration
and population size.

Placement is columnar: id-indexed arrays (ids are dense and never reused)
hold each id's flat segment index and the influence range it was placed by.
A table over the intervals cut by all level boundaries places a batch of
ranges with one `searchsorted`, on the boundaries exactly as `Level.span`
computes them. Only ids whose segment changed touch a segment set. Every
writer takes a batch of ids, except `place`, which places one id by a given
range.

Single-writer contract: nothing here locks. Mutations (insert, remove,
place, update) must not run concurrently with each other or with reads.
Materialized working sets are snapshots and stay valid after later writes.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussians as ga
from .errors import InvalidParameterError, NotFoundError, OutOfRangeError, TGHError
from .store import GaussianStore

GLOBAL_LEVEL = -1
GLOBAL_SEGMENT = (GLOBAL_LEVEL, 0)
_GLOBAL_FLAT = 0                 # flat segment index of the global segment
_UNPLACED = -1                   # flat segment of an id that is not placed


class AuditError(TGHError):
    """The hierarchy violates a structural invariant."""


@dataclass
class Level:
    index: int
    seg_length: float
    offset: float
    segments: list = field(default_factory=list)  # list[set[int]], dense

    def span(self, n):
        return (self.offset + n * self.seg_length,
                self.offset + (n + 1) * self.seg_length)


@dataclass
class WorkingSet:
    """All Gaussians relevant at one timestamp: one segment per level + global."""

    timestamp: float
    segment_refs: list              # [(level, index)] of length num_levels + 1
    gaussian_ids: np.ndarray        # concatenated members, int64


def _check_ranges(start, end):
    if not ((start <= end) & np.isfinite(start) & np.isfinite(end)).all():
        raise InvalidParameterError("influence range must be finite with start <= end")


class TemporalHierarchy:
    def __init__(self, duration, root_length=10.0, num_levels=9, o_th=0.05):
        if not (duration > 0 and math.isfinite(duration)):
            raise InvalidParameterError(f"duration must be positive, got {duration}")
        if not (root_length > 0 and math.isfinite(root_length)):
            raise InvalidParameterError(f"root_length must be positive, got {root_length}")
        if not 1 <= int(num_levels) <= 32:
            raise InvalidParameterError(f"num_levels must be in [1, 32], got {num_levels}")
        if not 0.0 < o_th < 1.0:
            raise InvalidParameterError(f"o_th must lie in (0, 1), got {o_th}")
        self.duration = float(duration)
        self.root_length = float(root_length)
        self.num_levels = int(num_levels)
        self.o_th = float(o_th)
        self.levels = []
        for l in range(self.num_levels):
            s_l = self.root_length / (1 << l)
            offset = -self.root_length / (1 << (l + 2))
            count = math.ceil((self.duration - offset) / s_l)
            self.levels.append(Level(index=l, seg_length=s_l, offset=offset,
                                     segments=[set() for _ in range(count)]))
        self.global_segment = set()
        self.store = GaussianStore()
        # flat segment index: 0 is the global segment, then every level's
        # segments in order, so flat indices grow with depth
        self._sets = [self.global_segment] + [seg for lv in self.levels for seg in lv.segments]
        counts = np.array([len(lv.segments) for lv in self.levels])
        self._first = 1 + np.concatenate([[0], np.cumsum(counts)[:-1]])
        self._level_of = np.repeat(np.arange(GLOBAL_LEVEL, self.num_levels), [1, *counts])
        self._index_of = np.concatenate([[0], *(np.arange(c) for c in counts)])
        bounds = [lv.offset + np.arange(c + 1) * lv.seg_length  # as Level.span computes them
                  for lv, c in zip(self.levels, counts)]
        # per flat index; the extra last entry stands for "outside the level"
        self._span_start = np.concatenate([[-np.inf], *(b[:-1] for b in bounds)])
        self._span_end = np.concatenate([[np.inf], *(b[1:] for b in bounds), [-np.inf]])
        self._outside = len(self._sets)
        self._last = self._first + counts - 1
        # All level boundaries, merged, cut time into intervals; interval j
        # is [cuts[j - 1], cuts[j]). Row j holds, per level, the flat index of
        # the segment holding that interval, or _outside.
        self._cuts = np.unique(np.concatenate(bounds))
        self._flat_at = np.empty((len(self._cuts) + 1, self.num_levels), dtype=np.int32)
        for l, b in enumerate(bounds):
            n = np.concatenate([[-1], np.searchsorted(b, self._cuts, side="right") - 1])
            self._flat_at[:, l] = np.where((n >= 0) & (n < counts[l]),
                                           self._first[l] + n, self._outside)
        # id-indexed columns: flat segment (_UNPLACED if none), (start, end)
        self._segment = np.full(256, _UNPLACED, dtype=np.int64)
        self._range = np.zeros((256, 2))

    # ---------------------------------------------------------------- geometry

    def segment_count(self, level):
        return len(self.levels[level].segments)

    def total_segments(self):
        return len(self._sets)

    def _find_placements(self, start, end):
        """Flat index of the deepest segment containing each [start, end].

        A segment [a, b) contains the range iff a <= start and end <= b (an
        end exactly on the boundary still fits), with a and b as
        `Level.span` computes them. Per level, the segment holding start's
        interval is the only candidate, and the range fits if end <= its
        end. Flat indices grow with depth, so the deepest fit is the
        largest, and a range no level fits keeps the global segment's 0.
        """
        flat = self._flat_at[self._cuts.searchsorted(start, side="right")]
        fits = end[:, None] <= self._span_end[flat]
        return (flat * fits).max(axis=1)  # no fit -> 0, global

    def _placements(self, flat):
        """(level, index) tuples of flat segment indices."""
        return list(zip(self._level_of[flat].tolist(), self._index_of[flat].tolist()))

    # ------------------------------------------------------------- mutation

    def _known(self, gids):
        """gids as an int64 array; NotFoundError unless every id is placed."""
        gids = np.asarray(gids, dtype=np.int64).reshape(-1)
        inside = (gids >= 0) & (gids < len(self._segment))
        placed = inside & (self._segment.take(gids, mode="clip") != _UNPLACED)
        if not placed.all():
            raise NotFoundError(f"unknown Gaussian id {gids[placed.argmin()]}")
        return gids

    def _by_segment(self, flat, gids):
        """(segment set, member ids) for each distinct segment in flat."""
        if len(flat) == 0:
            return
        order = flat.argsort(kind="stable")
        flat, gids = flat[order], gids[order].tolist()
        bounds = [0, *((flat[1:] != flat[:-1]).nonzero()[0] + 1).tolist(), len(gids)]
        keys = flat.tolist()
        for a, b in zip(bounds, bounds[1:]):
            yield self._sets[keys[a]], gids[a:b]

    def _set_ranges(self, gids, start, end):
        """Record the ranges ids are placed by; returns their flat segments."""
        _check_ranges(start, end)
        self._range[gids, 0] = start
        self._range[gids, 1] = end
        return self._find_placements(start, end)

    def _place(self, gids, start, end):
        """Place fresh non-negative ids by their ranges; returns their flat segments."""
        gids = np.asarray(gids, dtype=np.int64)
        if len(gids) == 0:
            return gids
        top = int(gids.max()) + 1
        if top > len(self._segment):
            grow = max(len(self._segment), top - len(self._segment))
            self._segment = np.append(self._segment, np.full(grow, _UNPLACED))
            self._range = np.vstack([self._range, np.zeros((grow, 2))])
        taken = self._segment[gids] != _UNPLACED
        if taken.any():
            raise InvalidParameterError(f"id {gids[taken.argmax()]} is already placed")
        flat = self._set_ranges(gids, np.asarray(start, dtype=np.float64),
                                np.asarray(end, dtype=np.float64))
        for members, chunk in self._by_segment(flat, gids):
            members.update(chunk)
        self._segment[gids] = flat
        return flat

    def place(self, gid, start, end):
        """Put an id, stored or not, in the shortest segment containing
        [start, end]; returns the placement."""
        if gid < 0:
            raise InvalidParameterError(f"Gaussian ids are non-negative, got {gid}")
        return self._placements(self._place([gid], [start], [end]))[0]

    def insert_batch(self, mu, scale, rotor_left, rotor_right, opacity,
                     base_color, sh_residual):
        """Store Gaussians and place each by its influence range; returns their ids."""
        sigma_t = ga.batch_temporal_variance(scale, rotor_left, rotor_right)
        radius = ga.influence_radius(sigma_t, self.o_th)
        centers = np.asarray(mu, dtype=np.float64)[:, 3]
        start, end = centers - radius, centers + radius
        _check_ranges(start, end)
        ids = self.store.insert_arrays(mu, scale, rotor_left, rotor_right,
                                       opacity, base_color, sh_residual)
        self._place(ids, start, end)
        return ids

    def remove(self, gids):
        """Remove placed ids, and the stored ones among them from the store.

        Every id is validated before anything changes: an unknown id raises
        NotFoundError and a repeated one InvalidParameterError, and either
        leaves the hierarchy as it was.
        """
        gids = self._known(gids)
        if len(np.unique(gids)) < len(gids):
            raise InvalidParameterError("an id appears twice in one remove")
        for members, chunk in self._by_segment(self._segment[gids], gids):
            members.difference_update(chunk)
        self._segment[gids] = _UNPLACED
        self.store.remove(gids[self.store.holds(gids)])

    def update_levels(self, gids):
        """Re-place stored Gaussians after their parameters changed.

        Returns one (old_placement, new_placement) pair per id. Every id is
        validated before anything changes: an unknown id raises NotFoundError
        and leaves the hierarchy as it was.
        """
        gids = self._known(gids)
        rows = self.store.rows_of(gids)
        sigma_t = ga.batch_temporal_variance(self.store.scale[rows],
                                             self.store.rotor_left[rows],
                                             self.store.rotor_right[rows])
        radius = ga.influence_radius(sigma_t, self.o_th)
        centers = self.store.mu[rows, 3]
        old = self._segment[gids]
        new = self._set_ranges(gids, centers - radius, centers + radius)
        moved = np.flatnonzero(old != new)
        if moved.size:
            for members, chunk in self._by_segment(old[moved], gids[moved]):
                members.difference_update(chunk)
            for members, chunk in self._by_segment(new[moved], gids[moved]):
                members.update(chunk)
            self._segment[gids[moved]] = new[moved]
        return list(zip(self._placements(old), self._placements(new)))

    # -------------------------------------------------------------- queries

    def placement_of(self, gid):
        return self._placements(self._segment[self._known([gid])])[0]

    def range_of(self, gid):
        return tuple(self._range[self._known([gid])[0]].tolist())

    def __len__(self):
        return int(np.count_nonzero(self._segment != _UNPLACED))

    def query(self, t):
        """Working set at timestamp t: one segment per level plus global, O(L)."""
        indices = self.query_indices(t)
        refs = list(enumerate(indices)) + [GLOBAL_SEGMENT]
        flats = [*(self._first + indices).tolist(), _GLOBAL_FLAT]
        ids = np.array([g for f in flats for g in sorted(self._sets[f])], dtype=np.int64)
        return WorkingSet(timestamp=float(t), segment_refs=refs, gaussian_ids=ids)

    def query_indices(self, t):
        """Per-level segment indices only (no member enumeration)."""
        t = float(t)
        if not 0.0 <= t <= self.duration:
            raise OutOfRangeError(f"t={t} outside [0, {self.duration}]")
        flat = self._flat_at[self._cuts.searchsorted(t, side="right")]
        return (np.minimum(flat, self._last) - self._first).tolist()  # t == last end

    def materialize(self, ws: WorkingSet):
        """Gather the working set's parameters into a contiguous batch."""
        return self.store.gather(ws.gaussian_ids)

    def occupancy(self):
        """Gaussian counts per level (index -1 = global) and per segment."""
        per_level = {lv.index: sum(len(s) for s in lv.segments)
                     for lv in self.levels}
        per_level[GLOBAL_LEVEL] = len(self.global_segment)
        per_segment = {(lv.index, n): len(seg)
                       for lv in self.levels for n, seg in enumerate(lv.segments)}
        per_segment[GLOBAL_SEGMENT] = len(self.global_segment)
        return per_level, per_segment

    def occupancy_rows(self, include_empty=False):
        """(level, segment_index, start, end, count) rows for diagnostics."""
        rows = []
        for lv in self.levels:
            for n, seg in enumerate(lv.segments):
                if seg or include_empty:
                    a, b = lv.span(n)
                    rows.append((lv.index, n, a, b, len(seg)))
        rows.append((GLOBAL_LEVEL, 0, -math.inf, math.inf, len(self.global_segment)))
        return rows

    # ---------------------------------------------------------------- audit

    def audit(self):
        """Verify partition, containment and minimality for every resident.

        Raises AuditError on the first violation found.
        """
        members = np.fromiter(itertools.chain.from_iterable(self._sets), dtype=np.int64)
        holder = np.repeat(np.arange(len(self._sets)), [len(s) for s in self._sets])
        inside = (members >= 0) & (members < len(self._segment))
        recorded = np.where(inside, self._segment[np.where(inside, members, 0)], _UNPLACED)
        bad = np.flatnonzero(recorded != holder)
        if bad.size:
            i = bad[0]
            raise AuditError(f"id {members[i]} in segment {self._placements(holder[i:i + 1])[0]} "
                             f"but recorded at flat segment {recorded[i]}")
        placed = np.flatnonzero(self._segment != _UNPLACED)
        if len(members) != len(placed):
            raise AuditError(f"{len(members)} segment members vs {len(placed)} placements")
        segment = self._segment[placed]
        start, end = self._range[placed].T
        expected = self._find_placements(start, end)
        bad = np.flatnonzero(expected != segment)
        if bad.size:
            i = bad[0]
            placement, deepest = self._placements(np.array([segment[i], expected[i]]))
            raise AuditError(f"id {placed[i]} placed at {placement}, "
                             f"deepest containing segment is {deepest}")
        a, b = self._span_start[segment], self._span_end[segment]
        bad = np.flatnonzero(~((a <= start) & (end <= b)))
        if bad.size:
            i = bad[0]
            raise AuditError(f"id {placed[i]} range [{start[i]}, {end[i]}] outside "
                             f"segment span [{a[i]}, {b[i]})")


def build(duration, root_length=10.0, num_levels=9, o_th=0.05):
    """Construct an empty hierarchy (module-level convenience)."""
    return TemporalHierarchy(duration, root_length, num_levels, o_th)
