"""The temporal hierarchy: levels of disjoint equal-length segments plus one
global segment, each Gaussian living in the shortest segment that contains
its influence range.

Level l has segment length seg_length_l = S / 2^l and a corrected offset
offset_l = -S / 2^(l+2) that staggers boundaries across levels. Per-timestamp
queries touch exactly one segment per level (plus global), independent of
duration and population size.

Placement is a formula: segment n of level l starts at offset_l + n *
seg_length_l, and the one holding t is floor((t - offset_l) / seg_length_l),
moved by one where rounding crossed a boundary (`_segment_at`, the one copy
of that formula). That index is a float, exact below 2^53, so a duration and
root length that need 2^53 segments or more in all are rejected. A range is
tried only at the levels that can hold it (`_find_placements`): first the
deepest whose segments are as long as the range, allowing for rounding, then
one level shallower at a time until a segment holds it. Most ranges take
two tries, however many levels there are.
Members are kept for occupied segments only, so memory is O(levels +
population) at any duration: each occupied segment holds its ids as one
ascending int64 array, and a query is one concatenation of the
arrays of its segments, levels in order and then the global one. Each
Gaussian's flat segment lives in its store row (`store.PLACEMENT`), so a
placed id is exactly a stored id; its influence range is recomputed from its
parameters wherever it is needed. Only ids whose segment changed touch a
member array. Every writer takes a batch of ids, and files them by segment
with one sort of the batch.

Single-writer contract: nothing here locks. Mutations (insert, remove,
update) must not run concurrently with each other or with reads.
Materialized working sets are snapshots and stay valid after later writes.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import gaussians as ga
from .errors import InvalidParameterError, OutOfRangeError, TGHError
from .store import GaussianStore, checked_columns, views

GLOBAL_LEVEL = -1
_GLOBAL_FLAT = 0                 # flat segment index of the global segment
_NO_IDS = np.empty(0, dtype=np.int64)
# In exact arithmetic a range inside the duration that is no longer than
# level l's segments fits at l or at one of the next three shallower levels,
# where they exist, so `_find_placements` tries up to this many at once ...
_TRIES = 4
# ... in a block of at least this many (range, level) pairs: a small batch
# tries all _TRIES levels in one pass, as numpy's cost per call outweighs the
# extra pairs, and a large one a single level per pass
_BLOCK_PAIRS = 4096
_BACK = (_TRIES - np.arange(_TRIES))[:, None]  # table column of level l - j is l + _BACK[j]


class AuditError(TGHError):
    """The hierarchy violates a structural invariant."""


@dataclass
class WorkingSet:
    """All Gaussians relevant at one timestamp: one segment per level + global."""

    gaussian_ids: np.ndarray        # concatenated members, int64


def _influence_ranges(mu, scale, rotor_left, rotor_right, **_):
    """(start, end) arrays from named parameter columns, the others ignored:
    each temporal mean -+ the radius where the temporal factor drops to
    TEMPORAL_THRESHOLD. InvalidParameterError unless every bound is finite
    and every temporal variance positive: conditioning divides by it."""
    sigma_t = ga.batch_temporal_variance(scale, rotor_left, rotor_right)
    radius = ga.influence_radius(sigma_t)
    centers = mu[:, 3]
    start, end = centers - radius, centers + radius
    if not ((sigma_t > 0.0).all() and np.isfinite(start).all() and np.isfinite(end).all()):
        raise InvalidParameterError("influence range must be finite and of positive width")
    return start, end


def _segment_at(t, offset, seg_length):
    """Index, as a float, of the segment holding t among those of length
    `seg_length` whose segment n starts at offset + n * seg_length; broadcasts."""
    n = np.floor((t - offset) / seg_length)
    # the rounded quotient may put t one segment off near a boundary
    n += t >= offset + (n + 1) * seg_length
    n -= t < offset + n * seg_length
    return n


class TemporalHierarchy:
    def __init__(self, duration, root_length=10.0, num_levels=9):
        for name, value in (("duration", duration), ("root_length", root_length)):
            if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                               and 0 < value < math.inf):
                raise InvalidParameterError(f"{name} must be finite and positive, got {value!r}")
        if isinstance(num_levels, bool) or not (isinstance(num_levels, numbers.Integral)
                                                and 1 <= num_levels <= 32):
            raise InvalidParameterError(f"num_levels must be an integer in [1, 32], "
                                        f"got {num_levels!r}")
        self.duration = float(duration)
        self.root_length = float(root_length)
        self.num_levels = int(num_levels)
        l = np.arange(self.num_levels)
        self._seg_length = self.root_length / 2.0 ** l
        self._offset = -self.root_length / 2.0 ** (l + 2)
        # segments 0 .. count - 1 of each level cover [0, duration]
        with np.errstate(over="ignore"):
            count = np.ceil((self.duration - self._offset) / self._seg_length)
        # flat segment indices pass through float64 (`_segment_at`), exact below 2^53
        if not 1.0 + count.sum() < 2.0 ** 53:
            raise InvalidParameterError(
                f"duration {self.duration!r} with root_length {self.root_length!r} needs "
                f"{count.sum()!r} segments, past the 2^53 that float64 indexes exactly")
        self._count = count.astype(np.int64)
        self.store = GaussianStore()
        # flat segment index: 0 is global, then each level's segments in order
        self._first = 1 + np.concatenate([[0], np.cumsum(self._count)[:-1]])
        # starts clipped to these keep `_segment_at` finite and fit as before
        self._t_bounds = (-2.0 * self.root_length, self.duration + 2.0 * self.root_length)
        self._members = {}  # flat index -> ascending int64 ids, for occupied segments only
        # `_find_placements`' tables. Rows: each level's offset, segment length,
        # segment count and first flat index, after _TRIES columns of a level
        # with no segment, which stand for the levels shallower than level 0.
        # And a bound on the longest range a level's segment can hold once
        # its edges have rounded, deepest level first.
        geometry = np.stack([self._offset, self._seg_length, self._count, self._first])
        self._geometry = np.hstack([np.tile([[0.0], [1.0], [0.0], [0.0]], _TRIES), geometry])
        self._reach = self._seg_length[::-1] + 2.0 ** -48 * (self.duration + 4.0 * self.root_length)

    # ---------------------------------------------------------------- geometry

    def _find_placements(self, start, end):
        """Flat index of the deepest segment containing each [start, end].

        Segment n of level l, [a, b) with a = offset_l + n * seg_length_l and
        b = offset_l + (n + 1) * seg_length_l, contains the range iff a <= start
        and end <= b; per level, only the segment holding start can. Flat
        indices grow with depth, so the deepest fit is the largest; no fit
        gives 0.

        A range is tried first at the deepest level whose segment length plus
        a margin is at least end - start; no deeper level can hold it. The
        margin 2^-48 (D + 4S), D the duration and S the root length, bounds
        the rounding. With u = 2^-53, the 2^53-segment limit gives uD < S.
        For 0 <= n <= count_l, offset_l + n * seg_length_l lies in
        (-S, D + 5S), and its float rounds twice, to within 2u(D + 6S). So
        a fit needs end - start <= seg_length_l + 4u(D + 6S), and end - start
        rounds to at most seg_length_l + 5u(D + 6S), less than the margin
        32u(D + 4S) by more than the rounding of the sum. A range that no
        tried level holds moves on to the next shallower level, and one that
        fails at level 0 to the global segment. A pass tries up to _TRIES
        levels of each range left. Each try is `_segment_at` and the fit test
        on the same floats, so the answer is that of testing every level.
        """
        with np.errstate(over="ignore"):  # a length past the float range fits no level
            level = (self.num_levels - 1) - self._reach.searchsorted(end - start)
        t = start.clip(*self._t_bounds)
        todo = np.arange(len(level))
        out = np.zeros(len(level), dtype=np.int64)
        while todo.size:
            tries = min(_TRIES, math.ceil(_BLOCK_PAIRS / len(todo)))
            columns = level + _BACK[:tries]  # of levels level, level - 1, ...
            offset, seg_length, count, first = self._geometry.take(columns, axis=1)
            n = _segment_at(t, offset, seg_length)
            fits = (n >= 0) & (n < count) & (end <= offset + (n + 1) * seg_length)
            flat = ((first + n) * fits).max(axis=0)  # the deepest fit tried, 0 if none
            out[todo] = flat
            left = np.flatnonzero((flat == 0) & (level >= tries))
            todo, level, t, end = todo[left], level[left] - tries, t[left], end[left]
        return out

    def _level_index(self, flat):
        """(level, index) arrays of flat segment indices; (-1, 0) for global."""
        level = self._first.searchsorted(flat, side="right") - 1
        return level, np.where(level < 0, 0, flat - self._first[level])

    def _placements(self, flat):
        """(level, index) tuples of flat segment indices."""
        return list(zip(*(a.tolist() for a in self._level_index(flat))))

    # ------------------------------------------------------------- mutation

    def _file(self, flat, gids, add):
        """Add distinct ids, none a member yet, to their flat segments' member
        arrays, or remove members from them; none is left empty."""
        if not len(gids):
            return
        flat, gids = _by_segment_then_id(flat, gids)
        first = np.flatnonzero(np.diff(flat, prepend=-1))  # of each segment
        bounds = [*first.tolist(), len(gids)]
        members = self._members
        for key, a, b in zip(flat[first].tolist(), bounds, bounds[1:]):
            part, held = gids[a:b], members.get(key)
            if not add:
                held = held[~np.isin(held, part, assume_unique=True)]
                if len(held):
                    members[key] = held
                else:
                    del members[key]
            elif held is None:
                members[key] = part
            else:
                members[key] = np.sort(np.concatenate([held, part]), kind="stable")

    def insert_batch(self, **columns):
        """Store Gaussians, given as the columns `checked_columns` takes, and
        place each by its influence range; returns their ids as an int64
        array. A call that raises stores and places nothing and spends no id:
        a value that `checked_columns` or `_influence_ranges` rejects raises
        InvalidParameterError."""
        columns, lit = checked_columns(**columns)
        start, end = _influence_ranges(**columns)
        rows, gids = self.store.insert_arrays(columns, lit)
        flat = self._find_placements(start, end)
        self.store.segment[rows] = flat
        self._file(flat, gids, add=True)
        return gids

    def remove(self, gids):
        """Remove Gaussians from their segments and the store. An unknown id
        raises NotFoundError and a repeated one InvalidParameterError, and
        either leaves the hierarchy as it was."""
        flat = self.store.segment[self.store.rows_of(gids)]  # checks the dtype before the cast
        gids = np.asarray(gids, dtype=np.int64).reshape(-1)
        self.store.remove(gids)  # validates every id before it changes anything
        self._file(flat, gids, add=False)

    def update_levels(self, gids):
        """Re-place stored Gaussians after their parameters changed.

        Returns one (old_placement, new_placement) pair per id. Every id is
        validated before anything changes: an unknown id raises NotFoundError
        and a repeated one InvalidParameterError, and either leaves the
        hierarchy as it was.
        """
        store = self.store
        rows = store.rows_of(gids)
        if len(np.unique(rows)) < len(rows):
            raise InvalidParameterError("an id appears twice in one update")
        gids = np.asarray(gids, dtype=np.int64).reshape(-1)
        start, end = _influence_ranges(**views(store.params[rows]))
        old = store.segment[rows]
        new = self._find_placements(start, end)
        moved = np.flatnonzero(old != new)
        if moved.size:
            self._file(old[moved], gids[moved], add=False)
            self._file(new[moved], gids[moved], add=True)
            store.segment[rows[moved]] = new[moved]
        return list(zip(self._placements(old), self._placements(new)))

    # -------------------------------------------------------------- queries

    def __len__(self):
        return len(self.store)

    def query(self, t):
        """Working set at timestamp t: the ascending members of one segment
        per level, levels in order, then of the global segment."""
        flats = [*(self._first + self.query_indices(t)).tolist(), _GLOBAL_FLAT]
        members = self._members
        return WorkingSet(np.concatenate([members.get(f, _NO_IDS) for f in flats]))

    def query_indices(self, t):
        """Per-level segment indices only (no member enumeration)."""
        t = float(t)
        if not 0.0 <= t <= self.duration:
            raise OutOfRangeError(f"t={t} outside [0, {self.duration}]")
        n = _segment_at(t, self._offset, self._seg_length).astype(np.int64)
        return np.minimum(n, self._count - 1).tolist()  # t == last end

    def materialize(self, ws: WorkingSet):
        """Gather the working set's parameters into a contiguous batch."""
        return self.store.gather(ws.gaussian_ids)

    def occupancy(self):
        """Gaussian counts per level (index -1 = global) and per occupied
        segment: `per_segment` lists no segment that holds no Gaussian."""
        keys = sorted(self._members)
        per_segment = dict(zip(self._placements(np.array(keys, dtype=np.int64)),
                               (len(self._members[k]) for k in keys)))
        per_level = dict.fromkeys([*range(self.num_levels), GLOBAL_LEVEL], 0)
        for (level, _), size in per_segment.items():
            per_level[level] += size
        return per_level, per_segment

    # ---------------------------------------------------------------- audit

    def audit(self):
        """Verify that the member arrays are ascending and hold exactly the
        stored ids, each in the segment its row records, and containment and
        minimality for every stored Gaussian, by the influence range of its
        parameters as they stand; AuditError on the first violation.
        Minimality is checked against `_find_placements`, the function that
        placed them; the tests pin that function to testing every level and
        to a scan of every segment."""
        keys, arrays = list(self._members), list(self._members.values())
        sizes = [len(a) for a in arrays]
        if not all(sizes):
            raise AuditError("an unoccupied segment keeps a member array")
        members = np.concatenate([_NO_IDS, *arrays])
        holder = np.repeat(np.array(keys, dtype=np.int64), sizes)
        falls = np.flatnonzero((np.diff(members) <= 0) & (np.diff(holder) == 0))
        if falls.size:
            i = falls[0]
            raise AuditError(f"segment {self._placements(holder[i:i + 1])[0]} holds "
                             f"{members[i]} before {members[i + 1]}")
        stored = self.store.holds(members)
        if not stored.all():
            raise AuditError(f"member id {members[stored.argmin()]} is not stored")
        recorded = self.store.segment[self.store.rows_of(members)]
        bad = np.flatnonzero(recorded != holder)
        if bad.size:
            i = bad[0]
            raise AuditError(f"id {members[i]} in segment {self._placements(holder[i:i + 1])[0]} "
                             f"but recorded at flat segment {recorded[i]}")
        if len(members) != len(self.store):
            raise AuditError(f"{len(members)} segment members vs {len(self.store)} stored")
        rows = self.store.live_rows()
        ids = self.store.ids_at_rows(rows)
        segment = self.store.segment[rows]
        try:
            start, end = _influence_ranges(**views(self.store.params[rows]))
        except InvalidParameterError as error:
            raise AuditError(f"a stored row has no valid influence range: {error}") from None
        expected = self._find_placements(start, end)
        bad = np.flatnonzero(expected != segment)
        if bad.size:
            i = bad[0]
            placement, deepest = self._placements(np.array([segment[i], expected[i]]))
            raise AuditError(f"id {ids[i]} placed at {placement}, "
                             f"deepest containing segment is {deepest}")
        level, index = self._level_index(segment)
        offset, seg_length = self._offset[level], self._seg_length[level]
        a = np.where(level < 0, -np.inf, offset + index * seg_length)
        b = np.where(level < 0, np.inf, offset + (index + 1) * seg_length)
        bad = np.flatnonzero(~((a <= start) & (end <= b)))
        if bad.size:
            i = bad[0]
            raise AuditError(f"id {ids[i]} range [{start[i]}, {end[i]}] outside "
                             f"segment span [{a[i]}, {b[i]})")


def _by_segment_then_id(flat, gids):
    """(flat, gids) sorted by flat segment, then id; ids >= 0.

    Both are offsets packed in one int64 key and value-sorted, which is
    several times faster than a lexsort. Flat indices run to 2^53 and ids to
    2^63, so a batch whose two spans need more than 63 bits together falls
    back to `np.lexsort`."""
    low, high = gids.min(), flat.min()
    bits = int(gids.max() - low).bit_length()
    if int(flat.max() - high).bit_length() + bits > 63:
        order = np.lexsort((gids, flat))
        return flat[order], gids[order]
    key = (flat - high) << bits | (gids - low)
    key.sort()
    return (key >> bits) + high, (key & ((1 << bits) - 1)) + low


def build(duration, root_length=10.0, num_levels=9):
    """Construct an empty hierarchy (module-level convenience)."""
    return TemporalHierarchy(duration, root_length, num_levels)
