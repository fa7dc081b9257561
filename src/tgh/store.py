"""Id-addressed columnar storage for Gaussian parameters.

Parameters live in preallocated numpy arrays (one column per field) so the
hot path can gather a working set into contiguous batches without touching
Python objects. Rows freed by removal are recycled; ids are never reused.
"""

import numpy as np

from . import sh
from .errors import InvalidParameterError, NotFoundError

COLUMNS = ("mu", "scale", "rotor_left", "rotor_right", "opacity", "base_color", "sh_residual")


class GaussianBatch:
    """A contiguous snapshot of parameters for a list of ids."""

    __slots__ = ("ids", "mu", "scale", "rotor_left", "rotor_right",
                 "opacity", "base_color", "sh_residual")

    def __init__(self, ids, mu, scale, rotor_left, rotor_right, opacity,
                 base_color, sh_residual):
        self.ids = ids
        self.mu = mu
        self.scale = scale
        self.rotor_left = rotor_left
        self.rotor_right = rotor_right
        self.opacity = opacity
        self.base_color = base_color
        self.sh_residual = sh_residual

    def __len__(self):
        return len(self.ids)


class GaussianStore:
    def __init__(self, capacity=256):
        self._alloc(max(capacity, 16))
        self._id_of_row = np.full(self.capacity, -1, dtype=np.int64)
        self._row_of_id = np.full(self.capacity, -1, dtype=np.int64)  # -1 = absent
        self._free = []            # freed rows, reused last-freed first
        self._top = 0              # rows [0, top) ever used
        self._next_id = 0

    def _alloc(self, capacity):
        self.capacity = capacity
        self.mu = np.zeros((capacity, 4))
        self.scale = np.zeros((capacity, 4))
        self.rotor_left = np.zeros((capacity, 4))
        self.rotor_right = np.zeros((capacity, 4))
        self.opacity = np.zeros(capacity)
        self.base_color = np.zeros((capacity, 3))
        self.sh_residual = np.zeros((capacity, sh.RESIDUAL_COEFFS))

    def _grow(self, needed):
        new_cap = self.capacity
        while new_cap < needed:
            new_cap *= 2
        for name in COLUMNS:
            old = getattr(self, name)
            fresh = np.zeros((new_cap,) + old.shape[1:])
            fresh[:self._top] = old[:self._top]
            setattr(self, name, fresh)
        self._id_of_row = _grown(self._id_of_row, new_cap)
        self.capacity = new_cap

    def __len__(self):
        return self._top - len(self._free)

    def __contains__(self, gid):
        return bool(self.holds([gid])[0])

    @property
    def next_id(self):
        """The id the next insert assigns first."""
        return self._next_id

    @property
    def ids(self):
        return np.flatnonzero(self._row_of_id[:self._next_id] >= 0).tolist()

    def live_rows(self):
        """Rows currently holding a Gaussian, ascending."""
        rows = self._id_of_row[:self._top]
        return np.flatnonzero(rows >= 0)

    def _rows(self, gids):
        """Rows of the given ids, -1 where an id is unknown or removed."""
        gids = np.asarray(gids, dtype=np.int64).reshape(-1)
        inside = (gids >= 0) & (gids < self._next_id)
        return np.where(inside, self._row_of_id.take(gids, mode="clip"), -1)

    def holds(self, gids):
        """Per id, whether it is stored."""
        return self._rows(gids) >= 0

    def rows_of(self, gids):
        """Rows of the given ids; NotFoundError if any is unknown or removed."""
        rows = self._rows(gids)
        if np.any(rows < 0):
            raise NotFoundError(f"unknown Gaussian id {np.ravel(gids)[np.argmax(rows < 0)]}")
        return rows.astype(np.intp, copy=False)

    def ids_at_rows(self, rows):
        """Ids held by the given rows; -1 where a row is free."""
        return self._id_of_row[rows]

    def _take_rows(self, n):
        """n rows: freed ones last-freed first, then fresh ones from the top."""
        cut = max(len(self._free) - n, 0)
        reused = self._free[cut:][::-1]
        del self._free[cut:]
        fresh = n - len(reused)
        if self._top + fresh > self.capacity:
            self._grow(self._top + fresh)
        rows = np.concatenate([np.array(reused, dtype=np.intp),
                               np.arange(self._top, self._top + fresh, dtype=np.intp)])
        self._top += fresh
        return rows

    def insert_arrays(self, mu, scale, rotor_left, rotor_right, opacity,
                      base_color, sh_residual):
        """Bulk insert; arrays share the leading dimension. Returns new ids.
        An array that does not fit its column raises before anything changes."""
        n = len(mu)
        values = [np.broadcast_to(np.asarray(value, dtype=np.float64),
                                  (n,) + getattr(self, name).shape[1:])
                  for name, value in zip(COLUMNS, (mu, scale, rotor_left, rotor_right,
                                                   opacity, base_color, sh_residual))]
        rows = self._take_rows(n)
        for name, value in zip(COLUMNS, values):
            getattr(self, name)[rows] = value
        ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n
        if self._next_id > len(self._row_of_id):
            self._row_of_id = _grown(self._row_of_id, 2 * self._next_id)
        self._row_of_id[ids] = rows
        self._id_of_row[rows] = ids
        return ids.tolist()

    def remove(self, gids):
        """Free the rows of the given ids, in order; later inserts reuse them
        last-freed first. Nothing changes unless every id is stored and
        appears once."""
        rows = self.rows_of(gids)
        if len(np.unique(rows)) < len(rows):
            raise InvalidParameterError("an id appears twice in one remove")
        self._row_of_id[self._id_of_row[rows]] = -1
        self._id_of_row[rows] = -1
        self.sh_residual[rows] = 0.0  # keep freed rows exactly diffuse
        self._free.extend(rows.tolist())

    def gather(self, gids):
        """Copy the parameters of the given ids into a contiguous batch."""
        rows = self.rows_of(gids)
        return GaussianBatch(ids=np.asarray(gids, dtype=np.int64),
                             mu=self.mu[rows], scale=self.scale[rows],
                             rotor_left=self.rotor_left[rows],
                             rotor_right=self.rotor_right[rows],
                             opacity=self.opacity[rows],
                             base_color=self.base_color[rows],
                             sh_residual=self.sh_residual[rows])


def _grown(column, size):
    """`column` extended with -1 entries to `size`."""
    out = np.full(size, -1, dtype=np.int64)
    out[:len(column)] = column
    return out
