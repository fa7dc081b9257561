"""Id-addressed columnar storage for Gaussians.

The store owns every per-row array. Two sets are fixed: the parameter
columns (`SHAPES`), which inserts write and training updates, and each
row's placement (`PLACEMENT`), which the temporal hierarchy writes when it
inserts or re-places a Gaussian. They live in preallocated numpy arrays so
the hot path can gather a working set into contiguous batches without
touching Python objects; training attaches its per-row state (`attached`)
to the same rows for the length of a run. Every row-indexed array grows
together in `_grow`, and a row is zeroed in all of them when it is handed
out again. Rows freed by removal are recycled; ids are never reused.
"""

from contextlib import contextmanager
from dataclasses import make_dataclass

import numpy as np

from . import sh
from .errors import InvalidParameterError, NotFoundError

# trailing shape of each parameter column
SHAPES = {"mu": (4,), "scale": (4,), "rotor_left": (4,), "rotor_right": (4,),
          "opacity": (), "base_color": (3,), "sh_residual": (sh.RESIDUAL_COEFFS,)}
COLUMNS = tuple(SHAPES)
# each row's flat segment index and influence range (start, end) in seconds
PLACEMENT = {"segment": ((), np.int64), "influence": ((2,), np.float64)}
INITIAL_CAPACITY = 256      # rows allocated before the first insert

GaussianBatch = make_dataclass(
    "GaussianBatch", ("ids",) + COLUMNS, slots=True, eq=False,
    namespace={"__doc__": "A contiguous snapshot of parameters for a list of ids.",
               "__len__": lambda self: len(self.ids)})


def checked_columns(mu, scale, rotor_left, rotor_right, opacity, base_color, sh_residual):
    """The parameter columns of one insert as float64 arrays, in `COLUMNS`
    order. InvalidParameterError unless each has exactly the shape
    (n,) + SHAPES[name], with n = len(mu), and finite values."""
    values = [np.asarray(value, dtype=np.float64)
              for value in (mu, scale, rotor_left, rotor_right, opacity, base_color, sh_residual)]
    lead = values[0].shape[:1]  # (n,); () for a 0-d mu, which fails its own check
    for name, value in zip(COLUMNS, values):
        if value.shape != lead + SHAPES[name]:
            raise InvalidParameterError(
                f"{name} has shape {value.shape}, expected {lead + SHAPES[name]}")
        if not np.isfinite(value).all():
            raise InvalidParameterError(f"non-finite {name}")
    return values


class GaussianStore:
    def __init__(self):
        self.capacity = INITIAL_CAPACITY
        self._row_arrays = []      # names of row-indexed arrays, COLUMNS first
        self._attach({name: (shape, np.float64) for name, shape in SHAPES.items()})
        self._attach(PLACEMENT)
        self._id_of_row = np.full(self.capacity, -1, dtype=np.int64)
        self._row_of_id = np.full(self.capacity, -1, dtype=np.int64)  # -1 = absent
        self._free = []            # freed rows, reused last-freed first
        self._top = 0              # rows [0, top) ever used
        self._next_id = 0

    def _attach(self, arrays):
        for name, (shape, dtype) in arrays.items():
            setattr(self, name, np.zeros((self.capacity,) + shape, dtype))
            self._row_arrays.append(name)

    @contextmanager
    def attached(self, arrays):
        """Attach zeroed row arrays, `{name: (trailing shape, dtype)}`, read
        as attributes for the length of the block and then dropped, whether
        the block returns or raises. They grow with the parameter columns,
        and a row taken by an insert reads zero in each of them. A name the
        store already has raises InvalidParameterError."""
        if any(hasattr(self, name) for name in arrays):
            raise InvalidParameterError("a row array of that name is already attached")
        self._attach(arrays)
        try:
            yield self
        finally:
            for name in arrays:
                self._row_arrays.remove(name)
                delattr(self, name)

    def _grow(self, needed):
        new_cap = self.capacity
        while new_cap < needed:
            new_cap *= 2
        for name in self._row_arrays:
            old = getattr(self, name)
            fresh = np.zeros((new_cap,) + old.shape[1:], old.dtype)
            fresh[:self._top] = old[:self._top]
            setattr(self, name, fresh)
        self._id_of_row = _grown(self._id_of_row, new_cap)
        self.capacity = new_cap

    def __len__(self):
        return self._top - len(self._free)

    @property
    def ids(self):
        return np.flatnonzero(self._row_of_id[:self._next_id] >= 0).tolist()

    def live_rows(self):
        """Rows currently holding a Gaussian, ascending."""
        rows = self._id_of_row[:self._top]
        return np.flatnonzero(rows >= 0)

    def _rows(self, gids):
        """Rows of the given ids, -1 where an id is unknown or removed.
        InvalidParameterError unless the ids have an integer dtype."""
        gids = np.asarray(gids)
        if gids.size and not np.issubdtype(gids.dtype, np.integer):
            raise InvalidParameterError(f"ids must be integers, got dtype {gids.dtype}")
        gids = gids.astype(np.int64, copy=False).reshape(-1)
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
        """n zeroed rows: freed ones last-freed first, then fresh ones from the
        top."""
        cut = max(len(self._free) - n, 0)
        reused = self._free[cut:][::-1]
        del self._free[cut:]
        for name in self._row_arrays:
            getattr(self, name)[reused] = 0
        fresh = n - len(reused)
        if self._top + fresh > self.capacity:
            self._grow(self._top + fresh)
        rows = np.concatenate([np.array(reused, dtype=np.intp),
                               np.arange(self._top, self._top + fresh, dtype=np.intp)])
        self._top += fresh
        return rows

    def insert_arrays(self, mu, scale, rotor_left, rotor_right, opacity,
                      base_color, sh_residual):
        """Bulk insert of columns that passed `checked_columns`, which the
        hierarchy runs once before it places them. Returns new ids."""
        rows = self._take_rows(len(mu))
        for name, value in zip(COLUMNS, (mu, scale, rotor_left, rotor_right, opacity,
                                         base_color, sh_residual)):
            getattr(self, name)[rows] = value
        ids = np.arange(self._next_id, self._next_id + len(rows), dtype=np.int64)
        self._next_id += len(rows)
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
        self._free.extend(rows.tolist())

    def gather(self, gids):
        """Copy the parameters of the given ids into a contiguous batch."""
        rows = self.rows_of(gids)
        return GaussianBatch(np.asarray(gids, dtype=np.int64),
                             *(getattr(self, name)[rows] for name in COLUMNS))


def _grown(column, size):
    """`column` extended with -1 entries to `size`."""
    out = np.full(size, -1, dtype=np.int64)
    out[:len(column)] = column
    return out
