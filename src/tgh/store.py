"""Id-addressed row storage for Gaussians.

Each Gaussian's 65 parameters are one row of the float64 matrix `params`, in
`COLUMNS` order, SH last. Only this module knows that layout: others read a
column by name as a view that writes through (`views`, `NamedColumns`) and
write named columns into rows with `pack`. Each row's placement
(`PLACEMENT`) and training's per-row state (`attached`) are more row arrays.
All grow together in `_grow`, and a row is zeroed in all of them when it is
handed out again. Rows freed by removal are recycled; ids are never reused.
"""

import math
from contextlib import contextmanager
from dataclasses import make_dataclass

import numpy as np

from . import sh
from .errors import InvalidParameterError, NotFoundError

# trailing shape of each parameter column
SHAPES = {"mu": (4,), "scale": (4,), "rotor_left": (4,), "rotor_right": (4,),
          "opacity": (), "base_color": (3,), "sh_residual": (sh.RESIDUAL_COEFFS,)}
COLUMNS = tuple(SHAPES)
_ENDS = np.cumsum([math.prod(shape) for shape in SHAPES.values()]).tolist()
# each name's columns of a parameter row: a slice, or the scalar opacity's index
_KEYS = {name: slice(end - math.prod(shape), end) if shape else end - 1
         for (name, shape), end in zip(SHAPES.items(), _ENDS)}
WIDTH = _ENDS[-1]           # parameters per Gaussian, 65
# each row's flat segment index and influence range (start, end) in seconds
PLACEMENT = {"segment": ((), np.int64), "influence": ((2,), np.float64)}
INITIAL_CAPACITY = 256      # rows allocated before the first insert


def views(params):
    """Each name's columns of a (..., WIDTH) parameter matrix, as views."""
    return {name: params[..., key] for name, key in _KEYS.items()}


def pack(values, out, rows=...):
    """Write each values[name], broadcast, into its columns of out[rows]."""
    for name, view in views(out).items():
        view[rows] = values[name]
    return out


NamedColumns = type("NamedColumns", (), {
    "__doc__": "Reads each name in COLUMNS as a view of its columns of `self.params`.",
    "__slots__": (),
    **{name: property(lambda self, key=key: self.params[:, key]) for name, key in _KEYS.items()}})


GaussianBatch = make_dataclass(
    "GaussianBatch", ("ids", "params"), bases=(NamedColumns,), slots=True, eq=False,
    namespace={"__doc__": "A contiguous snapshot of the parameter rows of a list of ids.",
               "__len__": lambda self: len(self.ids)})


def checked_columns(mu, scale, rotor_left, rotor_right, opacity, base_color, sh_residual):
    """The parameter columns of one insert as float64 arrays, by name.
    InvalidParameterError unless each has exactly the shape (n,) +
    SHAPES[name], with n = len(mu), and finite values."""
    values = {name: np.asarray(value, dtype=np.float64) for name, value in zip(
        COLUMNS, (mu, scale, rotor_left, rotor_right, opacity, base_color, sh_residual))}
    lead = values["mu"].shape[:1]  # (n,); () for a 0-d mu, which fails its own check
    for name, value in values.items():
        if value.shape != lead + SHAPES[name]:
            raise InvalidParameterError(
                f"{name} has shape {value.shape}, expected {lead + SHAPES[name]}")
        if not np.isfinite(value).all():
            raise InvalidParameterError(f"non-finite {name}")
    return values


class GaussianStore(NamedColumns):
    def __init__(self):
        self.capacity = INITIAL_CAPACITY
        self._row_arrays = []      # names of row-indexed arrays, params first
        self._attach({"params": ((WIDTH,), np.float64), **PLACEMENT})
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
        the block returns or raises. They grow with the parameter rows,
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

    def insert_arrays(self, columns):
        """Bulk insert of columns that passed `checked_columns`, which the
        hierarchy runs once before it places them. Returns new ids."""
        rows = self._take_rows(len(columns["mu"]))
        buf = np.empty((min(len(rows), 1024), WIDTH))
        for lo in range(0, len(rows), 1024):  # packed in cache, then copied in whole rows
            block = {name: value[lo:lo + 1024] for name, value in columns.items()}
            self.params[rows[lo:lo + 1024]] = pack(block, buf[:len(block["mu"])])
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
        """Copy the parameter rows of the given ids into a batch."""
        rows = self.rows_of(gids)
        return GaussianBatch(np.asarray(gids, dtype=np.int64), self.params[rows])


def _grown(column, size):
    """`column` extended with -1 entries to `size`."""
    out = np.full(size, -1, dtype=np.int64)
    out[:len(column)] = column
    return out
