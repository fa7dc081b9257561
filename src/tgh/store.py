"""Id-addressed row storage for Gaussians.

Each Gaussian has 65 parameters, in `COLUMNS` order with SH last. The store
keeps the first BASE_WIDTH = 20 (mu, scale, both rotors, opacity and base
color) as one row of the float64 matrix `params`. The 45 residual SH
coefficients live in a slot table, the paper's Compact Appearance Model: most
Gaussians are diffuse and have no SH. A row's slot (`slot`, -1 = diffuse) is
the one record of whether it is view-dependent and of which row holds a slot;
the slot pool counts the slots held (`slots_held`). A row takes one when it is
inserted with SH that has a set bit, or when training lets its SH gradient
through (`take_slots`), and keeps it until it is removed. `sh_slots["params"]`
holds the SH of each slot. A batch keeps this layout: `read` and `gather`
give the base rows, the batch positions `held` of the rows that hold a slot
and one (len(held), 45) SH block, and `write` takes the same pairs back.

Only this module knows that layout. Others read a base column by name as a
view that writes through (`views`, `NamedColumns`) and write named columns
into rows with `pack`. Each row's placement (`PLACEMENT`, its flat segment)
and training's per-row state (`attached`) are more row arrays. An array
attached as `PARAMETERS`, such as training's Adam moments, is laid out as
`params`: BASE_WIDTH columns per row and its SH in `sh_slots[name]`.

All row arrays grow together in `_grow`, and a row is zeroed in all of them
when it is handed out again. The slot table grows in `_grow_slots` and zeroes
a reused slot in the same way. Freed rows and slots are recycled, last-freed
first; ids are never reused.
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
BASE_WIDTH = _ENDS[-2]      # parameters a row holds, 20: all but the SH
# each row's flat segment index; the influence range it was placed by is a
# function of the row's parameters, not stored
PLACEMENT = {"segment": ((), np.int64)}
PARAMETERS = "parameters"   # the spec of an array laid out as `params` (`attached`)
INITIAL_CAPACITY = 256      # rows, and slots, allocated before the first insert
# rows an insert packs per block: on 60,000 rows a 640 KB block packed ~8 %
# faster than a 160 KB one and ~15 % faster than a 1.3 MB one
_PACK_ROWS = 4096


def views(params):
    """Each base name's columns of a (..., BASE_WIDTH) parameter matrix, as views."""
    return {name: params[..., _KEYS[name]] for name in COLUMNS[:-1]}


def pack(values, out):
    """Write each values[name], broadcast, into its base columns of `out`."""
    for name, view in views(out).items():
        view[...] = values[name]
    return out


NamedColumns = type("NamedColumns", (), {
    "__doc__": "Reads each name in COLUMNS but SH as a view of its columns of `self.params`.",
    "__slots__": (), **{name: property(lambda self, key=_KEYS[name]: self.params[:, key])
                        for name in COLUMNS[:-1]}})


GaussianBatch = make_dataclass(
    "GaussianBatch", ("ids", "params", "held", "sh"), bases=(NamedColumns,), slots=True,
    eq=False, namespace={"__doc__": "A contiguous snapshot of the rows of a list of ids, in "
                         "the store's layout: (n, BASE_WIDTH) base rows, the ascending "
                         "positions `held` of those that hold a slot and their SH.",
                         "__len__": lambda self: len(self.ids)})


def checked_columns(mu, scale, rotor_left, rotor_right, opacity, base_color, sh_residual):
    """The parameter columns of one insert as float64 arrays, by name, and
    `_lit` of its SH. InvalidParameterError unless each column has exactly
    the shape (n,) + SHAPES[name], with n = len(mu), and finite values, and
    every scale is positive and every opacity in [0, 1], as a step keeps them.

    The SH block is read once, by `_lit`, and only the rows it marks are
    checked for finiteness: a row with no set bit is all +0.0, and a NaN or
    an infinity always has set bits. `insert_arrays` takes the same mask for
    its slot test."""
    values = {name: np.asarray(value, dtype=np.float64) for name, value in zip(
        COLUMNS, (mu, scale, rotor_left, rotor_right, opacity, base_color, sh_residual))}
    lead = values["mu"].shape[:1]  # (n,); () for a 0-d mu, which fails its own check
    for name, value in values.items():
        if value.shape != lead + SHAPES[name]:
            raise InvalidParameterError(
                f"{name} has shape {value.shape}, expected {lead + SHAPES[name]}")
        if name == "sh_residual":
            lit = _lit(value)
            value = value[lit]
        if not np.isfinite(value).all():
            raise InvalidParameterError(f"non-finite {name}")
    if not ((values["scale"] > 0.0).all() and np.all(0.0 <= values["opacity"])
            and np.all(values["opacity"] <= 1.0)):
        raise InvalidParameterError("scales must be positive and opacities in [0, 1]")
    return values, lit


def _lit(block):
    """Per row of an (n, 45) SH block, whether any coefficient has a set
    bit: -0.0 counts, so a row that takes no slot reads back exactly as
    written."""
    bits = block.view(np.uint64)
    if not np.count_nonzero(bits):  # all diffuse: one flat pass, half the row-wise reduce
        return np.zeros(len(bits), dtype=bool)
    return np.bitwise_or.reduce(bits, axis=1) != 0


class _Pool:
    """Indices [0, top) handed out; freed ones are reused last-freed first."""

    def __init__(self):
        self.free = []
        self.top = 0

    def take(self, n):
        """(reused, fresh) index arrays, n in all."""
        cut = max(len(self.free) - n, 0)
        reused = np.array(self.free[cut:][::-1], dtype=np.intp)
        del self.free[cut:]
        fresh = np.arange(self.top, self.top + n - len(reused), dtype=np.intp)
        self.top += len(fresh)
        return reused, fresh


class GaussianStore(NamedColumns):
    def __init__(self):
        self.capacity = self.slot_capacity = INITIAL_CAPACITY
        self._row_arrays = []      # names of row-indexed arrays, params first
        self.sh_slots = {}         # name -> (slot_capacity, 45) SH of a PARAMETERS array
        self._attach({"params": PARAMETERS, **PLACEMENT})
        self._id_of_row = np.full(self.capacity, -1, dtype=np.int64)
        self.slot = np.full(self.capacity, -1, dtype=np.int64)  # -1 = diffuse
        self._row_of_id = np.full(self.capacity, -1, dtype=np.int64)  # -1 = absent
        self._rows_pool, self._slots_pool = _Pool(), _Pool()
        self._next_id = 0

    def _attach(self, arrays):
        for name, spec in arrays.items():
            shape, dtype = ((BASE_WIDTH,), np.float64) if spec == PARAMETERS else spec
            setattr(self, name, np.zeros((self.capacity,) + shape, dtype))
            self._row_arrays.append(name)
            if spec == PARAMETERS:
                self.sh_slots[name] = np.zeros((self.slot_capacity, sh.RESIDUAL_COEFFS))

    @contextmanager
    def attached(self, arrays):
        """Attach zeroed row arrays, `{name: (trailing shape, dtype)}` or
        `{name: PARAMETERS}`, read as attributes for the length of the block
        and then dropped, whether the block returns or raises. They grow with
        the parameter rows, and a row taken by an insert reads zero in each
        of them; a PARAMETERS array's SH lives in `sh_slots[name]` and is
        read and written with `read` and `write`. A name the store already
        has raises InvalidParameterError."""
        if any(hasattr(self, name) for name in arrays):
            raise InvalidParameterError("a row array of that name is already attached")
        self._attach(arrays)
        try:
            yield self
        finally:
            for name in arrays:
                self._row_arrays.remove(name)
                delattr(self, name)
                self.sh_slots.pop(name, None)

    def _grow(self, needed):
        new_cap = _doubled(self.capacity, needed)
        for name in self._row_arrays:
            setattr(self, name, _zero_extended(getattr(self, name), new_cap))
        self._id_of_row = _grown(self._id_of_row, new_cap)
        self.slot = _grown(self.slot, new_cap)
        self.capacity = new_cap

    def _grow_slots(self, needed):
        new_cap = _doubled(self.slot_capacity, needed)
        for name, table in self.sh_slots.items():
            self.sh_slots[name] = _zero_extended(table, new_cap)
        self.slot_capacity = new_cap

    def __len__(self):
        return self._rows_pool.top - len(self._rows_pool.free)

    @property
    def ids(self):
        return np.flatnonzero(self._row_of_id[:self._next_id] >= 0).tolist()

    def slots_held(self):
        """Number of slots currently held by a row."""
        return self._slots_pool.top - len(self._slots_pool.free)

    def live_rows(self):
        """Rows currently holding a Gaussian, ascending."""
        rows = self._id_of_row[:self._rows_pool.top]
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
        """n zeroed, diffuse rows: freed ones last-freed first, then fresh
        ones from the top."""
        reused, fresh = self._rows_pool.take(n)
        for name in self._row_arrays:
            getattr(self, name)[reused] = 0
        if self._rows_pool.top > self.capacity:
            self._grow(self._rows_pool.top)
        return np.concatenate([reused, fresh])

    def take_slots(self, rows):
        """A slot, zeroed in every slot array, for each of the diffuse
        `rows`: freed ones last-freed first, then fresh ones from the top."""
        reused, fresh = self._slots_pool.take(len(rows))
        for table in self.sh_slots.values():
            table[reused] = 0
        if self._slots_pool.top > self.slot_capacity:
            self._grow_slots(self._slots_pool.top)
        slots = np.concatenate([reused, fresh])
        self.slot[rows] = slots
        return slots

    def insert_arrays(self, columns, lit):
        """Bulk insert of columns that passed `checked_columns`, which the
        hierarchy runs once before it places them; a row takes a slot where
        `lit`, the mask `checked_columns` returned, is set. Returns the rows
        written and the new ids, both as arrays, in the order of the columns."""
        rows = self._take_rows(len(columns["mu"]))
        buf = np.empty((min(len(rows), _PACK_ROWS), BASE_WIDTH))
        for lo in range(0, len(rows), _PACK_ROWS):  # packed in cache, then copied in whole rows
            block = {name: value[lo:lo + _PACK_ROWS] for name, value in columns.items()}
            self.params[rows[lo:lo + _PACK_ROWS]] = pack(block, buf[:len(block["mu"])])
        lit = np.flatnonzero(lit)
        slots = self.take_slots(rows[lit])  # may grow the table: taken before it is read
        self.sh_slots["params"][slots] = columns["sh_residual"][lit]
        ids = np.arange(self._next_id, self._next_id + len(rows), dtype=np.int64)
        self._next_id += len(rows)
        if self._next_id > len(self._row_of_id):
            self._row_of_id = _grown(self._row_of_id, 2 * self._next_id)
        self._row_of_id[ids] = rows
        self._id_of_row[rows] = ids
        return rows, ids

    def remove(self, gids):
        """Free the rows of the given ids, in order, and the slots they hold;
        later inserts reuse them last-freed first. Nothing changes unless
        every id is stored and appears once."""
        rows = self.rows_of(gids)
        if len(np.unique(rows)) < len(rows):
            raise InvalidParameterError("an id appears twice in one remove")
        self._row_of_id[self._id_of_row[rows]] = -1
        self._id_of_row[rows] = -1
        slots = self.slot[rows]
        slots = slots[slots >= 0]
        self.slot[rows] = -1
        self._rows_pool.free.extend(rows.tolist())
        self._slots_pool.free.extend(slots.tolist())

    def read(self, rows, *names):
        """The positions `held` in `rows` of those that hold a slot, ascending,
        then for each named PARAMETERS array a (base rows, SH block) pair:
        its (n, BASE_WIDTH) rows and the (len(held), 45) SH of their slots."""
        slots = self.slot[rows]
        held = np.flatnonzero(slots >= 0)
        return (held, *((getattr(self, name)[rows], self.sh_slots[name][slots[held]])
                        for name in names))

    def write(self, rows, **values):
        """Write (base rows, SH block) pairs of PARAMETERS arrays, by name, as
        `read` gives them: the base rows to the rows, the SH block to the
        slots they hold, in order. Nothing is written unless each block has
        one row per slot held."""
        slots = self.slot[rows]
        slots = slots[slots >= 0]
        if any(len(block) != len(slots) for _, block in values.values()):
            raise InvalidParameterError(f"an SH block's rows are not the {len(slots)} slots held")
        for name, (base, block) in values.items():
            getattr(self, name)[rows] = base
            self.sh_slots[name][slots] = block

    def gather(self, gids):
        """Copy the parameter rows of the given ids into a batch."""
        held, (params, block) = self.read(self.rows_of(gids), "params")
        return GaussianBatch(np.asarray(gids, dtype=np.int64), params, held, block)


def _doubled(capacity, needed):
    """`capacity` doubled until it reaches `needed`."""
    while capacity < needed:
        capacity *= 2
    return capacity


def _zero_extended(array, size):
    """`array` with its leading axis extended by zero rows to `size`."""
    out = np.zeros((size,) + array.shape[1:], array.dtype)
    out[:len(array)] = array
    return out


def _grown(column, size):
    """`column` extended with -1 entries to `size`."""
    out = np.full(size, -1, dtype=np.int64)
    out[:len(column)] = column
    return out
