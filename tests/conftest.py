import numpy as np
import pytest
from hypothesis import settings

from tgh import sh
from tgh import store

# every property test replays the same examples, with no example database
# and no per-example deadline; each sets its own max_examples
settings.register_profile("tgh", derandomize=True, database=None, deadline=None)
settings.load_profile("tgh")

IDENTITY_ROTOR = np.array([1.0, 0.0, 0.0, 0.0])


def random_unit(rng, n=4):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def params(mu, scale, rotor_left=IDENTITY_ROTOR, rotor_right=IDENTITY_ROTOR,
           opacity=0.1, base_color=(0.0, 0.0, 0.0), sh_residual=None):
    """One Gaussian as the batch-of-one arrays `insert_batch` takes."""
    if sh_residual is None:
        sh_residual = np.zeros(sh.RESIDUAL_COEFFS)
    return dict(mu=np.array(mu, dtype=np.float64).reshape(1, 4),
                scale=np.array(scale, dtype=np.float64).reshape(1, 4),
                rotor_left=np.array(rotor_left, dtype=np.float64).reshape(1, 4),
                rotor_right=np.array(rotor_right, dtype=np.float64).reshape(1, 4),
                opacity=np.array(opacity, dtype=np.float64).reshape(1),
                base_color=np.array(base_color, dtype=np.float64).reshape(1, 3),
                sh_residual=np.array(sh_residual, dtype=np.float64)
                .reshape(1, sh.RESIDUAL_COEFFS))


# parameters per Gaussian, 65: the base columns, then the residual SH
WIDE = store.BASE_WIDTH + sh.RESIDUAL_COEFFS


def packed(columns):
    """Parameter columns by name, checked as `insert_batch` checks them, as
    (n, WIDE) rows: base columns, then SH."""
    checked, _ = store.checked_columns(**columns)
    out = np.empty((len(checked["mu"]), WIDE))
    store.pack(checked, out[:, :store.BASE_WIDTH])
    out[:, store.BASE_WIDTH:] = checked["sh_residual"]
    return out


def batch_of_columns(columns, ids=None):
    """A `GaussianBatch` of parameter columns by name, checked as
    `insert_batch` checks them, in the store's layout: a row holds a slot
    where its SH has a set bit, as an insert gives it one. Ids 0, 1, ...
    unless given."""
    checked, lit = store.checked_columns(**columns)
    n = len(checked["mu"])
    held = np.flatnonzero(lit)
    return store.GaussianBatch(np.arange(n, dtype=np.int64) if ids is None else ids,
                               store.pack(checked, np.empty((n, store.BASE_WIDTH))), held,
                               checked["sh_residual"][held])


def batch_rows(batch, rows):
    """A batch of `batch`'s `rows`, in order and repeats allowed, each with
    its slot's SH if it holds one."""
    slot_of = np.full(len(batch), -1)
    slot_of[batch.held] = np.arange(len(batch.held))
    slots = slot_of[rows]
    held = np.flatnonzero(slots >= 0)
    return store.GaussianBatch(batch.ids[rows], batch.params[rows], held, batch.sh[slots[held]])


def joined(first, second):
    """The rows of batch `first`, then those of batch `second`."""
    return store.GaussianBatch(np.concatenate([first.ids, second.ids]),
                               np.concatenate([first.params, second.params]),
                               np.concatenate([first.held, second.held + len(first)]),
                               np.concatenate([first.sh, second.sh]))


def widened(n, positions, block):
    """(n, 45) SH: the rows of `block` at `positions`, zero elsewhere."""
    out = np.zeros((n, sh.RESIDUAL_COEFFS))
    out[positions] = block
    return out


def columns_of(batch):
    """Each parameter column of a batch by name, one row per batch row: the
    base columns as views, the SH widened with zeros for diffuse rows."""
    return {**store.views(batch.params),
            "sh_residual": widened(len(batch), batch.held, batch.sh)}


def grad_columns(grads):
    """Each gradient group of `ParamGradients` by name, one row per batch
    row: the base columns as views, the SH widened with zeros for the
    splats not kept, the view-space norms and the touched flags."""
    return {**store.views(grads.params),
            "sh_residual": widened(len(grads.params), grads.keep, grads.sh),
            "viewspace_norm": grads.viewspace_norm, "touched": grads.touched}


def wide_rows(held, pair):
    """(n, WIDE) rows of a (base rows, SH block) pair as `store.read` gives
    it: SH zero for the rows not `held`."""
    base, block = pair
    return np.concatenate([base, widened(len(base), held, block)], axis=1)


def wide_read(gaussians, rows, *names):
    """`read` of each name from the GaussianStore `gaussians` as (n, WIDE)
    rows, SH zero for a diffuse row."""
    held, *pairs = gaussians.read(rows, *names)
    return [wide_rows(held, pair) for pair in pairs]


def narrowed(gaussians, rows, wide):
    """The (base rows, SH block) pair that `write` of the GaussianStore
    `gaussians` takes for (n, WIDE) rows: the SH of the rows that hold a slot."""
    return wide[:, :store.BASE_WIDTH], wide[gaussians.slot[rows] >= 0, store.BASE_WIDTH:]


def placement_of(h, gid):
    """(level, index) of the segment that holds Gaussian `gid`, or
    GLOBAL_SEGMENT; NotFoundError if the id is not stored."""
    return h._placements(h.store.segment[h.store.rows_of([gid])])[0]


def range_of(h, gid):
    """The influence range (start, end) Gaussian `gid` was placed by."""
    return tuple(h.store.influence[h.store.rows_of([gid])[0]].tolist())


def sh_of(store, rows):
    """The (n, 45) residual SH of the store's rows, read from their slots:
    zero for a diffuse row."""
    slots = store.slot[rows]
    return np.where((slots >= 0)[:, None], store.sh_slots["params"][slots], 0.0)


def stack(parts):
    """Concatenate parameter dicts along their leading axis."""
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def random_params(rng, n=1, t_center_range=(0.0, 10.0), scale_range=(0.05, 2.0)):
    """n random Gaussians as stacked `insert_batch` arrays.

    Each Gaussian draws from rng in turn: spatial mean, temporal mean, scale,
    both rotors, opacity, base color, then the residual SH coefficients.
    """
    lo, hi = scale_range
    parts = []
    for _ in range(n):
        mu = np.concatenate([rng.uniform(-3, 3, size=3), [rng.uniform(*t_center_range)]])
        parts.append(params(mu=mu, scale=rng.uniform(lo, hi, size=4),
                            rotor_left=random_unit(rng), rotor_right=random_unit(rng),
                            opacity=rng.uniform(0.05, 1.0),
                            base_color=rng.uniform(0.0, 1.0, size=3),
                            sh_residual=rng.normal(scale=0.1, size=45)))
    return stack(parts)


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
