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


def packed(columns):
    """Parameter columns by name, checked as `insert_batch` checks them, as
    the (n, WIDTH) matrix of rows that a `GaussianBatch` holds."""
    checked, _ = store.checked_columns(**columns)
    return store.pack(checked, np.empty((len(checked["mu"]), store.WIDTH)))


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
