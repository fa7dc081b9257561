"""Property tests for the store's SH slot table: over random sequences of
inserts (some rows with non-zero SH), removes and training-shaped writes,
each held slot belongs to exactly one live row, every read equals a dense
reference, a reused slot reads zero, and the gate's count over the slots
equals the brute-force count over the population, also at every control
pass of a real `train()`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tgh import appearance as ap
from tgh import optimizer as opt
from tgh import sh
from tgh import store as stm
from tgh.store import BASE_WIDTH, WIDTH, GaussianStore

from conftest import packed, random_params
from test_train_properties import small_scene

MOMENTS = ("params_m", "params_v")


def sh_block(rng, n):
    """n rows of SH: about half all zero, a few holding a single -0.0 (a
    set bit that compares equal to zero), the rest random."""
    block = np.zeros((n, sh.RESIDUAL_COEFFS))
    kind = rng.integers(0, 4, n)
    block[kind >= 2] = rng.normal(scale=0.1, size=(int(np.sum(kind >= 2)), sh.RESIDUAL_COEFFS))
    block[kind == 1, rng.integers(sh.RESIDUAL_COEFFS)] = -0.0
    return block


def check(store, reference):
    """The slot table's invariants, and every read against `reference`
    (id -> {name: (WIDTH,) row})."""
    live = store.live_rows()
    slots = store.slot[live]
    held = store.held_slots()
    # each held slot is held by exactly one live row, and no row refers to a free slot
    assert sorted(slots[slots >= 0].tolist()) == held.tolist()
    assert np.all(np.delete(store.slot, live) == -1)
    ids = store.ids_at_rows(live)
    assert sorted(ids.tolist()) == sorted(reference)
    for name in ("params",) + MOMENTS:
        expected = np.array([reference[g][name] for g in ids.tolist()]).reshape(-1, WIDTH)
        [got] = store.read(live, name)
        assert np.array_equal(got, expected), name
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), name  # -0.0 too
        # a diffuse row's SH, and its moments' SH, have no set bit
        assert not expected[slots < 0, BASE_WIDTH:].view(np.int64).any(), name
    dense = store.sh_residual[live]
    [params] = store.read(live, "params")
    assert np.array_equal(store.gather(ids).params, params)
    assert np.array_equal(dense, params[:, BASE_WIDTH:])
    assert ap.view_dependent_fraction(store.sh_slots["params"][held], len(store)) == \
        ap.view_dependent_fraction(dense, len(dense))


# one-bit values at the edges of the format: -0.0 (the sign bit alone) and
# the smallest subnormal, and NaN and the infinities, which have set bits
SPECIALS = np.array([-0.0, 5e-324, np.nan, np.inf, -np.inf])


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 12), strided=st.booleans(),
       column=st.sampled_from(["random", "first", "last"]),
       kinds=st.lists(st.sampled_from(["zero", "negative_zero", "one_bit", "special", "random"]),
                      min_size=1, max_size=3))
def test_lit_matches_reference(seed, n, strided, column, kinds):
    # one to three blocks, as `store.write` passes them, each of its own
    # kind; all-zero blocks take the flat path. The other kinds set one
    # value in about half the rows, at a random column of each row or at the
    # first or last column of all: -0.0, a single bit, a special value or a
    # normal number. Strided blocks are the SH columns of (n, WIDTH) rows.
    rng = np.random.default_rng(seed)
    arrays = []
    for kind in kinds:
        block = (np.zeros((n, WIDTH))[:, BASE_WIDTH:] if strided
                 else np.zeros((n, sh.RESIDUAL_COEFFS)))
        rows = np.flatnonzero(rng.random(n) < 0.5) if kind != "zero" else np.zeros(0, int)
        if kind == "negative_zero":
            values = -0.0
        elif kind == "one_bit":
            values = (np.uint64(1) << rng.integers(0, 64, len(rows)).astype(np.uint64)) \
                .view(np.float64)
        elif kind == "special":
            values = rng.choice(SPECIALS, len(rows))
        else:
            values = rng.normal(size=len(rows))
        at = {"random": rng.integers(0, sh.RESIDUAL_COEFFS, len(rows)), "first": 0,
              "last": sh.RESIDUAL_COEFFS - 1}[column]
        block[rows, at] = values
        arrays.append(block)
    want = (np.stack([b.view(np.uint64) for b in arrays]) != 0).any(axis=(0, 2))
    got = stm._lit(*arrays)
    assert got.dtype == bool and got.shape == (n,)
    assert np.array_equal(got, want)


@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ops=st.lists(st.sampled_from(["insert", "remove", "step", "params_only"]),
                    min_size=1, max_size=25))
def test_slot_lifecycle(seed, ops):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stm, "INITIAL_CAPACITY", 4)  # so that rows and slots both grow
        store = GaussianStore()
    reference = {}
    with store.attached(opt.TRAINING_ROWS):
        for op in ["insert"] + ops:
            ids = sorted(reference)
            if op == "insert":
                n = int(rng.integers(1, 9))
                columns = random_params(rng, n)
                columns["sh_residual"] = sh_block(rng, n)
                rows = packed(columns)
                for gid, row in zip(store.insert_arrays(*stm.checked_columns(**columns))[1], rows):
                    reference[gid] = {"params": row, "params_m": np.zeros(WIDTH),
                                      "params_v": np.zeros(WIDTH)}
            elif op == "remove" and ids:
                gone = rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False)
                store.remove(gone)
                for gid in gone.tolist():
                    del reference[gid]
            elif ids:
                # a training step: new values for some rows, their SH zero,
                # moved, or zero in the parameters but not in the moments
                chosen = rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False)
                rows = store.rows_of(chosen)
                if rng.integers(2):
                    rows = rows.tolist()  # read and write take a list of rows too
                names = ("params",) + (MOMENTS if op == "step" else ())
                values = dict(zip(names, store.read(rows, *names)))
                for name in names:
                    values[name][:, :BASE_WIDTH] = rng.normal(size=(len(rows), BASE_WIDTH))
                    values[name][:, BASE_WIDTH:] = sh_block(rng, len(rows))
                store.write(rows, **values)
                for i, gid in enumerate(chosen.tolist()):
                    for name in names:
                        reference[gid][name] = values[name][i].copy()
            check(store, reference)
    assert not hasattr(store, "params_m") and list(store.sh_slots) == ["params"]


def test_reused_slot_reads_zero():
    store = GaussianStore()
    columns = random_params(np.random.default_rng(3), 3)
    with store.attached(opt.TRAINING_ROWS):
        _, ids = store.insert_arrays(*stm.checked_columns(**columns))
        rows = store.rows_of(ids)
        store.write(rows, params=store.read(rows, "params")[0], params_m=np.ones((3, WIDTH)),
                    params_v=np.ones((3, WIDTH)))
        freed = store.slot[rows[1]]
        store.remove([ids[1]])
        columns["sh_residual"][:] = 0.0
        columns["sh_residual"][0, 5] = 2.0
        checked, lit = stm.checked_columns(**columns)
        one = {name: value[:1] for name, value in checked.items()}
        _, [new] = store.insert_arrays(one, lit[:1])
        [row] = store.rows_of([new])
        assert store.slot[row] == freed
        for name in MOMENTS:
            assert np.all(store.read([row], name)[0] == 0.0), name
        expected = np.zeros(sh.RESIDUAL_COEFFS)
        expected[5] = 2.0
        assert np.array_equal(store.sh_residual[row], expected)


@settings(max_examples=4)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 6))
def test_gate_count_over_slots_equals_brute_force_at_every_pass(seed, n):
    scene, h = small_scene(seed, n, 16)
    passes = []
    fraction = ap.view_dependent_fraction

    def both(sh_rows, population):
        # the train() count over the slots, and the brute-force count over
        # the whole population
        dense = h.store.sh_residual[h.store.live_rows()]
        passes.append((fraction(sh_rows, population), fraction(dense, len(dense))))
        return passes[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ap, "G_TH", 1e-9)        # most gradients pass: many rows take slots
        mp.setattr(ap, "LAMBDA_H", 2.0)     # the gate never freezes
        mp.setattr(ap, "view_dependent_fraction", both)
        mp.setattr(opt, "GRAD_DENSIFY_THRESHOLD", 1e-12)  # clones and splits copy SH
        mp.setattr(opt, "CLONE_SIZE_FRACTION", 0.05 / opt.scene_extent_of(h.store))
        opt.train(scene, h, opt.TrainConfig(iterations=20, densify_interval=5, seed=seed))
    assert len(passes) == 4
    assert any(slots > 0 for slots, _ in passes)
    for slots, brute in passes:
        assert slots == brute
    h.audit()
