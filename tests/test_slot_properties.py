"""Property tests for the store's SH slot table: over random sequences of
inserts (some rows with non-zero SH), removes and training-shaped writes,
live rows hold distinct slots, as many as the store counts held, a row holds
one exactly when it was inserted with a set SH bit or took one before a step
that set one, every read equals a dense reference and a reused slot reads
zero. In a real `train()`, the gate's count, the slots held, equals the
brute-force count of the rows inserted lit or opened by the gate, and each
write's SH block has one row per slotted row."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from tgh import appearance as ap
from tgh import optimizer as opt
from tgh import sh
from tgh import store as stm
from tgh.store import BASE_WIDTH, GaussianStore

from conftest import WIDE, narrowed, packed, random_params, sh_of, wide_read, wide_rows
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


def set_bits(block):
    """Per row of an (n, 45) SH block, whether any coefficient has a set bit."""
    return block.view(np.int64).any(axis=1)


def check(store, reference, lit):
    """The slot table's invariants, and every read against `reference`
    (id -> {name: (WIDE,) row}) and `lit` (the ids that hold a slot)."""
    live = store.live_rows()
    slots = store.slot[live]
    held = slots[slots >= 0]
    # live rows hold distinct slots, each handed out and not free, as many as
    # the count of slots held; no other row refers to a slot
    assert len(np.unique(held)) == len(held) == store.slots_held()
    assert np.all(held < store._slots_pool.top)
    assert not np.isin(held, store._slots_pool.free).any()
    assert np.all(np.delete(store.slot, live) == -1)
    ids = store.ids_at_rows(live)
    assert sorted(ids.tolist()) == sorted(reference)
    assert sorted(ids[slots >= 0].tolist()) == sorted(lit)
    for name in ("params",) + MOMENTS:
        expected = np.array([reference[g][name] for g in ids.tolist()]).reshape(-1, WIDE)
        [got] = wide_read(store, live, name)
        assert np.array_equal(got, expected), name
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), name  # -0.0 too
        # a diffuse row's SH, and its moments' SH, have no set bit
        assert not expected[slots < 0, BASE_WIDTH:].view(np.int64).any(), name
    [params] = wide_read(store, live, "params")
    batch = store.gather(ids)
    assert np.array_equal(wide_rows(batch.held, (batch.params, batch.sh)), params)
    assert np.array_equal(sh_of(store, live), params[:, BASE_WIDTH:])


# one-bit values at the edges of the format: -0.0 (the sign bit alone) and
# the smallest subnormal, and NaN and the infinities, which have set bits
SPECIALS = np.array([-0.0, 5e-324, np.nan, np.inf, -np.inf])


# Hypothesis draws a derandomized test's cases from a hash of the test's
# source; these seeds fix them, so that an edit to the body keeps its cases.
@seed(24714203701793276366341862638798642445412705204498920685555061008199395603506162773870020330151604756155409276890487)
@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 12), strided=st.booleans(),
       column=st.sampled_from(["random", "first", "last"]),
       kinds=st.lists(st.sampled_from(["zero", "negative_zero", "one_bit", "special", "random"]),
                      min_size=1, max_size=3))
def test_lit_matches_reference(seed, n, strided, column, kinds):
    # one to three blocks, each of its own kind and checked alone; all-zero
    # blocks take the flat path. The other kinds set one value in about half
    # the rows, at a random column of each row or at the first or last
    # column of all: -0.0, a single bit, a special value or a normal number.
    # Strided blocks are the SH columns of (n, WIDE) rows.
    rng = np.random.default_rng(seed)
    arrays = []
    for kind in kinds:
        block = (np.zeros((n, WIDE))[:, BASE_WIDTH:] if strided
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
    for block in arrays:
        got = stm._lit(block)
        assert got.dtype == bool and got.shape == (n,)
        assert np.array_equal(got, (block.view(np.uint64) != 0).any(axis=1))


@seed(20340565450400667674485618107876982560289205559801345227286311286004209097906895696561763019801163438751716971236052)
@settings(max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ops=st.lists(st.sampled_from(["insert", "remove", "step", "params_only"]),
                    min_size=1, max_size=25))
def test_slot_lifecycle(seed, ops):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stm, "INITIAL_CAPACITY", 4)  # so that rows and slots both grow
        store = GaussianStore()
    reference, lit = {}, set()
    with store.attached(opt.TRAINING_ROWS):
        for op in ["insert"] + ops:
            ids = sorted(reference)
            if op == "insert":
                n = int(rng.integers(1, 9))
                columns = random_params(rng, n)
                columns["sh_residual"] = sh_block(rng, n)
                rows = packed(columns)
                new = store.insert_arrays(*stm.checked_columns(**columns))[1].tolist()
                for gid, row in zip(new, rows):
                    reference[gid] = {"params": row, "params_m": np.zeros(WIDE),
                                      "params_v": np.zeros(WIDE)}
                lit.update(np.array(new)[set_bits(columns["sh_residual"])].tolist())
            elif op == "remove" and ids:
                gone = rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False)
                store.remove(gone)
                for gid in gone.tolist():
                    del reference[gid]
                    lit.discard(gid)
            elif ids:
                # a training step: new values for some rows, their SH zero,
                # moved, or zero in the parameters but not in the moments. As
                # in `train()`, where the gate opens them, the diffuse rows
                # whose new SH has a set bit take slots before the write.
                chosen = rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False)
                rows = store.rows_of(chosen)
                if rng.integers(2):
                    rows = rows.tolist()  # read and write take a list of rows too
                names = ("params",) + (MOMENTS if op == "step" else ())
                values = dict(zip(names, wide_read(store, rows, *names)))
                for name in names:
                    values[name][:, :BASE_WIDTH] = rng.normal(size=(len(rows), BASE_WIDTH))
                    values[name][:, BASE_WIDTH:] = sh_block(rng, len(rows))
                opened = np.any([set_bits(v[:, BASE_WIDTH:]) for v in values.values()], axis=0)
                opened &= ~np.isin(chosen, list(lit))
                store.take_slots(np.asarray(rows)[opened])
                lit.update(chosen[opened].tolist())
                store.write(rows, **{name: narrowed(store, rows, value)
                                     for name, value in values.items()})
                for i, gid in enumerate(chosen.tolist()):
                    for name in names:
                        reference[gid][name] = values[name][i].copy()
            check(store, reference, lit)
    assert not hasattr(store, "params_m") and list(store.sh_slots) == ["params"]


def test_reused_slot_reads_zero():
    store = GaussianStore()
    columns = random_params(np.random.default_rng(3), 3)
    with store.attached(opt.TRAINING_ROWS):
        _, ids = store.insert_arrays(*stm.checked_columns(**columns))
        rows = store.rows_of(ids)
        store.write(rows, params=narrowed(store, rows, wide_read(store, rows, "params")[0]),
                    params_m=narrowed(store, rows, np.ones((3, WIDE))),
                    params_v=narrowed(store, rows, np.ones((3, WIDE))))
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
            assert np.all(wide_read(store, [row], name)[0] == 0.0), name
        expected = np.zeros(sh.RESIDUAL_COEFFS)
        expected[5] = 2.0
        assert np.array_equal(sh_of(store, [row])[0], expected)


@seed(22312525650935209261847349466681818127168495010331396291391865267803569821684288745539670550614034748532386124100851)
@settings(max_examples=4)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 6))
def test_gate_count_over_slots_equals_brute_force_at_every_pass(seed, n):
    scene, h = small_scene(seed, n, 16)
    assert h.store.slots_held() == 0      # the scene's SH is all +0.0
    vdep = set()        # ids inserted with a set SH bit, or opened by the gate
    passes = []
    batch_ids = []
    fraction, gate = ap.view_dependent_fraction, ap.gate_gradients
    materialize, insert = h.materialize, h.insert_batch

    def recorded_materialize(ws):
        batch_ids[:] = [ws.gaussian_ids]
        return materialize(ws)

    def recorded_gate(diffuse, grad_h, g_th):
        opened = gate(diffuse, grad_h, g_th)
        vdep.update(batch_ids[0][opened].tolist())
        return opened

    def recorded_insert(**columns):
        ids = insert(**columns)
        vdep.update(ids[set_bits(columns["sh_residual"])].tolist())
        return ids

    def both(held, population):
        # the train() count, the slots held, and the brute-force count over
        # the live ids that were inserted lit or opened
        brute = len(vdep & set(h.store.ids))
        passes.append((fraction(held, population), fraction(brute, len(h.store))))
        return passes[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ap, "G_TH", 1e-9)        # most gradients pass: many rows take slots
        mp.setattr(ap, "LAMBDA_H", 2.0)     # the gate never freezes
        mp.setattr(ap, "view_dependent_fraction", both)
        mp.setattr(ap, "gate_gradients", recorded_gate)
        mp.setattr(h, "materialize", recorded_materialize)
        mp.setattr(h, "insert_batch", recorded_insert)
        mp.setattr(opt, "GRAD_DENSIFY_THRESHOLD", 1e-12)  # clones and splits copy SH
        mp.setattr(opt, "CLONE_SIZE_FRACTION", 0.05 / opt.camera_extent(scene.cameras))
        opt.train(scene, h, opt.TrainConfig(iterations=20, densify_interval=5, seed=seed))
    assert len(passes) == 4
    assert any(slots > 0 for slots, _ in passes)
    for slots, brute in passes:
        assert slots == brute
    h.audit()


@pytest.mark.parametrize("seed", range(3))
def test_train_opens_a_slot_before_each_write_of_sh(seed):
    # `store.write` writes SH to the slotted rows only, one block row each,
    # so `train()` must give a row a slot before the write that steps its
    # SH: exactly the rows the gate opens in that step
    scene, h = small_scene(seed, 5, 16)
    store = h.store
    gate, write = ap.gate_gradients, store.write
    steps = []          # (slots held before the step, rows the gate opened)
    checked = []

    def recorded_gate(diffuse, grad_h, g_th):
        opened = gate(diffuse, grad_h, g_th)
        steps.append((store.slots_held(), len(opened)))
        return opened

    def checked_write(rows, **values):
        diffuse = store.slot[rows] < 0
        for name, (base, block) in values.items():
            assert len(base) == len(rows) and len(block) == np.count_nonzero(~diffuse), name
        write(rows, **values)
        before, opened = steps[-1]
        assert store.slots_held() == before + opened
        checked.append((np.count_nonzero(~diffuse), opened))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ap, "G_TH", 1e-9)        # most gradients pass: many rows take slots
        mp.setattr(ap, "LAMBDA_H", 2.0)     # the gate never freezes
        mp.setattr(ap, "gate_gradients", recorded_gate)
        mp.setattr(store, "write", checked_write)
        mp.setattr(opt, "GRAD_DENSIFY_THRESHOLD", 1e-12)  # clones and splits copy SH
        mp.setattr(opt, "CLONE_SIZE_FRACTION", 0.05 / opt.camera_extent(scene.cameras))
        opt.train(scene, h, opt.TrainConfig(iterations=20, densify_interval=5, seed=seed))
    assert len(checked) == len(steps) == 20
    assert sum(opened for _, opened in checked) > 0
    assert all(slotted > 0 for slotted, _ in checked[1:])
    h.audit()
