import numpy as np
import pytest

from tgh import optimizer as opt
from tgh import sh
from tgh import store as st
from tgh.errors import InvalidParameterError, NotFoundError
from tgh.store import GaussianStore

from conftest import WIDE, columns_of, narrowed, packed, sh_of, wide_read, wide_rows


def arrays(n, value=0.0):
    """The parameter columns of n Gaussians, checked as `insert_arrays` takes them."""
    [columns, _] = st.checked_columns(mu=np.full((n, 4), value), scale=np.ones((n, 4)),
                             rotor_left=np.tile([1.0, 0, 0, 0], (n, 1)),
                             rotor_right=np.tile([1.0, 0, 0, 0], (n, 1)),
                             opacity=np.full(n, 0.5), base_color=np.zeros((n, 3)),
                             sh_residual=np.zeros((n, sh.RESIDUAL_COEFFS)))
    return columns


def insert(store, columns):
    """`insert_arrays` of the columns with the SH mask `checked_columns`
    gives them; returns the new ids."""
    _, ids = store.insert_arrays(*st.checked_columns(**columns))
    return ids


def check_columns(store, ids):
    """Each base column is a view of `store.params` that writes through to
    it, and `gather` reads the per-column values of the ids' rows, SH
    included."""
    rows = store.rows_of(ids)
    batch = store.gather(ids)
    assert np.array_equal(columns_of(batch)["sh_residual"], sh_of(store, rows))
    for name in st.COLUMNS[:-1]:
        column = getattr(store, name)
        assert np.shares_memory(column, store.params), name
        assert np.array_equal(getattr(batch, name), column[rows]), name
        saved = store.params.copy()
        column[rows[-1]] = -2.0
        assert np.all(getattr(store, name)[rows[-1]] == -2.0), name
        assert np.count_nonzero(store.params != saved) == np.size(column[rows[-1]]), name
        store.params[:] = saved


def test_rows_reused_last_freed_first_then_fresh(monkeypatch):
    # training draws split offsets in row order, so the order rows are
    # handed out in is part of the store's contract
    monkeypatch.setattr(st, "INITIAL_CAPACITY", 16)
    store = GaussianStore()
    ids = insert(store, arrays(10))
    with store.attached({"extra": ((2,), np.int64)}), store.attached(opt.TRAINING_ROWS):
        store.extra[:10] = 7
        first = np.arange(10)
        [sh_five] = wide_read(store, first, "params")
        sh_five[:, st.BASE_WIDTH:] = 5.0
        store.take_slots(first)  # as `train()` does for rows whose SH gradient passes
        store.write(first, params=narrowed(store, first, sh_five),
                    params_m=narrowed(store, first, np.full((10, WIDE), 3.0)),
                    params_v=narrowed(store, first, np.full((10, WIDE), 3.0)))
        for taken in ("extra", "mu"):
            with pytest.raises(InvalidParameterError):
                with store.attached({taken: ((), np.float64)}):
                    pass
        store.remove([ids[2], ids[7], ids[4]])
        new = insert(store, arrays(5, value=1.0))
        # a taken row reads zero in every attached array, and only what
        # the insert wrote in its parameters
        taken = [4, 7, 2, 10, 11]
        assert np.all(store.extra[taken] == 0)
        for name in ("params_m", "params_v"):
            assert np.all(wide_read(store, taken, name)[0] == 0), name
        assert np.all(store.extra[[0, 1, 3, 5, 6, 8, 9]] == 7)
        assert np.array_equal(wide_read(store, taken, "params")[0], packed(arrays(5, value=1.0)))
        assert np.all(sh_of(store, taken) == 0)
        check_columns(store, new)
    assert not hasattr(store, "extra")
    assert new.tolist() == [10, 11, 12, 13, 14]
    assert store.rows_of(new).tolist() == [4, 7, 2, 10, 11]
    assert np.all(store.mu[[4, 7, 2, 10, 11]] == 1.0)
    assert len(store) == 12
    assert store.ids == [0, 1, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14]
    assert store.ids_at_rows([4, 7, 2]).tolist() == [10, 11, 12]


def test_rows_grow_past_capacity(monkeypatch):
    monkeypatch.setattr(st, "INITIAL_CAPACITY", 16)
    store = GaussianStore()
    first = insert(store, arrays(10))
    with store.attached({"extra": ((), np.int64)}), store.attached(opt.TRAINING_ROWS):
        store.extra[:10] = np.arange(1, 11)
        store.mu[:10] = np.arange(40).reshape(10, 4)
        ids = np.concatenate([first, insert(store, arrays(30))])
        assert store.capacity >= 40 and store.extra.shape == (store.capacity,)
        assert store.extra.dtype == np.int64
        assert store.extra[:40].tolist() == list(range(1, 11)) + [0] * 30
        for name in ("params", "params_m", "params_v"):
            assert getattr(store, name).shape == (store.capacity, st.BASE_WIDTH), name
            assert store.sh_slots[name].shape == (store.slot_capacity, sh.RESIDUAL_COEFFS), name
        assert np.array_equal(store.mu[:10], np.arange(40).reshape(10, 4))
        check_columns(store, ids)
    assert store.rows_of(ids).tolist() == list(range(40))
    # an insert of more rows than two write blocks: freed rows, then fresh ones
    store.remove(ids[5:8])
    n = 2 * st._PACK_ROWS + 52
    columns = arrays(n)
    columns["mu"] = np.arange(4.0 * n).reshape(n, 4)
    more = insert(store, columns)
    assert store.rows_of(more).tolist() == [7, 6, 5] + list(range(40, 37 + n))
    batch = store.gather(more)
    assert np.array_equal(wide_rows(batch.held, (batch.params, batch.sh)), packed(columns))


def test_rows_of_rejects_unknown_removed_and_negative_ids():
    store = GaussianStore()
    ids = insert(store, arrays(3))
    store.remove([ids[1]])
    for bad in (ids[1], 3, 10 ** 9, -1):
        with pytest.raises(NotFoundError):
            store.rows_of([ids[0], bad])
        assert not store.holds([bad])[0]
    assert store.rows_of([]).tolist() == []
    assert store.rows_of([ids[2]]).tolist() == [2]


def test_remove_is_atomic():
    store = GaussianStore()
    ids = insert(store, arrays(4))
    for bad, error in (([ids[0], ids[2], ids[0]], InvalidParameterError),
                       ([ids[1], 99], NotFoundError)):
        with pytest.raises(error):
            store.remove(bad)
        assert store.ids == ids.tolist() and store.rows_of(ids).tolist() == [0, 1, 2, 3]
    store.remove([ids[2], ids[0]])
    assert insert(store, arrays(3)).tolist() == [4, 5, 6]
    assert store.rows_of([4, 5, 6]).tolist() == [0, 2, 4]


def test_write_checks_each_sh_block_before_writing():
    # a block of other rows than the slots held would broadcast, or land in
    # the wrong slots: the write is refused whole, the valid pairs included
    store = GaussianStore()
    columns = arrays(4)
    columns["sh_residual"][:3] = 1.0
    rows = store.rows_of(insert(store, columns))
    with store.attached(opt.TRAINING_ROWS):
        before = wide_read(store, rows, "params", "params_m")
        for rows_in_block in (1, 4):
            with pytest.raises(InvalidParameterError):
                store.write(rows, params_m=(np.full((4, st.BASE_WIDTH), 7.0), np.ones((3, 45))),
                            params=(np.full((4, st.BASE_WIDTH), 7.0),
                                    np.full((rows_in_block, 45), 7.0)))
            after = wide_read(store, rows, "params", "params_m")
            for old, new in zip(before, after):
                assert np.array_equal(old, new)
        assert store.read(rows)[0].tolist() == [0, 1, 2]
