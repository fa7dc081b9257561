import math

import numpy as np
import pytest

from tgh import appearance as ap
from tgh import optimizer as opt
from tgh.store import GaussianStore, checked_columns

from conftest import random_params
from test_train_properties import small_scene


def frozen_threshold():
    """The threshold of a gate frozen by the cutoff."""
    return ap.update_ratio_cutoff(ap.G_TH, ap.LAMBDA_H)


DIFFUSE, VIEW_DEPENDENT = np.array([True]), np.array([False])


def test_small_gradient_on_diffuse_is_zeroed(monkeypatch):
    # the row stays closed, so train() never reads its gradient; g is only read
    monkeypatch.setattr(ap, "G_TH", 1e-6)
    g = np.full((1, 45), 1e-7 / math.sqrt(45))
    assert np.linalg.norm(g) < 1e-6
    expected = g.copy()
    assert ap.gate_gradients(DIFFUSE, g, ap.G_TH).tolist() == []
    assert np.array_equal(g.view(np.int64), expected.view(np.int64))


def test_large_gradient_on_diffuse_passes(monkeypatch):
    monkeypatch.setattr(ap, "G_TH", 1e-6)
    g = np.full((1, 45), 1e-5)
    assert ap.gate_gradients(DIFFUSE, g, ap.G_TH).tolist() == [0]
    assert np.all(g == 1e-5)


def test_view_dependent_always_passes_even_frozen():
    g_th = frozen_threshold()
    assert g_th == math.inf
    g = np.full((1, 45), 1e-12)
    assert ap.gate_gradients(VIEW_DEPENDENT, g, g_th).tolist() == []
    assert np.all(g == 1e-12)


def test_frozen_gate_blocks_all_diffuse():
    g_th = frozen_threshold()
    assert g_th == math.inf
    g = np.full((1, 45), 100.0)
    expected = g.copy()
    assert ap.gate_gradients(DIFFUSE, g, g_th).tolist() == []
    assert np.array_equal(g.view(np.int64), expected.view(np.int64))


def test_batch_gate_mixed_rows(rng, monkeypatch):
    monkeypatch.setattr(ap, "G_TH", 1e-3)
    diffuse = np.array([True, False, True, True])   # row 1 view-dependent
    # one SH gradient row per kept splat, as `train()` passes `grads.sh`
    g = np.zeros((4, 45))
    g[0] = 1e-6                         # diffuse, tiny -> stays closed
    g[1] = 1e-6                         # vdep -> passes
    g[2] = 1.0                          # diffuse, large -> opened
    expected = g.copy()
    assert ap.gate_gradients(diffuse, g, ap.G_TH).tolist() == [2]
    assert np.array_equal(g.view(np.int64), expected.view(np.int64))


class TestRatioCutoff:
    @pytest.fixture(autouse=True)
    def settings(self, monkeypatch):
        monkeypatch.setattr(ap, "G_TH", 1e-6)
        monkeypatch.setattr(ap, "LAMBDA_H", 0.15)

    def test_below_threshold_unchanged(self):
        g_th = ap.update_ratio_cutoff(ap.G_TH, 0.14)
        assert g_th == 1e-6

    def test_at_threshold_freezes(self):
        g_th = ap.update_ratio_cutoff(ap.G_TH, 0.15)
        assert g_th == math.inf

    def test_freeze_is_permanent(self):
        g_th = ap.update_ratio_cutoff(ap.G_TH, 0.2)
        g_th = ap.update_ratio_cutoff(g_th, 0.0)
        assert g_th == math.inf


def test_view_dependent_fraction(rng):
    columns = random_params(rng, 10)
    columns["sh_residual"][:] = 0.0
    vdep_rows = [1, 4, 7]
    for r in vdep_rows:
        columns["sh_residual"][r, rng.integers(45)] = rng.normal()
    store = GaussianStore()
    store.insert_arrays(*checked_columns(**columns))
    assert ap.view_dependent_fraction(store.slots_held(), len(store)) == pytest.approx(0.3)
    assert ap.view_dependent_fraction(0, 5) == 0.0
    assert ap.view_dependent_fraction(0, 0) == 0.0


def test_monotone_fraction_under_gating(rng, monkeypatch):
    # simulated gated optimization: fraction never decreases before freezing
    monkeypatch.setattr(ap, "G_TH", 0.5)
    monkeypatch.setattr(ap, "LAMBDA_H", 0.9)
    h = np.zeros((50, 45))
    opened = np.zeros(50, dtype=bool)   # rows holding a slot
    prev = 0.0
    for _ in range(100):
        g = rng.normal(scale=0.2, size=(50, 45))
        opened[ap.gate_gradients(~opened, g, ap.G_TH)] = True
        h[opened] -= 0.1 * g[opened]    # as train(), which steps slotted rows only
        assert not h[~opened].any()     # a diffuse row's SH never moves
        frac = ap.view_dependent_fraction(np.count_nonzero(opened), len(h))
        assert frac >= prev
        prev = frac


def test_train_freezes_the_gate_at_the_first_pass_over_the_cutoff(monkeypatch):
    # on this run the view-dependent fraction is 0.667 at the first two
    # control passes and 0.708 at the third
    monkeypatch.setattr(ap, "G_TH", 2e-3)
    monkeypatch.setattr(ap, "LAMBDA_H", 0.7)
    events = []                 # ("step", threshold) and ("pass", fraction), in call order
    gate, fraction = ap.gate_gradients, ap.view_dependent_fraction

    def recorded_gate(diffuse, grad_h, g_th):
        events.append(("step", g_th))
        return gate(diffuse, grad_h, g_th)

    def recorded_fraction(held, population):
        events.append(("pass", fraction(held, population)))
        return events[-1][1]

    monkeypatch.setattr(ap, "gate_gradients", recorded_gate)
    monkeypatch.setattr(ap, "view_dependent_fraction", recorded_fraction)
    scene, h = small_scene(0, 6, 16)
    opt.train(scene, h, opt.TrainConfig(iterations=60, densify_interval=10))
    passes = [i for i, (kind, _) in enumerate(events) if kind == "pass"]
    fractions = [events[i][1] for i in passes]
    # the gate stays open for two passes, then no fraction is computed again
    assert len(fractions) == 3
    assert max(fractions[:-1]) < ap.LAMBDA_H <= fractions[-1]
    before = [v for kind, v in events[:passes[-1]] if kind == "step"]
    after = [v for kind, v in events[passes[-1]:] if kind == "step"]
    assert len(before) == len(after) == 30
    assert all(v == 2e-3 for v in before)
    assert all(v == math.inf for v in after)
