import math

import numpy as np
import pytest

from tgh import appearance as ap


def frozen_gate():
    gate = ap.AppearanceGate()
    gate.g_th = math.inf
    return gate


def test_small_gradient_on_diffuse_is_zeroed(monkeypatch):
    monkeypatch.setattr(ap, "G_TH", 1e-6)
    gate = ap.AppearanceGate()
    h = np.zeros(45)
    g = np.full(45, 1e-7 / math.sqrt(45))
    assert np.linalg.norm(g) < 1e-6
    assert np.all(ap.gate_gradients(h, g, gate) == 0.0)


def test_large_gradient_on_diffuse_passes(monkeypatch):
    monkeypatch.setattr(ap, "G_TH", 1e-6)
    gate = ap.AppearanceGate()
    h = np.zeros(45)
    g = np.full(45, 1e-5)
    assert np.array_equal(ap.gate_gradients(h, g, gate), g)


def test_view_dependent_always_passes_even_frozen():
    gate = frozen_gate()
    assert gate.frozen
    h = np.zeros(45)
    h[3] = 0.2
    g = np.full(45, 1e-12)
    assert np.array_equal(ap.gate_gradients(h, g, gate), g)


def test_frozen_gate_blocks_all_diffuse():
    gate = frozen_gate()
    assert gate.frozen
    h = np.zeros(45)
    g = np.full(45, 100.0)
    assert np.all(ap.gate_gradients(h, g, gate) == 0.0)


def test_batch_gate_mixed_rows(rng, monkeypatch):
    monkeypatch.setattr(ap, "G_TH", 1e-3)
    gate = ap.AppearanceGate()
    h = np.zeros((4, 45))
    h[1, 0] = 0.5                       # view-dependent
    g = np.zeros((4, 45))
    g[0] = 1e-6                         # diffuse, tiny -> zeroed
    g[1] = 1e-6                         # vdep -> passes
    g[2] = 1.0                          # diffuse, large -> passes
    out = ap.gate_gradients(h, g, gate)
    assert np.all(out[0] == 0.0)
    assert np.array_equal(out[1], g[1])
    assert np.array_equal(out[2], g[2])
    assert np.all(out[3] == 0.0)


class TestRatioCutoff:
    @pytest.fixture(autouse=True)
    def settings(self, monkeypatch):
        monkeypatch.setattr(ap, "G_TH", 1e-6)
        monkeypatch.setattr(ap, "LAMBDA_H", 0.15)

    def test_below_threshold_unchanged(self):
        gate = ap.AppearanceGate()
        ap.update_ratio_cutoff(gate, 0.14)
        assert not gate.frozen and gate.g_th == 1e-6

    def test_at_threshold_freezes(self):
        gate = ap.AppearanceGate()
        ap.update_ratio_cutoff(gate, 0.15)
        assert gate.frozen and gate.g_th == math.inf

    def test_freeze_is_permanent(self):
        gate = ap.AppearanceGate()
        ap.update_ratio_cutoff(gate, 0.2)
        ap.update_ratio_cutoff(gate, 0.0)
        assert gate.frozen and gate.g_th == math.inf


def test_view_dependent_fraction(rng):
    h = np.zeros((10, 45))
    vdep_rows = [1, 4, 7]
    for r in vdep_rows:
        h[r, rng.integers(45)] = rng.normal()
    assert ap.view_dependent_fraction(h) == pytest.approx(0.3)
    assert ap.view_dependent_fraction(np.zeros((5, 45))) == 0.0


def test_monotone_fraction_under_gating(rng, monkeypatch):
    # simulated gated optimization: fraction never decreases before freezing
    monkeypatch.setattr(ap, "G_TH", 0.5)
    monkeypatch.setattr(ap, "LAMBDA_H", 0.9)
    gate = ap.AppearanceGate()
    h = np.zeros((50, 45))
    prev = 0.0
    for _ in range(100):
        g = rng.normal(scale=0.2, size=(50, 45))
        h -= 0.1 * ap.gate_gradients(h, g, gate)
        frac = ap.view_dependent_fraction(h)
        assert frac >= prev
        prev = frac


def test_frozen_is_read_from_the_threshold():
    # a gate is frozen exactly when its threshold is infinite, so it cannot
    # report itself frozen while it still lets a diffuse gradient through
    with pytest.raises(TypeError):
        ap.AppearanceGate(frozen=True)
    gate = ap.AppearanceGate()
    with pytest.raises(AttributeError):
        gate.frozen = True
    assert not gate.frozen
    ap.update_ratio_cutoff(gate, ap.LAMBDA_H)
    assert gate.frozen
    assert np.all(ap.gate_gradients(np.zeros(45), np.ones(45), gate) == 0.0)
