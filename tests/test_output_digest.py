"""`tools/output_digest.py` on a tiny scene: a seeded run digests the same
twice, another seed gives another training digest, and its settings make
density control both clone and split."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_SPEC = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)

TINY = output_digest.sc.SceneSpec(duration=10.0, gaussians=50, size=32)


def test_digest_is_deterministic_and_seeded():
    first = output_digest.digest(TINY, 0)
    assert output_digest.digest(TINY, 0) == first
    population, trained, playback = first
    assert population > 0 and len(trained) == len(playback) == 64
    assert output_digest.digest(TINY, 1)[1] != trained


def test_digest_settings_clone_and_split(monkeypatch):
    # the size cut is a fraction of the cameras' extent: a fraction not
    # rescaled with the extent puts every hot Gaussian on one side of it
    optimizer, reports = output_digest.optimizer, []
    control = optimizer.adaptive_control

    def recorded_control(*args, **kwargs):
        reports.append(control(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(optimizer, "adaptive_control", recorded_control)
    output_digest.digest(TINY, 0)
    assert sum(r.cloned for r in reports) > 0
    assert sum(r.split for r in reports) > 0
