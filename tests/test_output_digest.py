"""`tools/output_digest.py` on a tiny scene: a seeded run digests the same
twice, and another seed gives another training digest."""

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
