"""The protocol of `tools/quality.py` on a stand-in scene: training sees only
the even frames, the held-out set only odd ones, and the novel camera the
training timestamps; no scene is trained."""

import importlib.util
from pathlib import Path

import numpy as np

from tgh.hierarchy import build

_PATH = Path(__file__).resolve().parent.parent / "tools" / "quality.py"
_SPEC = importlib.util.spec_from_file_location("quality", _PATH)
quality = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality)


class MarkedScene:
    """Four cameras and 64 frames whose target (cam, frame) is filled with
    100 cam + frame."""

    def __init__(self, size=8):
        self.cameras = [quality.sc.ring_camera(np.pi / 2 * k, size) for k in range(4)]
        self.frames = quality.FRAMES
        self.frame_rate = 6.4
        self.size = size

    def target(self, cam_index, frame):
        return np.full((self.size, self.size, 3), 100.0 * cam_index + frame)


def marks(views):
    return [int(target[0, 0, 0]) for _, _, target in views]


def test_even_frames_are_the_training_scene():
    scene = MarkedScene()
    even = quality.EvenFrames(scene)
    assert even.frames == 32 and even.frame_rate == 3.2 and even.cameras is scene.cameras
    for frame in (0, 5, 31):
        assert even.target(2, frame)[0, 0, 0] == 200 + 2 * frame
        assert frame / even.frame_rate == 2 * frame / scene.frame_rate


def test_held_out_frames_are_never_trained_on():
    scene = MarkedScene()
    novel = quality.sc.ring_camera(quality.NOVEL_ANGLE, scene.size)
    sets = quality.views(scene, build(10.0), novel)
    assert [len(sets[name]) for name in quality.PSNR_COLUMNS] == [quality.SCORED] * 3
    train, held = marks(sets["train"]), marks(sets["held-out t"])
    assert all(m % 100 % 2 == 0 for m in train) and all(m % 100 % 2 == 1 for m in held)
    assert [m // 100 for m in train] == [m // 100 for m in held] == [k % 4 for k in range(8)]
    trained_times = {f / quality.EvenFrames(scene).frame_rate for f in range(32)}
    assert not trained_times & {t for t, _, _ in sets["held-out t"]}
    assert [t for t, _, _ in sets["novel cam"]] == [t for t, _, _ in sets["train"]]
    assert all(cam is novel for _, cam, _ in sets["novel cam"])
