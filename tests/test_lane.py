"""Guards of the training step's second lane (`tgh.lane`), with no timing.

The worker changes no output bit, every task a call submits is finished when
the call returns or raises, a task's error reaches the caller as itself, the
render path submits nothing, and every entry point that `bench/spans.py`
wraps runs on the main thread.
"""

import multiprocessing
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from tgh import lane, optimizer
from tgh import renderer as rn
from tgh.errors import InvalidParameterError

import test_composite_exact as exact

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import scene as bench_scene  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Inline:
    """A stand-in for the lane's worker that runs each task on the calling
    thread as it is submitted."""

    def submit(self, fn):
        future = Future()
        try:
            future.set_result(fn())
        except BaseException as error:
            future.set_exception(error)
        return future


class Recording:
    """The lane's worker, keeping every future it hands out."""

    def __init__(self, worker):
        self.worker, self.futures = worker, []

    def submit(self, fn):
        self.futures.append(self.worker.submit(fn))
        return self.futures[-1]


@pytest.fixture
def recorded(monkeypatch):
    worker = Recording(lane.WORKER)
    monkeypatch.setattr(lane, "WORKER", worker)
    return worker.futures


def exact_scene(name, patch):
    cam = exact.camera()
    target = np.random.default_rng(3).uniform(size=(cam.height, cam.width, 3))
    return exact.scene(name, patch), target, cam


def short_scene(seed=1):
    spec = workloads.SHORT
    pop, scene = bench_scene.make_scene(spec, seed)
    return spec, pop, scene


def train_short(iterations, seed=1):
    """The bench's short scene trained for `iterations` steps; returns the
    run's metrics and its store's parameters."""
    spec, pop, scene = short_scene(seed)
    h = bench_scene.build_hierarchy(pop, spec.duration)
    cfg = optimizer.TrainConfig(iterations=iterations, densify_interval=10,
                                max_gaussians=int(workloads.MAX_GAUSSIANS_FACTOR * spec.gaussians),
                                seed=seed)
    result = optimizer.train(scene, h, cfg)
    batch = h.store.gather(h.store.ids)
    return result.metrics, batch.ids, batch.params, batch.held, batch.sh


@pytest.mark.parametrize("name", sorted(exact.SCENES))
def test_inline_lane_renders_the_same_bits(name, monkeypatch):
    batch, target, cam = exact_scene(name, monkeypatch)
    threaded = exact.render(batch, target, cam)
    monkeypatch.setattr(lane, "WORKER", Inline())
    exact.assert_identical(exact.render(batch, target, cam), threaded)


def test_same_bits_under_fast_thread_switching(monkeypatch):
    """The two lanes interleaved every few microseconds: a task that read
    or wrote the other lane's data would show as a changed bit."""
    batch, target, cam = exact_scene("deep_overlap", monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(lane, "WORKER", Inline())
        inline = exact.render(batch, target, cam)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            exact.assert_identical(exact.render(batch, target, cam), inline)
    finally:
        sys.setswitchinterval(interval)


def test_inline_lane_trains_the_same_bits(monkeypatch):
    threaded = train_short(20)
    monkeypatch.setattr(lane, "WORKER", Inline())
    inline = train_short(20)
    assert inline[0] == threaded[0]
    for a, b in zip(inline[1:], threaded[1:]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(exact.SCENES))
def test_every_task_is_done_when_the_call_returns(name, monkeypatch, recorded):
    batch, target, cam = exact_scene(name, monkeypatch)
    exact.render(batch, target, cam)
    # blend factors, one SSIM channel and the back half of the span sums;
    # a frame that keeps no splat has no span sums
    assert len(recorded) == (2 if name == "culled" else 3)
    assert all(future.done() for future in recorded)


def test_a_task_error_reaches_the_caller_and_the_lane_recovers(monkeypatch, recorded):
    batch, target, cam = exact_scene("deep_overlap", monkeypatch)
    expected = exact.render(batch, target, cam)
    recorded.clear()

    def failing(*args):
        raise InvalidParameterError("factor kernel failed")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rn, "_composite_backward", failing)
        with pytest.raises(InvalidParameterError, match="factor kernel failed"):
            exact.render(batch, target, cam)
    assert recorded and all(future.done() for future in recorded)
    exact.assert_identical(exact.render(batch, target, cam), expected)


def test_a_main_thread_error_waits_for_the_task(monkeypatch, recorded):
    """The loss raises while the factor task still runs: the call raises
    the loss's error only once the task has finished."""
    batch, target, cam = exact_scene("deep_overlap", monkeypatch)
    kernel = rn._composite_backward

    def slow(*args):
        time.sleep(0.05)
        return kernel(*args)

    def failing(*args):
        raise InvalidParameterError("loss failed")

    monkeypatch.setattr(rn, "_composite_backward", slow)
    monkeypatch.setattr(rn, "image_loss", failing)
    with pytest.raises(InvalidParameterError, match="loss failed"):
        exact.render(batch, target, cam)
    assert len(recorded) == 1 and recorded[0].done()


def test_render_and_render_batch_submit_nothing(recorded):
    spec, pop, _ = short_scene()
    h = bench_scene.build_hierarchy(pop, spec.duration)
    t, cam = next(bench_scene.playback_path(spec, 1))
    rn.render(h, t, cam)
    rn.render_batch(h.materialize(h.query(t)), t, cam)
    assert recorded == []


def test_entry_points_run_on_the_main_thread(monkeypatch, recorded):
    threads = {}
    for owner, attr, name, _ in spans.ENTRY_POINTS:
        def on_thread(*args, _fn=vars(owner)[attr], _name=name, **kwargs):
            threads.setdefault(_name, set()).add(threading.current_thread())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, on_thread)
    train_short(12)
    assert recorded, "the lane ran no task"
    assert {"renderer.render_with_gradients", "losses.loss",
            "optimizer.adaptive_control"} <= set(threads)
    assert all(seen == {threading.main_thread()} for seen in threads.values()), threads


def test_the_lane_is_one_worker_thread(monkeypatch):
    batch, target, cam = exact_scene("deep_overlap", monkeypatch)
    exact.render(batch, target, cam)
    workers = [t for t in threading.enumerate() if t.name.startswith("tgh-lane")]
    assert len(workers) == 1


def test_a_forked_child_gets_its_own_worker(monkeypatch):
    """A fork copies the process without the worker thread. The child's
    step must still run; the join bounds a hang, it times nothing."""
    batch, target, cam = exact_scene("deep_overlap", monkeypatch)
    exact.render(batch, target, cam)
    child = multiprocessing.get_context("fork").Process(target=exact.render,
                                                        args=(batch, target, cam))
    child.start()
    child.join(timeout=120)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
