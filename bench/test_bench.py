"""Self-tests of the benchmark; no timing assertions.

    PYTHONPATH=src python -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import scene as sc
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
# the density of the real scenes (200 Gaussians per second) at a small size
TINY = {
    "train_short": sc.SceneSpec(duration=2.0, gaussians=400, size=32, frames=4),
    "train_long": sc.SceneSpec(duration=6.0, gaussians=1200, size=32, frames=4),
    "playback_long": sc.SceneSpec(duration=6.0, gaussians=1200, size=32, frames=4),
}


def test_generator_is_deterministic():
    spec = TINY["train_short"]
    pop_a, scene_a = sc.make_scene(spec, seed=7)
    pop_b, scene_b = sc.make_scene(spec, seed=7)
    for key in pop_a:
        assert np.array_equal(pop_a[key], pop_b[key])
    assert np.array_equal(scene_a.targets, scene_b.targets)
    for cam_a, cam_b in zip(scene_a.cameras, scene_b.cameras):
        assert np.array_equal(cam_a.rotation, cam_b.rotation)
        assert np.array_equal(cam_a.translation, cam_b.translation)
    pop_c, scene_c = sc.make_scene(spec, seed=8)
    assert not np.array_equal(pop_a["mu"], pop_c["mu"])
    assert not np.array_equal(scene_a.targets, scene_c.targets)


def test_generator_ranges():
    pop = sc.population(np.random.default_rng(0), 500, 10.0)
    assert np.all(np.abs(pop["mu"][:, :3]) <= 0.5)
    assert np.all((pop["mu"][:, 3] >= 0.0) & (pop["mu"][:, 3] <= 10.0))
    assert np.all((pop["scale"][:, :3] >= 0.03) & (pop["scale"][:, :3] <= 0.12))
    assert np.all((pop["scale"][:, 3] >= 0.05) & (pop["scale"][:, 3] <= 0.3))
    assert not np.any(pop["sh_residual"])


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] > b [1, 5] > c [2, 4];  a > b [6, 7]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("b"):
            pass
    assert tracer.self_times() == {"a": (1, 5.0), "b": (2, 3.0), "c": (1, 2.0)}


def test_wrap_counts_outside_the_span():
    ticks = iter([0.0, 1.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def count(counts, result):
        counts["seen"] += result

    assert tracer.wrap("f", lambda x: 2 * x, count)(3) == 6
    assert tracer.counts["seen"] == 6
    assert tracer.self_times() == {"f": (1, 1.0)}


def test_installed_restores_entry_points():
    def current():
        return [vars(owner)[attr] for owner, attr, _, _ in spans.ENTRY_POINTS]

    before = current()
    with spans.installed(spans.Tracer()):
        during = current()
    assert all(d is not b for d, b in zip(during, before))
    assert current() == before


def test_spans_that_never_fire_read_zero():
    metrics = workloads.layer_metrics(spans.Tracer(), untraced=None, traced_call=None)
    for name in spans.SPAN_NAMES + ("train",):
        assert metrics[f"{name}.calls"] == (0, "count")
    assert all(value == 0 for value, _ in metrics.values())


def _declared(kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_at_tiny_size(name, trace):
    workload = dataclasses.replace(workloads.WORKLOADS[name], scene=TINY[name])
    report = workloads.run(workload, seed=3, seconds=0.0, trace=trace)
    assert report.ledger.failures == []
    assert report.ledger.attempted > 0
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {k: unit for k, (_, unit) in report.metrics.items()} == expected
    assert all(np.isfinite(value) for value, _ in report.metrics.values())


def test_workload_names_match_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train_short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
