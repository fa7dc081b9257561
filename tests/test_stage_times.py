"""The stage lists and span arithmetic of `tools/stage_times.py`; no scene is
timed."""

import importlib.util
import threading
import types
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
_SPEC = importlib.util.spec_from_file_location("stage_times", _PATH)
stage_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stage_times)


def test_every_stage_is_defined_in_this_checkout():
    # an undefined stage prints "-": here that is a renamed or deleted stage
    missing = [stage_times.stage_name(owner, attr)
               for owner, attr in stage_times.STAGES + stage_times.SETUP_STAGES
               if attr not in vars(owner)]
    assert missing == []


def test_stage_times_and_rests_from_spans():
    fake = types.ModuleType("fake")
    fake.outer = fake.inner = fake.idle = None
    tracer = stage_times.spans.Tracer()
    tracer.spans = [["fake.outer", -1, 0.0, 5.0],    # [name, parent, start, end]
                    ["fake.inner", 0, 1.0, 2.0],
                    ["fake.outer", 1, 1.25, 1.5],
                    ["fake.inner", -1, 6.0, 8.0]]
    stages = [(fake, "outer"), (fake, "inner"), (fake, "idle"), (fake, "gone")]
    # inclusive ms per unit; 0 for a stage never called, none for one not defined
    assert stage_times.stage_ms(stages, 10.0, tracer, 2) == {
        "fake.outer": 2625.0, "fake.inner": 1500.0, "fake.idle": 0.0, "total": 5000.0}
    assert stage_times.children_seconds(tracer) == 7.0
    assert stage_times.children_seconds(tracer, "fake.outer") == 1.0
    assert stage_times.children_seconds(tracer, "fake.inner") == 0.25


def test_each_thread_records_into_its_own_tracer():
    """A stage called on the main thread is a span of the main Tracer and
    one called on another thread, as the lane's tasks are, a span of the lane
    Tracer: a Tracer keeps one stack of open spans."""
    main, worker = stage_times.spans.Tracer(), stage_times.spans.Tracer()
    calls = []
    traced = stage_times.by_thread(main, worker, "fake.task", calls.append)
    traced(1)
    thread = threading.Thread(target=traced, args=(2,))
    thread.start()
    thread.join()
    traced(3)
    assert calls == [1, 2, 3]
    assert [span[:2] for span in main.spans] == [["fake.task", -1]] * 2
    assert [span[:2] for span in worker.spans] == [["fake.task", -1]]
