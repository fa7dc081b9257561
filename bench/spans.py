"""Spans around calls into tgh's public functions, installed from outside.

The program is not edited: `installed(tracer)` swaps each public entry point
for a wrapper that records a span, and puts the originals back on exit. Spans
nest on one thread, so a span's self time is its duration minus the summed
durations of its direct children.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from tgh import appearance, hierarchy, optimizer, renderer, store


class Tracer:
    """In-memory spans plus counts taken at the same call boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []            # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, self.clock(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = self.clock()

    def wrap(self, name, fn, count=None):
        """`fn` timed as span `name`; `count(counts, result)` runs outside the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def self_times(self):
        """{name: (calls, self seconds summed over calls)}."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, _, start, end), child in zip(self.spans, covered):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child)
        return out


def _count_working_set(counts, ws):
    counts["hierarchy.working_set"] += len(ws.gaussian_ids)


def _count_replaced(counts, pairs):
    counts["hierarchy.replaced"] += sum(old != new for old, new in pairs)
    counts["hierarchy.replaced_ids"] += len(pairs)


def _count_frame(counts, fb):
    counts["renderer.frames"] += 1
    counts["renderer.covered_px"] += int(np.count_nonzero(fb.transmittance < 1.0))


def _count_render_grad(counts, result):
    _, fb, grads = result
    _count_frame(counts, fb)
    counts["renderer.kept_splats"] += int(np.count_nonzero(grads.touched))


def _count_control(counts, report):
    counts["optimizer.densify_new"] += len(report.new_ids)
    counts["optimizer.densify_removed"] += len(report.removed_ids)


# (owner, attribute, span name, count). `renderer.image_loss` is `losses.loss`
# under the name the renderer calls it by.
ENTRY_POINTS = (
    (hierarchy.TemporalHierarchy, "insert_batch", "hierarchy.insert_batch", None),
    (hierarchy.TemporalHierarchy, "query", "hierarchy.query", _count_working_set),
    (hierarchy.TemporalHierarchy, "materialize", "hierarchy.materialize", None),
    (hierarchy.TemporalHierarchy, "update_levels", "hierarchy.update_levels", _count_replaced),
    (store.GaussianStore, "gather", "store.gather", None),
    (renderer, "render_with_gradients", "renderer.render_with_gradients", _count_render_grad),
    (renderer, "render_batch", "renderer.render_batch", _count_frame),
    (renderer, "render", "renderer.render", None),
    (renderer, "image_loss", "losses.loss", None),
    (optimizer, "adam_step", "optimizer.adam_step", None),
    (optimizer, "adaptive_control", "optimizer.adaptive_control", _count_control),
    (appearance, "gate_gradients", "appearance.gate_gradients", None),
    (appearance, "view_dependent_fraction", "appearance.view_dependent_fraction", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in ENTRY_POINTS)


@contextmanager
def installed(tracer):
    """Route every entry point through `tracer` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in ENTRY_POINTS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
