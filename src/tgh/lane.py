"""The second lane of a training step: one worker thread beside the caller's.

`render_with_gradients` hands three independent pieces of its step to the
worker, each while the calling thread runs the piece that does not need it
(`beside`). The renderer module docstring says which pieces; `losses` says
how the SSIM channels split. Three rules keep this safe:

- every task a call submits is awaited before the call returns or raises;
- a task never submits to the lane and never waits on it: with one worker,
  a task waiting on a task queued behind it would never wake;
- a task never calls a public entry point: `bench/spans.py` wraps those and
  keeps one span stack for all threads.

A task writes only its own outputs, and the calling thread combines them in
the order a single thread would, so results do not depend on which lane ran
first. A forked child starts with a new, unstarted worker: the parent's
worker thread does not exist in it.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait


def _new_worker():
    global WORKER
    WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="tgh-lane")


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


def beside(task, work):
    """(task(), work()), `task` run on the worker while `work` runs on the
    calling thread. The task is awaited before this returns or raises; if
    both raise, the error of `work` is raised."""
    future = WORKER.submit(task)
    try:
        done = work()
    except BaseException:
        wait((future,))
        raise
    return join(future), done


def join(future):
    """The result of a lane task: the calling thread waits for the worker to
    finish it and raises what it raised."""
    return future.result()
