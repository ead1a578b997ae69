"""Sweep execution: every point through one helper, in-process or in a
worker pool.

:func:`run_sweep` takes a :class:`~repro.farm.sweep.SweepSpec` (or a
plain list of :class:`~repro.farm.sweep.RunConfig`) and executes every
point once with :func:`_execute`, which returns ``(status, value or
traceback, elapsed)``. Where that helper runs:

* **in-process** when the sweep has one worker and no timeout (one
  point, a one-CPU host, or ``processes=1``): no pickling
  requirements, no process start-up. Also the fallback on a host
  without working process support, unless a timeout is set.
* **worker pool** otherwise: worker processes fed from per-worker task
  queues. The parent enforces the per-run wall-clock timeout (the
  worker is killed and replaced), so a timeout always gets a pool, if
  only of one worker; it reports a worker that dies as ``crashed``.

Worker targets are referenced by dotted path (``"module:callable"``),
so workers import them fresh; parameters and results cross process
boundaries and must be picklable.

Every point runs once. The targets are deterministic simulations, so a
second try of a failed, crashed or timed-out point would repeat the
same outcome.
"""

import collections
import multiprocessing
import os
import pickle
import queue as queue_mod
import time
import traceback

from repro.farm.results import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunResult,
    SweepResult,
)
from repro.farm.sweep import SweepSpec, resolve_target

#: how often the parent checks worker health / run deadlines (seconds)
_POLL_INTERVAL = 0.05


def default_processes(n_runs):
    """Pool size for this host: one worker per CPU, capped by the
    number of runs."""
    return max(1, min(n_runs, os.cpu_count() or 1))


def run_sweep(spec, *, processes=None, timeout=None, progress=None):
    """Execute every point of a sweep once; returns a :class:`SweepResult`.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` or an iterable of :class:`RunConfig`.
    processes:
        Number of workers, >= 1; defaults to ``min(n_runs, cpu_count)``.
        One worker without a timeout runs the points in-process.
    timeout:
        Per-run wall-clock limit in seconds: ``None`` for no limit, else
        a number > 0. A timeout always runs the points in worker
        processes; on a host that cannot start them, the ``OSError``
        propagates instead of the limit being dropped.
    progress:
        Optional callable invoked with each resolved :class:`RunResult`.
    """
    if not (timeout is None or timeout > 0):
        raise ValueError(f"timeout must be None or > 0 seconds: {timeout!r}")
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be None or >= 1: {processes!r}")
    if isinstance(spec, SweepSpec):
        configs = spec.expand()
        varying = spec.varying
    else:
        configs = list(spec)
        varying = None
    started = time.perf_counter()
    n_workers = (
        processes if processes is not None
        else default_processes(len(configs))
    )
    if n_workers == 1 and timeout is None:
        results = _run_in_process(configs, progress)
    else:
        try:
            results = _run_pool(configs, n_workers, timeout, progress)
        except OSError:
            # no usable process/semaphore support on this host
            if timeout is not None:
                raise
            results = _run_in_process(configs, progress)
    return SweepResult(
        results, varying=varying,
        wall_seconds=time.perf_counter() - started,
    )


def _execute(target, params):
    """Run one point: ``(status, value or traceback, elapsed seconds)``."""
    started = time.perf_counter()
    try:
        value = resolve_target(target)(**params)
    except Exception:
        return (STATUS_ERROR, traceback.format_exc(limit=8),
                time.perf_counter() - started)
    return STATUS_OK, value, time.perf_counter() - started


def _run_result(config, status, payload, elapsed):
    if status == STATUS_OK:
        return RunResult(config, status, value=payload, elapsed=elapsed)
    return RunResult(config, status, error=payload, elapsed=elapsed)


def _run_in_process(configs, progress):
    results = []
    for config in configs:
        run = _run_result(config, *_execute(config.target, config.kwargs))
        results.append(run)
        if progress is not None:
            progress(run)
    return results


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------

def _worker_main(task_queue, result_queue):
    """Worker loop: pull (index, target, params) from this worker's own
    queue, push (index, pid, status, payload, elapsed) on the shared
    result queue."""
    pid = os.getpid()
    for index, target, params in iter(task_queue.get, None):
        status, payload, elapsed = _execute(target, params)
        if status == STATUS_OK:
            try:
                # pre-flight pickle check: Queue serializes in a feeder
                # thread, where a pickling error would be lost
                pickle.dumps(payload)
            except Exception:
                status, payload = STATUS_ERROR, traceback.format_exc(limit=8)
        result_queue.put((index, pid, status, payload, elapsed))


class _Worker:
    """Parent-side handle: process, private task queue, assigned run.

    Assignment is tracked here (not via a worker "started" message) so a
    worker that dies at *any* point — even before it could report
    anything — never loses the run it was given."""

    __slots__ = ("proc", "queue", "index", "started")

    def __init__(self, ctx, result_queue):
        self.queue = ctx.Queue()
        self.index = None
        self.started = None
        self.proc = ctx.Process(
            target=_worker_main, args=(self.queue, result_queue),
            daemon=True,
        )
        self.proc.start()


def _run_pool(configs, n_workers, timeout, progress):
    ctx = multiprocessing.get_context()
    result_queue = ctx.Queue()

    results = {}
    todo = collections.deque(range(len(configs)))
    workers = {}  # pid -> _Worker

    def spawn_worker():
        worker = _Worker(ctx, result_queue)
        workers[worker.proc.pid] = worker
        return worker

    def assign(worker):
        if not todo:
            return
        index = todo.popleft()
        config = configs[index]
        worker.index = index
        worker.started = time.monotonic()
        worker.queue.put((index, config.target, config.kwargs))

    def resolve(index, status, payload, elapsed):
        # a killed worker's report can still arrive after its timeout
        if index in results:
            return
        run = _run_result(configs[index], status, payload, elapsed)
        results[index] = run
        if progress is not None:
            progress(run)

    for _ in range(min(n_workers, len(configs))):
        assign(spawn_worker())

    try:
        while len(results) < len(configs):
            try:
                msg = result_queue.get(timeout=_POLL_INTERVAL)
            except queue_mod.Empty:
                msg = None
            if msg is not None:
                index, pid, status, payload, elapsed = msg
                worker = workers.get(pid)
                if worker is not None and worker.index == index:
                    worker.index = None
                    worker.started = None
                resolve(index, status, payload, elapsed)
                if worker is not None and worker.proc.is_alive():
                    assign(worker)
                continue

            now = time.monotonic()
            for pid, worker in list(workers.items()):
                busy = worker.index is not None
                elapsed = now - worker.started if busy else None
                if busy and timeout is not None and elapsed > timeout:
                    # hung run: kill the worker and replace it
                    del workers[pid]
                    _kill(worker.proc)
                    resolve(
                        worker.index, STATUS_TIMEOUT,
                        f"run exceeded {timeout}s wall-clock limit", elapsed,
                    )
                elif not worker.proc.is_alive():
                    # worker died (segfault, os._exit in the target, OOM
                    # kill) — possibly before reporting anything
                    del workers[pid]
                    if busy:
                        resolve(
                            worker.index, STATUS_CRASHED,
                            f"worker exited with code {worker.proc.exitcode}",
                            elapsed,
                        )
                else:
                    continue
                if todo:
                    assign(spawn_worker())
    finally:
        for worker in workers.values():
            worker.queue.put(None)
        deadline = time.monotonic() + 2.0
        for worker in workers.values():
            worker.proc.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if worker.proc.is_alive():
                _kill(worker.proc)
        for worker in workers.values():
            worker.queue.cancel_join_thread()
        result_queue.cancel_join_thread()

    return [results[i] for i in range(len(configs))]


def _kill(proc):
    try:
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)
    except (OSError, AttributeError):
        pass
