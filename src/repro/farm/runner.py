"""Sweep execution: process-pool fan-out with a serial fallback.

:func:`run_sweep` takes a :class:`~repro.farm.sweep.SweepSpec` (or a
plain list of :class:`~repro.farm.sweep.RunConfig`) and executes every
point, reusing cached results when a :class:`~repro.farm.cache.
ResultCache` is supplied. Execution strategies:

* **parallel** (default when the host has more than one CPU and
  ``multiprocessing`` works): a farm of worker processes fed from a
  shared task queue. The parent enforces a per-run wall-clock timeout
  (the worker is killed and replaced) and reports a crashed worker's
  run as ``crashed``.
* **serial** (fallback, or ``parallel=False``): in-process execution —
  no pickling requirements, works on single-core CI runners and hosts
  without working process support. Per-run timeouts are not enforced
  in serial mode (there is no one to interrupt the run).

Worker targets are referenced by dotted path (``"module:callable"``),
so workers import them fresh; parameters and results cross process
boundaries and must be picklable (and JSON-serializable to be cached).

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


def execute_config(config):
    """Run one config in the calling process and return its result."""
    fn = resolve_target(config.target)
    return fn(**config.kwargs)


def run_sweep(spec, *, parallel=True, processes=None, timeout=None,
              cache=None, refresh=False, progress=None):
    """Execute every point of a sweep once; returns a :class:`SweepResult`.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` or an iterable of :class:`RunConfig`.
    parallel:
        Allow process fan-out. Serial in-process execution is used when
        False, when the effective pool size is 1, or when process
        support is unavailable.
    processes:
        Pool size; defaults to ``min(n_runs, cpu_count)``.
    timeout:
        Per-run wall-clock limit in seconds (parallel mode only):
        ``None`` for no limit, else a number > 0.
    cache:
        Optional :class:`ResultCache`; hits skip execution, successful
        fresh runs are stored back.
    refresh:
        Ignore cache hits (still store fresh results).
    progress:
        Optional callable invoked with each resolved :class:`RunResult`.
    """
    if not (timeout is None or timeout > 0):
        raise ValueError(f"timeout must be None or > 0 seconds: {timeout!r}")
    if isinstance(spec, SweepSpec):
        configs = spec.expand()
        varying = spec.varying
    else:
        configs = list(spec)
        varying = None
    started = time.perf_counter()
    results = {}
    pending_indices = []
    for index, config in enumerate(configs):
        record = None
        if cache is not None and not refresh:
            record = cache.get(config)
        if record is not None:
            results[index] = RunResult(
                config, STATUS_OK, value=record["result"],
                elapsed=record.get("elapsed", 0.0), from_cache=True,
            )
            if progress is not None:
                progress(results[index])
        else:
            pending_indices.append(index)

    pending = [configs[i] for i in pending_indices]
    if pending:
        n_workers = (
            processes if processes is not None
            else default_processes(len(pending))
        )
        ran = None
        if parallel and n_workers > 1:
            try:
                ran = _run_parallel(pending, n_workers, timeout, progress)
            except OSError:
                # no usable process/semaphore support on this host
                ran = None
        if ran is None:
            ran = _run_serial(pending, progress)
        for local_index, run in ran.items():
            results[pending_indices[local_index]] = run
        if cache is not None:
            for run in ran.values():
                if run.ok:
                    cache.put(run.config, run.value, run.elapsed)

    ordered = [results[i] for i in range(len(configs))]
    return SweepResult(
        ordered, varying=varying,
        wall_seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# serial fallback
# ----------------------------------------------------------------------

def _run_serial(pending, progress):
    results = {}
    for index, config in enumerate(pending):
        run_started = time.perf_counter()
        try:
            value = execute_config(config)
        except Exception:
            elapsed = time.perf_counter() - run_started
            run = RunResult(
                config, STATUS_ERROR, error=traceback.format_exc(limit=8),
                elapsed=elapsed,
            )
        else:
            run = RunResult(
                config, STATUS_OK, value=value,
                elapsed=time.perf_counter() - run_started,
            )
        results[index] = run
        if progress is not None:
            progress(run)
    return results


# ----------------------------------------------------------------------
# process farm
# ----------------------------------------------------------------------

def _worker_main(task_queue, result_queue):
    """Worker loop: pull (index, target, params) from this worker's own
    queue, push ("done", ...) on the shared result queue."""
    pid = os.getpid()
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, target, params = item
        run_started = time.perf_counter()
        try:
            fn = resolve_target(target)
            value = fn(**params)
            elapsed = time.perf_counter() - run_started
            # pre-flight pickle check: Queue serializes in a feeder
            # thread, where a pickling error would be lost
            pickle.dumps(value)
        except BaseException:
            result_queue.put((
                index, pid, STATUS_ERROR,
                traceback.format_exc(limit=8),
                time.perf_counter() - run_started,
            ))
        else:
            result_queue.put((index, pid, STATUS_OK, value, elapsed))


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


def _run_parallel(pending, n_workers, timeout, progress):
    ctx = multiprocessing.get_context()
    result_queue = ctx.Queue()

    results = {}
    todo = collections.deque(range(len(pending)))
    workers = {}  # pid -> _Worker

    def spawn_worker():
        worker = _Worker(ctx, result_queue)
        workers[worker.proc.pid] = worker
        return worker

    def assign(worker):
        if not todo:
            return
        index = todo.popleft()
        config = pending[index]
        worker.index = index
        worker.started = time.monotonic()
        worker.queue.put((index, config.target, config.kwargs))

    def resolve(index, run):
        # a killed worker's report can still arrive after its timeout
        if index in results:
            return
        results[index] = run
        if progress is not None:
            progress(run)

    for _ in range(min(n_workers, len(pending))):
        assign(spawn_worker())

    try:
        while len(results) < len(pending):
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
                if status == STATUS_OK:
                    resolve(index, RunResult(
                        pending[index], STATUS_OK, value=payload,
                        elapsed=elapsed,
                    ))
                else:
                    resolve(index, RunResult(
                        pending[index], STATUS_ERROR, error=payload,
                    ))
                if worker is not None and worker.proc.is_alive():
                    assign(worker)
                continue

            now = time.monotonic()
            for pid, worker in list(workers.items()):
                if (
                    worker.index is not None and timeout is not None
                    and now - worker.started > timeout
                ):
                    # hung run: kill the worker and replace it
                    del workers[pid]
                    _kill(worker.proc)
                    resolve(worker.index, RunResult(
                        pending[worker.index], STATUS_TIMEOUT,
                        error=f"run exceeded {timeout}s wall-clock limit",
                    ))
                    if todo:
                        assign(spawn_worker())
                elif not worker.proc.is_alive():
                    # worker died (segfault, os._exit in the target, OOM
                    # kill) — possibly before reporting anything
                    del workers[pid]
                    if worker.index is not None:
                        resolve(worker.index, RunResult(
                            pending[worker.index], STATUS_CRASHED,
                            error=f"worker exited with code {worker.proc.exitcode}",
                        ))
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

    return results


def _kill(proc):
    try:
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)
    except (OSError, AttributeError):
        pass
