"""Periodic task sets: the delay-step body and the one builder.

A periodic task of the architecture model (paper Figures 4 and 5)
runs each job as ``time_wait`` delay steps closed by
``task_endcycle``. Task sets are described by the analysis's
``TaskSpec`` and ``MCTaskSpec``, read here by field name: this module
imports nothing from :mod:`repro.analysis`, whose cross-validation
builds on it.
"""

from repro.rtos.errors import RTOSError
from repro.rtos.task import PERIODIC

__all__ = ["periodic_body", "spawn_periodic"]


def _check_step(step):
    # a job of non-positive steps never ends: time_wait(0) forever
    if step is not None and step <= 0:
        raise RTOSError(f"delay step must be > 0, got {step}")


def periodic_body(os_, exec_time, step=None):
    """Body of a periodic task (a generator): each job executes
    ``exec_time`` as ``time_wait`` steps of at most ``step`` (one step
    when ``step`` is None), then ends its cycle; it repeats forever.
    A ``step <= 0`` raises :class:`RTOSError` at this call, before the
    simulation runs.
    """
    _check_step(step)
    return _periodic_jobs(os_, exec_time,
                          exec_time if step is None else step)


def _periodic_jobs(os_, exec_time, step):
    while True:
        remaining = exec_time
        while remaining > step:
            yield from os_.time_wait(step)
            remaining -= step
        yield from os_.time_wait(remaining)
        yield from os_.task_endcycle()


def spawn_periodic(os_, specs, step=None, watch=None, overrun=False):
    """Create, enroll, watch and spawn one periodic task per spec on
    ``os_``; returns the tasks in spec order.

    A ``TaskSpec`` is a plain task. An ``MCTaskSpec`` is enrolled at its
    criticality with ``[wcet_lo, wcet_hi]`` when ``os_`` has a mode
    controller; without one it is a plain task at ``wcet_lo``, watched
    with ``log`` so its misses count eagerly like enrolled tasks' do.
    Jobs execute the base budget in steps of at most ``step``; with
    ``overrun=True`` HI tasks execute ``wcet_hi`` instead (the MC
    cross-validation's injected overrun). ``watch`` is one policy for
    every task. Each process is named after its spec. A ``step <= 0``
    raises :class:`RTOSError` before any task is created.
    """
    _check_step(step)
    tasks = []
    for spec in specs:
        rel_deadline = spec.deadline if spec.deadline != spec.period else None
        criticality, policy = None, watch
        if not hasattr(spec, "wcet_lo"):
            wcet = exec_time = spec.wcet
        else:
            wcet = exec_time = spec.wcet_lo
            if overrun and spec.criticality == "HI":
                exec_time = spec.wcet_hi
            if os_.mc is not None:
                wcet = [spec.wcet_lo, spec.wcet_hi]
                criticality = spec.criticality
            else:
                policy = watch or "log"
        task = os_.task_create(
            spec.name, PERIODIC, spec.period, wcet, priority=spec.priority,
            rel_deadline=rel_deadline, criticality=criticality,
        )
        if policy is not None:
            os_.task_watch(task, policy=policy)
        body = periodic_body(os_, exec_time, step)
        os_.sim.spawn(os_.task_body(task, body), name=spec.name)
        tasks.append(task)
    return tasks
