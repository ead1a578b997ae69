"""Batch-ready run targets for the farm.

Each function here is a module-level callable (importable by dotted
path from worker processes) that runs one simulation configuration and
returns a flat, JSON-serializable metrics dict — the contract the
runner's process fan-out and the JSON export require.

Two workload families, matching the paper's evaluation:

* :func:`periodic_taskset_run` — the synthetic periodic task set of the
  scheduler/preemption ablations (Section 4.3 discussion); shared by
  ``benchmarks/test_bench_schedulers.py`` and
  ``examples/scheduler_comparison.py``.
* ``vocoder_*_run`` — the Table-1 vocoder models, including the
  architecture model under any scheduler/preemption/overhead config.

The fault-campaign targets (``run_campaign_point``,
``mc_campaign_run``) live in :mod:`repro.faults.campaign`, which builds
its task set with :func:`task_specs`.
"""

from repro.kernel import Simulator
from repro.rtos import RTOSModel
from repro.rtos.taskset import spawn_periodic

#: (name, period, exec_time) — utilization ~ 0.94, the ablation set
DEFAULT_TASK_SET = (
    ("t1", 400_000, 100_000),
    ("t2", 500_000, 100_000),
    ("t3", 750_000, 370_000),
)
DEFAULT_HORIZON = 6_000_000
DEFAULT_GRANULARITY = 10_000


def task_specs(task_set=None):
    """``task_set`` (default :data:`DEFAULT_TASK_SET`) as ``TaskSpec``s:
    each ``(name, period, exec_time)`` triple at priority position + 1."""
    from repro.analysis.schedulability import TaskSpec

    return [
        TaskSpec(name, period, exec_time, priority=index + 1)
        for index, (name, period, exec_time)
        in enumerate(task_set or DEFAULT_TASK_SET)
    ]


def periodic_taskset_run(policy="priority", preemption="step",
                         granularity=DEFAULT_GRANULARITY,
                         horizon=DEFAULT_HORIZON, task_set=None,
                         switch_overhead=0):
    """One periodic task set under one scheduling configuration.

    Returns the scheduler-ablation metrics: deadline misses, context
    switches, preemptions, per-task worst/avg response times, CPU
    accounting. The run is untraced.
    """
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched=policy, preemption=preemption,
                    switch_overhead=switch_overhead)
    tasks = spawn_periodic(os_, task_specs(task_set), step=granularity)
    os_.spawn_boot()
    sim.run(until=horizon)
    snap = os_.metrics.snapshot(sim.now)
    return {
        "policy": policy,
        "preemption": preemption,
        "misses": snap["deadline_misses"],
        "switches": snap["context_switches"],
        "preemptions": snap["preemptions"],
        "dispatches": snap["dispatches"],
        "interrupts": snap["interrupts"],
        "utilization": snap["utilization"],
        "overhead_ratio": snap["overhead_ratio"],
        "busy_time": snap["busy_time"],
        "overhead_time": snap["overhead_time"],
        "idle_time": snap["idle_time"],
        "sim_time": snap["sim_time"],
        "worst_response": {
            t.name: t.stats.worst_response for t in tasks
        },
        "avg_response": {
            t.name: t.stats.avg_response for t in tasks
        },
    }


def vocoder_specification_run(n_frames=10, seed=2003):
    """The unscheduled vocoder specification model (Table 1 column 1)."""
    from repro.apps.vocoder.models import run_specification

    return _vocoder_summary(run_specification(n_frames=n_frames, seed=seed))


def vocoder_architecture_run(n_frames=10, seed=2003, sched="priority",
                             preemption="step", switch_overhead=0):
    """The vocoder architecture model under one RTOS configuration
    (Table 1 column 2 and the scheduler x preemption design space)."""
    from repro.apps.vocoder.models import run_architecture

    run = run_architecture(
        n_frames=n_frames, seed=seed, sched=sched, preemption=preemption,
        switch_overhead=switch_overhead,
    )
    summary = _vocoder_summary(run)
    summary.update(
        sched=sched,
        preemption=preemption,
        switch_overhead=switch_overhead,
        deadline_misses=run.extra["deadline_misses"],
        os_metrics=run.extra["os_metrics"],
    )
    return summary


def vocoder_implementation_run(n_frames=10, seed=2003):
    """The vocoder implementation model on the ISS (Table 1 column 3)."""
    from repro.apps.vocoder.impl import run_implementation

    run = run_implementation(n_frames=n_frames, seed=seed)
    summary = _vocoder_summary(run)
    summary.update(
        instructions=run.extra.get("instructions"),
        cycles=run.extra.get("cycles"),
    )
    return summary


def _vocoder_summary(run):
    return {
        "model": run.model,
        "n_frames": run.n_frames,
        "mean_delay_ms": run.mean_delay_ms,
        "max_delay_ms": run.max_delay_ms,
        "context_switches": run.context_switches,
        "host_seconds": run.host_seconds,
        "mean_snr_db": (
            sum(run.snrs_db) / len(run.snrs_db) if run.snrs_db else None
        ),
    }

