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

#: (name, period, wcet levels, priority, criticality) — the
#: mixed-criticality campaign set: the LO tasks outrank the HI task
#: (utilization 0.70 at the optimistic budgets), so the HI task only
#: survives its pessimistic budget when the mode switch sheds LO load
MC_TASK_SET = (
    ("lo1", 400_000, (100_000,), 1, "LO"),
    ("lo2", 500_000, (100_000,), 2, "LO"),
    ("hi", 1_000_000, (250_000, 500_000), 3, "HI"),
)


def task_specs(task_set=None):
    """``task_set`` (default :data:`DEFAULT_TASK_SET`) as ``TaskSpec``s:
    each ``(name, period, exec_time)`` triple at priority position + 1."""
    from repro.analysis.schedulability import TaskSpec

    return [
        TaskSpec(name, period, exec_time, priority=index + 1)
        for index, (name, period, exec_time)
        in enumerate(task_set or DEFAULT_TASK_SET)
    ]


def span_instruments():
    """A trace streaming straight into a span builder, plus analyzers.

    Used by the ``with_spans=True`` workloads: the
    :class:`~repro.obs.spans.SpanBuilder` *is* the trace sink, so even
    a multi-million-record run reconstructs its latency digests and job
    census in O(tasks) memory — no record is ever retained. Returns
    ``(trace, builder, latency, misses)``.
    """
    from repro.kernel.trace import Trace
    from repro.obs.analyzers import LatencyAnalyzer, MissSummary
    from repro.obs.spans import SpanBuilder

    latency = LatencyAnalyzer()
    misses = MissSummary()
    builder = SpanBuilder(latency, misses)
    return Trace(sink=builder), builder, latency, misses


def span_dump(builder, latency, misses, now):
    """Flush ``builder`` and dump the ``"spans"`` result payload."""
    builder.finish(now)
    return {"latency": latency.as_dict(), "misses": misses.as_dict()}


def periodic_taskset_run(policy="priority", preemption="step",
                         granularity=DEFAULT_GRANULARITY,
                         horizon=DEFAULT_HORIZON, task_set=None,
                         switch_overhead=0, with_obs=False,
                         with_spans=False):
    """One periodic task set under one scheduling configuration.

    Returns the scheduler-ablation metrics: deadline misses, context
    switches, preemptions, per-task worst/avg response times, CPU
    accounting. With ``with_obs=True`` a
    :class:`~repro.obs.metrics.MetricsRegistry` is attached to the OS
    services for the run and its snapshot rides along under the
    ``"metrics"`` key (aggregatable across runs with
    ``SweepResult.aggregate``). With ``with_spans=True`` the trace is
    streamed through a :class:`~repro.obs.spans.SpanBuilder` (O(tasks)
    memory, no records retained) and the per-task latency digests and
    job census ride along under ``"spans"`` — also merged by
    ``SweepResult.aggregate``.
    """
    registry = None
    if with_obs:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    trace = builder = latency = misses = None
    if with_spans:
        trace, builder, latency, misses = span_instruments()
    sim = Simulator(trace=trace)
    if trace is None:
        sim.trace.enabled = False
    os_ = RTOSModel(sim, sched=policy, preemption=preemption,
                    switch_overhead=switch_overhead, registry=registry)
    if with_spans:
        os_.trace_spans(True)
    tasks = spawn_periodic(os_, task_specs(task_set), step=granularity)
    os_.spawn_boot()
    sim.run(until=horizon)
    snap = os_.metrics.snapshot(sim.now)
    result = {
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
    if registry is not None:
        result["metrics"] = registry.snapshot()
    if builder is not None:
        result["spans"] = span_dump(builder, latency, misses, sim.now)
    return result


def mc_campaign_run(policy="priority", seed=0, plan="overrun_storm",
                    degrade="drop", recovery_window=None, with_mc=True,
                    horizon=DEFAULT_HORIZON, task_set=None):
    """One mixed-criticality campaign point: :data:`MC_TASK_SET` under a
    seeded overrun plan, with or without the mode controller.

    ``with_mc=True`` arms :meth:`RTOSModel.mc_configure` (policy
    ``degrade``, optional hysteresis ``recovery_window``) and enrolls
    every task at its criticality with its per-level budgets;
    ``with_mc=False`` runs the identical workload as a plain watched
    baseline — the ablation pair whose HI-miss delta is the shielding
    the campaign report exhibits. Bodies request the optimistic budget
    in one ``time_wait`` so the fault plan's ``exec_jitter`` scales
    whole jobs, matching the Vestal model's per-job overrun.
    """
    from repro.analysis.schedulability import MCTaskSpec
    from repro.faults.campaign import resolve_plan
    from repro.faults.inject import FaultInjector
    from repro.rtos.task import TaskState

    specs = [
        MCTaskSpec(name, period, levels[0], levels[-1], criticality,
                   priority=priority)
        for name, period, levels, priority, criticality
        in task_set or MC_TASK_SET
    ]
    plan_obj = resolve_plan(plan)
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched=policy, preemption="immediate")
    if with_mc:
        os_.mc_configure(degrade=degrade, recovery_window=recovery_window)
    tasks = spawn_periodic(os_, specs)
    injector = FaultInjector(sim, plan_obj, seed=seed).arm(model=os_)
    os_.spawn_boot()
    sim.run(until=horizon)

    monitor = os_.monitor
    task_misses = [monitor.miss_counts.get(t.uid, 0) for t in tasks]
    misses = sum(task_misses)
    hi_misses = sum(n for n, spec in zip(task_misses, specs) if spec.is_hi)
    lo_misses = misses - hi_misses
    releases = sum(monitor.releases.values())
    survivors = sum(
        1 for t in tasks if t.state is not TaskState.TERMINATED
    )
    snap = os_.metrics.snapshot(sim.now)
    return {
        "policy": policy,
        "seed": seed,
        "plan": plan if isinstance(plan, str) else plan_obj.to_json(),
        "degrade": degrade,
        "with_mc": with_mc,
        "mode": os_.mc_mode(),
        "mode_raises": snap["mode_raises"],
        "mode_recoveries": snap["mode_recoveries"],
        "jobs_degraded": snap["jobs_degraded"],
        "misses": misses,
        "hi_misses": hi_misses,
        "lo_misses": lo_misses,
        "releases": releases,
        "miss_rate": round(misses / releases, 6) if releases else 0.0,
        "budget_overruns": snap["budget_overruns"],
        "faults_injected": snap["faults_injected"],
        "injected": dict(injector.counts),
        "survivors": survivors,
        "survival": round(survivors / len(tasks), 6) if tasks else 1.0,
        "n_tasks": len(tasks),
        "switches": snap["context_switches"],
        "preemptions": snap["preemptions"],
        "utilization": snap["utilization"],
        "sim_time": snap["sim_time"],
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

