"""Fault campaigns: sweeping (seed x fault plan x scheduler) on the farm.

A *campaign* evaluates robustness the way the paper's Section-4.3
ablation evaluates schedulability: run the same periodic task set under
every combination of seed, fault-plan preset and scheduling policy, and
report per-run survival and deadline-miss rates. Campaign points are
ordinary farm runs, so they parallelize like any other sweep. Two
module-level targets return flat metrics dicts:

* :func:`run_campaign_point` — the farm's scheduler-ablation task set,
  watched, under one fault plan (:func:`campaign_spec`);
* :func:`mc_campaign_run` — :data:`MC_TASK_SET` under a seeded overrun
  plan, with or without the mixed-criticality mode controller
  (:func:`mc_campaign_spec`).

Plans cross the worker-process boundary as *preset names* (strings from
:data:`PLAN_PRESETS`) or inline JSON strings — both hashable, so
``RunConfig`` content-hashing and process fan-out work unchanged;
:func:`resolve_plan` turns either form into a
:class:`~repro.faults.plan.FaultPlan`.

Determinism: a campaign point is a seeded, single-threaded simulation —
identical (seed, plan, policy) triples produce identical metrics.
:func:`campaign_report` strips the wall-clock fields (``elapsed``,
``wall_seconds``) from the sweep result, so two runs of the same
campaign serialize to byte-identical JSON (the CI ``fault-smoke`` job
diffs exactly that).
"""

import json

from repro.faults.plan import FaultPlan, FaultPlanError

#: (name, period, wcet levels, priority, criticality) — the
#: mixed-criticality campaign set: the LO tasks outrank the HI task
#: (utilization 0.70 at the optimistic budgets), so the HI task only
#: survives its pessimistic budget when the mode switch sheds LO load
MC_TASK_SET = (
    ("lo1", 400_000, (100_000,), 1, "LO"),
    ("lo2", 500_000, (100_000,), 2, "LO"),
    ("hi", 1_000_000, (250_000, 500_000), 3, "HI"),
)

#: canonical fault plans, referenced by name from campaign configs.
#: Task names match the farm's DEFAULT_TASK_SET (t1/t2/t3).
PLAN_PRESETS = {
    # control group: no faults, the ablation baseline
    "baseline": (),
    # probabilistic execution-time jitter on every task
    "jitter": (
        {"kind": "exec_jitter", "scale": 1.3, "prob": 0.5},
    ),
    # systematic overrun of the heaviest task
    "overrun": (
        {"kind": "exec_jitter", "task": "t3", "scale": 1.6},
    ),
    # the highest-rate task crashes mid-run
    "crash": (
        {"kind": "task_crash", "task": "t1", "at": 2_000_000},
    ),
    # a mid-priority task wedges while holding the CPU
    "hang": (
        {"kind": "task_hang", "task": "t2", "at": 1_500_000},
    ),
    # everything at once
    "storm": (
        {"kind": "exec_jitter", "scale": 1.2, "prob": 0.4},
        {"kind": "task_crash", "task": "t1", "at": 4_000_000},
        {"kind": "exec_jitter", "task": "t3", "offset": 50_000, "prob": 0.25},
    ),
    # mixed-criticality overrun storm: the HI task repeatedly blows its
    # optimistic budget while the LO load jitters (task names match
    # MC_TASK_SET lo1/lo2/hi)
    "overrun_storm": (
        {"kind": "exec_jitter", "task": "hi", "scale": 2.0, "prob": 0.6},
        {"kind": "exec_jitter", "task": "lo1", "scale": 1.1, "prob": 0.3},
    ),
}


def resolve_plan(plan):
    """Turn a preset name, JSON string, spec list or plan into a FaultPlan."""
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, str):
        preset = PLAN_PRESETS.get(plan)
        if preset is not None:
            return FaultPlan(preset)
        if plan.lstrip().startswith(("[", "{")):
            return FaultPlan.from_json(plan)
        raise FaultPlanError(
            f"unknown fault-plan preset {plan!r} "
            f"(known: {', '.join(sorted(PLAN_PRESETS))}; "
            "or pass inline JSON)"
        )
    return FaultPlan(plan)


def run_campaign_point(policy="priority", preemption="step", seed=0,
                       plan="baseline", on_miss="log", budget_factor=None,
                       horizon=6_000_000, granularity=10_000, task_set=None):
    """One campaign point: a watched periodic task set under one fault plan.

    Builds the farm's scheduler-ablation task set, watches every task
    with the ``on_miss`` policy (optionally arming execution budgets of
    ``wcet * budget_factor``), arms ``plan`` through a
    :class:`~repro.faults.inject.FaultInjector` seeded with ``seed``,
    and returns a flat survival/miss-rate metrics dict.
    """
    from repro.farm.workloads import task_specs
    from repro.faults.inject import FaultInjector
    from repro.kernel import Simulator
    from repro.rtos import RTOSModel
    from repro.rtos.task import TaskState
    from repro.rtos.taskset import spawn_periodic

    plan_obj = resolve_plan(plan)
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched=policy, preemption=preemption)
    notifications = []

    def on_failure(task, kind, now):
        notifications.append((task.name, kind, now))

    handler = on_failure if on_miss == "notify" else None
    tasks = spawn_periodic(os_, task_specs(task_set), step=granularity)
    for task in tasks:
        budget = (
            int(task.wcet * budget_factor) if budget_factor is not None
            else None
        )
        os_.task_watch(task, policy=on_miss, handler=handler, budget=budget)
    injector = FaultInjector(sim, plan_obj, seed=seed).arm(model=os_)
    os_.spawn_boot()
    sim.run(until=horizon)

    monitor = os_.monitor
    releases = sum(monitor.releases.values())
    survivors = sum(
        1 for t in tasks if t.state is not TaskState.TERMINATED
    )
    snap = os_.metrics.snapshot(sim.now)
    result = {
        "policy": policy,
        "preemption": preemption,
        "seed": seed,
        "plan": plan if isinstance(plan, str) else plan_obj.to_json(),
        "on_miss": on_miss,
        "misses": snap["deadline_misses"],
        "releases": releases,
        "miss_rate": round(snap["deadline_misses"] / releases, 6) if releases else 0.0,
        "budget_overruns": snap["budget_overruns"],
        "policy_kills": snap["policy_kills"],
        "cycles_skipped": snap["cycles_skipped"],
        "faults_injected": snap["faults_injected"],
        "survivors": survivors,
        "n_tasks": len(tasks),
        "survival": round(survivors / len(tasks), 6) if tasks else 1.0,
        "switches": snap["context_switches"],
        "preemptions": snap["preemptions"],
        "utilization": snap["utilization"],
        "sim_time": snap["sim_time"],
        "injected": dict(injector.counts),
    }
    if on_miss == "notify":
        result["notifications"] = len(notifications)
    return result


def mc_campaign_run(policy="priority", seed=0, plan="overrun_storm",
                    degrade="drop", recovery_window=None, with_mc=True,
                    horizon=6_000_000, task_set=None):
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
    from repro.faults.inject import FaultInjector
    from repro.kernel import Simulator
    from repro.rtos import RTOSModel
    from repro.rtos.task import TaskState
    from repro.rtos.taskset import spawn_periodic

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


def campaign_spec(seeds=(1, 2, 3), plans=("baseline", "jitter", "crash"),
                  scheds=("priority", "edf"), on_miss="log",
                  budget_factor=None, horizon=6_000_000):
    """Build the (seed x plan x scheduler) SweepSpec of one campaign."""
    from repro.farm.sweep import SweepSpec

    for plan in plans:
        resolve_plan(plan)  # fail fast on unknown presets / bad JSON
    return (
        SweepSpec(
            "repro.faults.campaign:run_campaign_point",
            base={
                "on_miss": on_miss,
                "budget_factor": budget_factor,
                "horizon": horizon,
            },
        )
        .axis("policy", list(scheds))
        .axis("plan", list(plans))
        .axis("seed", list(seeds))
    )


def mc_campaign_spec(seeds=(1, 2, 3), degrades=("drop", "skip", "elastic"),
                     plan="overrun_storm", scheds=("priority",),
                     recovery_window=None, horizon=6_000_000):
    """Build the MC-ablation SweepSpec: (sched x degrade x MC-on/off x seed).

    Every point runs :func:`mc_campaign_run` on :data:`MC_TASK_SET`
    under the same seeded overrun plan; the ``with_mc`` axis is the
    ablation — identical workload with the mode controller armed vs. a
    plain watched baseline, so the report directly exhibits the HI-miss
    shielding.
    """
    from repro.farm.sweep import SweepSpec

    resolve_plan(plan)  # fail fast on unknown presets / bad JSON
    return (
        SweepSpec(
            "repro.faults.campaign:mc_campaign_run",
            base={
                "plan": plan,
                "recovery_window": recovery_window,
                "horizon": horizon,
            },
        )
        .axis("policy", list(scheds))
        .axis("degrade", list(degrades))
        .axis("with_mc", [True, False])
        .axis("seed", list(seeds))
    )


def campaign_report(sweep_result):
    """Deterministic campaign summary (no wall-clock fields).

    Two runs of the same campaign — in-process or in worker processes
    — serialize this to byte-identical JSON.
    """
    runs = []
    for run in sweep_result:
        runs.append({
            "label": run.config.label(),
            "params": dict(run.config.kwargs),
            "status": run.status,
            "result": run.value if run.ok else None,
            "error": run.error,
        })
    runs.sort(key=lambda entry: entry["label"])
    ok = [r for r in runs if r["status"] == "ok"]
    summary = {
        "runs": len(runs),
        "ok": len(ok),
        "failed": len(runs) - len(ok),
        "total_misses": sum(r["result"]["misses"] for r in ok),
        "total_faults_injected": sum(
            r["result"]["faults_injected"] for r in ok
        ),
        "mean_miss_rate": (
            round(sum(r["result"]["miss_rate"] for r in ok) / len(ok), 6)
            if ok else 0.0
        ),
        "min_survival": (
            min(r["result"]["survival"] for r in ok) if ok else 1.0
        ),
    }
    return {"campaign": summary, "points": runs}


def write_campaign_report(sweep_result, path):
    """Serialize :func:`campaign_report` to ``path`` (stable JSON)."""
    payload = json.dumps(
        campaign_report(sweep_result), indent=1, sort_keys=True
    )
    with open(path, "w") as fh:
        fh.write(payload + "\n")
    return payload
