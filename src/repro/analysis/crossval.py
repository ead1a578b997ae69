"""Cross-validation: simulator vs analytic schedulability.

The contract this module enforces — the repo's second ground truth
besides the ISS comparison of the paper:

    If :func:`repro.analysis.schedulability.check_system` certifies a
    task schedulable, then simulating the same system spec (hierarchical
    scheduler, immediate preemption, deadline watchdogs armed) must show
    **zero** deadline misses for that task.

The reverse direction is not a theorem (the analysis is conservative:
worst-case release alignment may not occur in one finite simulation),
but the generated matrix includes grossly overloaded configurations that
demonstrably miss, so both verdicts stay exercised.

Usage::

    PYTHONPATH=src python -m repro.analysis.crossval --count 20 --seed 7

exits non-zero on any contract violation.
"""

import argparse
import json
import math
import random
from collections import Counter

from repro.analysis.schedulability import (
    ComponentSpec,
    MCTaskSpec,
    PESpec,
    SystemSpec,
    TaskSpec,
    check_amc_rtb,
    check_edf_vd,
    check_system,
)
from repro.cli import positive_int
from repro.platform.architecture import Architecture
from repro.rtos.mc import DEGRADE_FACTOR
from repro.rtos.sched.hier import Component
from repro.rtos.task import PERIODIC
from repro.rtos.taskset import periodic_body, spawn_periodic

__all__ = [
    "build_architecture",
    "cross_validate",
    "cross_validate_mc",
    "generate_matrix",
    "generate_mc_matrix",
    "run_matrix",
    "run_mc_matrix",
    "simulate",
    "simulate_mc",
]


# ---------------------------------------------------------------------------
# spec -> runtime system
# ---------------------------------------------------------------------------


def build_architecture(spec, preemption="immediate"):
    """Instantiate the runtime system a :class:`SystemSpec` describes.

    Immediate preemption by default: budget enforcement is then exact
    (no step-granularity overrun), matching the analysis' supply model.
    Every task is watched with a ``"log"`` deadline watchdog
    (:mod:`repro.faults`), so misses are detected eagerly at the missed
    deadline — not lazily at the task's next ``endcycle``.
    """
    arch = Architecture(name=spec.name)
    arch.sim.trace.enabled = False
    for pe_spec in spec.pes:
        components = [
            Component(c.name, c.budget, c.period, policy=c.policy,
                      priority=c.priority)
            for c in pe_spec.components
        ]
        pe = arch.add_pe(pe_spec.name, sched=pe_spec.top,
                         preemption=preemption, speed=pe_spec.speed,
                         components=components)
        for comp_spec in pe_spec.components:
            for task_spec in comp_spec.tasks:
                task = pe.add_task(
                    task_spec.name,
                    periodic_body(pe.os, pe.scaled_wcet(task_spec.wcet)),
                    tasktype=PERIODIC,
                    period=task_spec.period,
                    wcet=task_spec.wcet,
                    priority=task_spec.priority,
                    rel_deadline=(
                        task_spec.deadline
                        if task_spec.deadline != task_spec.period else None
                    ),
                    component=comp_spec.name,
                )
                pe.os.task_watch(task, policy="log")
    return arch


def _horizon_for(spec, cap=2_000_000):
    """Simulation length: two hyperperiods (all task and server periods),
    at least ten of the largest period, capped to keep runs fast."""
    periods = [1]
    for pe in spec.pes:
        for comp in pe.components:
            if comp.bounded:
                periods.append(comp.period)
            periods.extend(task.period for task in comp.tasks)
    horizon = min(2 * math.lcm(*periods), cap)
    return max(horizon, 10 * max(periods))


def _report_names(spec):
    """``(pe, task) -> name`` for the reports: a task's own name when no
    other PE of ``spec`` has a task of that name, else ``<pe>.<task>``."""
    pairs = [
        (pe.name, task.name)
        for pe in spec.pes
        for comp in pe.components
        for task in comp.tasks
    ]
    counts = Counter(task for _, task in pairs)
    return {
        (pe, task): task if counts[task] == 1 else f"{pe}.{task}"
        for pe, task in pairs
    }


def simulate(spec, horizon=None, preemption="immediate"):
    """Run ``spec`` and return per-task simulation results.

    Returns a dict ``task name -> {"misses", "releases", "cycles",
    "worst_response", "component", "pe"}`` plus per-component budget
    stats under the ``"__components__"`` key. A task whose name also
    occurs on another PE is keyed ``<pe>.<task>``.
    """
    if horizon is None:
        horizon = _horizon_for(spec)
    arch = build_architecture(spec, preemption=preemption)
    arch.run(until=horizon)
    names = _report_names(spec)
    results = {}
    comp_stats = {}
    for pe_spec in spec.pes:
        pe = arch.pes[pe_spec.name]
        by_name = {task.name: task for task in pe.tasks}
        for comp_spec in pe_spec.components:
            comp = pe.component(comp_spec.name)
            comp_stats[f"{pe_spec.name}.{comp_spec.name}"] = {
                "throttles": comp.stats.throttles,
                "max_window_consumption": comp.stats.max_window_consumption,
                "budget": comp.budget,
            }
            for task_spec in comp_spec.tasks:
                task = by_name[task_spec.name]
                results[names[pe_spec.name, task_spec.name]] = {
                    "misses": task.stats.deadline_misses,
                    "releases": task.stats.activations + task.stats.cycles_completed,
                    "cycles": task.stats.cycles_completed,
                    "worst_response": task.stats.worst_response,
                    "component": comp_spec.name,
                    "pe": pe_spec.name,
                }
    results["__components__"] = comp_stats
    return results


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------


def cross_validate(spec, horizon=None):
    """Run ``spec`` through analysis *and* simulation; compare.

    Returns a dict with the analytic verdict, the simulated miss counts,
    and ``"consistent"`` — False iff a task the analysis guarantees
    missed a deadline in simulation (the contract violation). Tasks are
    matched by PE and name, and named as :func:`simulate` names them.
    """
    verdict = check_system(spec)
    sim_results = simulate(spec, horizon=horizon)
    names = _report_names(spec)
    guaranteed = {names[pair] for pair in verdict.guaranteed}
    violations = []
    missed_tasks = []
    for name, row in sim_results.items():
        if name == "__components__":
            continue
        if row["misses"] > 0:
            missed_tasks.append(name)
            if name in guaranteed:
                violations.append(
                    f"task {name!r} certified schedulable but missed "
                    f"{row['misses']} deadlines in simulation"
                )
    return {
        "system": spec.name,
        "analysis_schedulable": verdict.schedulable,
        "guaranteed_tasks": sorted(guaranteed),
        "simulated_misses": {
            name: row["misses"]
            for name, row in sim_results.items()
            if name != "__components__"
        },
        "missed_tasks": sorted(missed_tasks),
        "component_stats": sim_results["__components__"],
        "violations": violations,
        "consistent": not violations,
    }


# ---------------------------------------------------------------------------
# generated configuration matrix
# ---------------------------------------------------------------------------

#: harmonic period menu keeps hyperperiods (and therefore both the
#: analysis point sets and the simulation horizon) small
_PERIODS = (1000, 2000, 4000, 8000)


def _random_component(rng, index, server_util, overload):
    # server periods an order of magnitude below the task periods keep
    # the supply blackout 2(Π−Θ) far under every deadline — the regime
    # hierarchical systems are designed in
    period = rng.choice((100, 200, 250))
    budget = max(1, int(period * server_util))
    if overload:
        # demand clearly above the full server supply: these must miss
        target_util = server_util * rng.uniform(1.5, 2.0)
    else:
        # demand well under the BDR availability factor, so the
        # conservative analysis certifies it
        target_util = server_util * rng.uniform(0.35, 0.6)
    policy = rng.choice(("edf", "priority"))
    tasks = []
    remaining = target_util
    n_tasks = rng.randint(1, 3)
    for t in range(n_tasks):
        share = remaining / (n_tasks - t)
        task_period = rng.choice(_PERIODS)
        wcet = max(1, int(task_period * share))
        tasks.append(TaskSpec(
            name=f"c{index}t{t}",
            period=task_period,
            wcet=wcet,
            priority=t if policy == "priority" else None,
        ))
        remaining -= share
    return ComponentSpec(
        name=f"comp{index}",
        budget=budget,
        period=period,
        policy=policy,
        priority=index,
        tasks=tuple(tasks),
    )


def generate_matrix(count=20, seed=7):
    """Deterministically generate ``count`` system configurations.

    Roughly 60% aim to be schedulable (low demand vs supply), 40% are
    grossly overloaded inside at least one component. The split is a
    target, not a promise — the analysis is the judge; the harness only
    requires that both verdicts occur and the contract holds.
    """
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        overload = rng.random() < 0.4
        n_pes = rng.randint(1, 2)
        pes = []
        for p in range(n_pes):
            n_comps = rng.randint(1, 2)
            # total server utilization stays under ~0.85 so the
            # fixed-priority top level always delivers the budgets
            shares = [rng.uniform(0.25, 0.4) for _ in range(n_comps)]
            scale = min(1.0, 0.85 / sum(shares))
            comps = tuple(
                _random_component(rng, c, shares[c] * scale,
                                  overload and p == 0 and c == 0)
                for c in range(n_comps)
            )
            pes.append(PESpec(
                name=f"pe{p}",
                top="priority",
                speed=rng.choice((1.0, 1.0, 2.0)),
                components=comps,
            ))
        specs.append(SystemSpec(name=f"gen{i}", pes=tuple(pes)))
    return specs


def run_matrix(count=20, seed=7, horizon=None):
    """Cross-validate a generated matrix; returns the summary dict."""
    reports = [
        cross_validate(spec, horizon=horizon)
        for spec in generate_matrix(count, seed)
    ]
    schedulable = [r for r in reports if r["analysis_schedulable"]]
    unschedulable = [r for r in reports if not r["analysis_schedulable"]]
    witnesses = [r for r in unschedulable if r["missed_tasks"]]
    return {
        "count": len(reports),
        "seed": seed,
        "schedulable": len(schedulable),
        "unschedulable": len(unschedulable),
        "unschedulable_with_misses": len(witnesses),
        "violations": [v for r in reports for v in r["violations"]],
        "consistent": all(r["consistent"] for r in reports),
        "reports": reports,
    }


# ---------------------------------------------------------------------------
# mixed criticality: AMC certificate vs MC-armed simulation
# ---------------------------------------------------------------------------
#
# The MC contract extends the hierarchical one:
#
#     If :func:`check_amc_rtb` certifies a HI task, then simulating the
#     task set with the MC controller armed (flat fixed-priority,
#     immediate preemption, sticky mode raise — recovery disabled to
#     match the single-switch AMC model) and every HI task *always*
#     executing its HI budget (the injected overrun) must show zero
#     deadline misses for that task.
#
# The no-MC baseline run of the same set is the witness: with LO tasks
# never degraded the same overrunning workload demonstrably drives HI
# tasks into misses, proving the degradation — not slack — shields them.


def simulate_mc(tasks, degrade="drop", with_mc=True, horizon=None):
    """Simulate one MC task set; HI tasks always execute ``wcet_hi``.

    With ``with_mc`` the model's :class:`~repro.rtos.mc.MCController`
    is armed (no recovery window: the raise is sticky, matching the
    AMC analysis); without it the same workload runs undefended, every
    task merely watched for eager miss detection. Returns per-task
    ``{"misses", "releases", "cycles"}`` plus MC counters under
    ``"__mc__"``.
    """
    from repro.kernel import Simulator
    from repro.rtos import RTOSModel

    if horizon is None:
        periods = [spec.period for spec in tasks]
        horizon = max(min(2 * math.lcm(*periods), 200_000),
                      10 * max(periods))
    sim = Simulator()
    sim.trace.enabled = False
    os_ = RTOSModel(sim, sched="priority", preemption="immediate")
    if with_mc:
        os_.mc_configure(degrade=degrade)
    handles = spawn_periodic(os_, tasks, overrun=True)
    os_.spawn_boot()
    sim.run(until=horizon)
    results = {
        task.name: {
            "misses": task.stats.deadline_misses,
            "releases": task.stats.activations + task.stats.cycles_completed,
            "cycles": task.stats.cycles_completed,
        }
        for task in handles
    }
    results["__mc__"] = {
        "mode": os_.mc_mode(),
        "mode_raises": os_.metrics.mode_raises,
        "jobs_degraded": os_.metrics.jobs_degraded,
        "budget_overruns": os_.metrics.budget_overruns,
    }
    return results


def cross_validate_mc(tasks, degrade="drop", horizon=None):
    """AMC-rtb certificate vs MC-armed simulation, plus the baseline.

    Returns a dict with both analytic verdicts (AMC-rtb drives the
    contract; EDF-VD rides along as a second certificate), the
    MC-armed and no-MC simulated miss counts, the violation list, and:

    * ``"consistent"`` — no certified HI task missed with MC armed;
    * ``"shielded"`` — at least one certified HI task missed in the
      *baseline* but not with MC armed: degradation, not slack, is
      what saved it (the CI witness).
    """
    tasks = list(tasks)
    # drop matches classical AMC (LO tasks stop after the switch);
    # skip / elastic leave LO tasks releasing DEGRADE_FACTOR times
    # slower, which the policy-aware rtb bound must account for
    amc = check_amc_rtb(
        tasks, lo_period_scale=None if degrade == "drop" else DEGRADE_FACTOR
    )
    edf_vd = check_edf_vd(tasks)
    mc_run = simulate_mc(tasks, degrade=degrade, horizon=horizon)
    baseline = simulate_mc(tasks, degrade=degrade, with_mc=False,
                           horizon=horizon)
    certified_hi = sorted(
        tv.task for tv in amc.hi_tasks if tv.schedulable
    )
    violations = []
    for name in certified_hi:
        misses = mc_run[name]["misses"]
        if misses:
            violations.append(
                f"HI task {name!r} certified by AMC-rtb but missed "
                f"{misses} deadlines with MC armed"
            )
    hi_names = [spec.name for spec in tasks if spec.is_hi]
    baseline_hi_misses = {
        name: baseline[name]["misses"] for name in hi_names
    }
    shielded = sorted(
        name for name in certified_hi
        if baseline_hi_misses[name] and not mc_run[name]["misses"]
    )
    return {
        "tasks": [spec.name for spec in tasks],
        "degrade": degrade,
        "amc_schedulable": amc.schedulable,
        "edf_vd_schedulable": edf_vd.schedulable,
        "certified_hi": certified_hi,
        "mc_misses": {
            name: row["misses"] for name, row in mc_run.items()
            if name != "__mc__"
        },
        "baseline_hi_misses": baseline_hi_misses,
        "mc_state": mc_run["__mc__"],
        "shielded": shielded,
        "violations": violations,
        "consistent": not violations,
    }


def generate_mc_matrix(count=12, seed=7):
    """Deterministically generate ``count`` dual-criticality task sets.

    Each set interleaves LO and HI tasks in priority order (LO tasks
    above *and* below HI ones — the regime AMC is about) with a
    baseline utilization ``U_LO^LO + U_HI^HI`` above 1, so undefended
    overruns demonstrably overload the set. Roughly a third get a HI
    budget so large that even the steady HI mode overloads — the
    analysis is the judge; the harness only needs both verdicts and
    the contract to hold.
    """
    rng = random.Random(seed)
    sets = []
    for i in range(count):
        overload = i % 3 == 2
        scale = rng.choice((1, 2, 5))
        jitter = rng.uniform(0.9, 1.1)
        hi2_budget = 1500 if overload else 700
        sets.append((
            MCTaskSpec(f"s{i}_lo1", 400 * scale,
                       int(100 * scale * jitter), criticality="LO",
                       priority=1),
            MCTaskSpec(f"s{i}_hi1", 800 * scale, int(80 * scale * jitter),
                       int(240 * scale * jitter), criticality="HI",
                       priority=2),
            MCTaskSpec(f"s{i}_lo2", 1000 * scale,
                       int(150 * scale * jitter), criticality="LO",
                       priority=3),
            MCTaskSpec(f"s{i}_hi2", 2000 * scale,
                       int(200 * scale * jitter),
                       int(hi2_budget * scale * jitter), criticality="HI",
                       priority=4),
        ))
    return sets


def run_mc_matrix(count=12, seed=7, degrade="drop", horizon=None):
    """Cross-validate a generated MC matrix; returns the summary dict."""
    reports = [
        cross_validate_mc(tasks, degrade=degrade, horizon=horizon)
        for tasks in generate_mc_matrix(count, seed)
    ]
    certified = [r for r in reports if r["certified_hi"]]
    shielded = [r for r in reports if r["shielded"]]
    uncertified = [r for r in reports if not r["amc_schedulable"]]
    uncertified_with_misses = [
        r for r in uncertified if any(r["baseline_hi_misses"].values())
    ]
    return {
        "count": len(reports),
        "seed": seed,
        "degrade": degrade,
        "certified": len(certified),
        "uncertified": len(uncertified),
        "uncertified_with_misses": len(uncertified_with_misses),
        "shielded": len(shielded),
        "violations": [v for r in reports for v in r["violations"]],
        "consistent": all(r["consistent"] for r in reports),
        "reports": reports,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.crossval",
        description="Cross-validate the RTOS simulator against the "
                    "analytic schedulability checker.",
    )
    parser.add_argument("--count", type=positive_int, default=None,
                        help="number of generated configurations "
                             "(default: 20, or 12 with --mc)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--horizon", type=positive_int, default=None,
                        help="simulation horizon override (time units)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON")
    parser.add_argument("--require-witness", action="store_true",
                        help="also fail unless at least one analytically-"
                             "unschedulable config misses in simulation")
    parser.add_argument("--mc", action="store_true",
                        help="run the mixed-criticality matrix instead: "
                             "AMC-rtb certificates vs MC-armed simulation "
                             "under always-overrunning HI tasks")
    parser.add_argument("--degrade", default="drop",
                        choices=("drop", "skip", "elastic"),
                        help="LO degradation policy for the MC matrix")
    args = parser.parse_args(argv)

    if args.mc:
        return _main_mc(args)
    count = args.count if args.count is not None else 20
    summary = run_matrix(count, args.seed, args.horizon)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    print(
        f"{summary['count']} configs: {summary['schedulable']} schedulable, "
        f"{summary['unschedulable']} unschedulable "
        f"({summary['unschedulable_with_misses']} with simulated misses)"
    )
    status = 0
    for violation in summary["violations"]:
        print(f"VIOLATION: {violation}")
        status = 1
    if not summary["violations"]:
        print("contract holds: no guaranteed task missed in simulation")
    if args.require_witness and not summary["unschedulable_with_misses"]:
        print("no unschedulable configuration produced a simulated miss")
        status = 1
    return status


def _main_mc(args):
    count = args.count if args.count is not None else 12
    summary = run_mc_matrix(count, args.seed, args.degrade, args.horizon)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
    print(
        f"{summary['count']} MC sets ({summary['degrade']}): "
        f"{summary['certified']} with certified HI tasks, "
        f"{summary['uncertified']} uncertified "
        f"({summary['uncertified_with_misses']} with baseline HI misses), "
        f"{summary['shielded']} shielded by degradation"
    )
    status = 0
    for violation in summary["violations"]:
        print(f"VIOLATION: {violation}")
        status = 1
    if not summary["violations"]:
        print("MC contract holds: no certified HI task missed with MC armed")
    if args.require_witness:
        if not summary["shielded"]:
            print("no certified set demonstrated degradation shielding "
                  "(baseline HI miss vs MC-armed clean)")
            status = 1
        if not summary["uncertified_with_misses"]:
            print("no uncertified set produced a baseline HI miss")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
