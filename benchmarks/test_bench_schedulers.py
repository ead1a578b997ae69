"""Ablation: scheduling policies on a synthetic periodic task set.

The RTOS model's ``start(sched_alg)`` selects among fixed-priority,
round-robin, FIFO, EDF and RMS; this bench runs the same periodic
workload under each policy and reports deadline misses, worst response
times and context switches — the design-space exploration the paper's
flow enables.

The workload and the sweep both live in :mod:`repro.farm`: the run
target is :func:`repro.farm.workloads.periodic_taskset_run` and the
fan-out goes through :func:`repro.farm.run_sweep` (one in-process
worker here, so pytest-benchmark measures simulation cost, not process
spawning).
"""

from repro.farm import SweepSpec, run_sweep
from repro.farm.workloads import DEFAULT_HORIZON, DEFAULT_TASK_SET
from repro.farm.workloads import periodic_taskset_run as run_policy_config

TASK_SET = DEFAULT_TASK_SET
HORIZON = DEFAULT_HORIZON
POLICIES = ("priority", "priority_np", "rr", "fifo", "edf", "rms")


def run_policy(policy):
    return run_policy_config(policy=policy)


def sweep():
    spec = SweepSpec(
        "repro.farm.workloads:periodic_taskset_run"
    ).axis("policy", list(POLICIES))
    result = run_sweep(spec, processes=1)
    assert not result.failed, result.failed
    return result.values()


def test_scheduler_comparison(report, benchmark):
    results = benchmark.pedantic(sweep, rounds=1)
    lines = [
        "Scheduler ablation: periodic set U=0.94 "
        f"(periods {[t[1] for t in TASK_SET]}, horizon {HORIZON})",
        f"{'policy':<12}{'misses':>8}{'switches':>10}{'preempts':>10}"
        f"{'worst t3 resp':>15}{'util':>8}",
    ]
    for r in results:
        worst_t3 = r["worst_response"]["t3"]
        lines.append(
            f"{r['policy']:<12}{r['misses']:>8}{r['switches']:>10}"
            f"{r['preemptions']:>10}{worst_t3 or 0:>15}"
            f"{r['utilization']:>8.3f}"
        )
    report("ablation_schedulers", "\n".join(lines))

    by_policy = {r["policy"]: r for r in results}
    # EDF schedules the U<1 set without misses; RMS misses (U above the
    # Liu-Layland bound); the non-preemptive policies miss as well
    assert by_policy["edf"]["misses"] == 0
    assert by_policy["rms"]["misses"] > 0
    assert by_policy["priority"]["preemptions"] > 0
    assert by_policy["fifo"]["preemptions"] == 0
    # preemptive policies pay more context switches than FIFO
    assert by_policy["priority"]["switches"] >= by_policy["fifo"]["switches"]


def test_bench_edf(benchmark):
    benchmark.pedantic(run_policy, args=("edf",), rounds=2, warmup_rounds=1)


def test_bench_priority(benchmark):
    benchmark.pedantic(
        run_policy, args=("priority",), rounds=2, warmup_rounds=1
    )
