"""Unit tests for the analytic schedulability checker.

Bound functions are pinned against hand-computed values from the
periodic resource model (Shin & Lee); the component/system checks are
exercised in both verdict directions, including the conservative
truncation path.
"""

import pytest

from repro.analysis.schedulability import (
    ComponentSpec,
    PESpec,
    SystemSpec,
    TaskSpec,
    bdr_interface,
    check_component,
    check_system,
    dbf,
    sbf_bdr,
    sbf_full,
    sbf_periodic,
)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec("t", period=0, wcet=10)
    with pytest.raises(ValueError):
        TaskSpec("t", period=100, wcet=0)
    with pytest.raises(ValueError):
        TaskSpec("t", period=100, wcet=10, deadline=200)  # D > T
    task = TaskSpec("t", period=100, wcet=10)
    assert task.deadline == 100  # implicit deadline
    assert task.utilization == 0.1


def test_task_spec_speed_scaling():
    task = TaskSpec("t", period=100, wcet=10)
    assert task.scaled(1.0) is task
    assert task.scaled(2.0).wcet == 5
    assert task.scaled(4.0).wcet == 3  # ceil(10/4)
    assert task.scaled(2.0).period == 100


def test_component_spec_validation():
    with pytest.raises(ValueError):
        ComponentSpec("c", budget=10)  # bounded needs a period
    with pytest.raises(ValueError):
        ComponentSpec("c", budget=200, period=100)
    with pytest.raises(ValueError):
        ComponentSpec("c", budget=10, period=100, policy="lottery")
    background = ComponentSpec("bg")
    assert not background.bounded
    assert background.server_utilization == 0.0
    server = ComponentSpec("s", budget=25, period=100)
    assert server.bounded and server.server_utilization == 0.25


def test_pe_spec_validation():
    with pytest.raises(ValueError):
        PESpec("pe", top="fifo")
    with pytest.raises(ValueError):
        PESpec("pe", speed=0)


# ---------------------------------------------------------------------------
# bound functions
# ---------------------------------------------------------------------------


def test_sbf_periodic_hand_computed():
    # Θ=3, Π=10: blackout 2(Π−Θ)=14, then 3 per period, as late as possible
    assert sbf_periodic(3, 10, 0) == 0
    assert sbf_periodic(3, 10, 14) == 0
    assert sbf_periodic(3, 10, 15) == 1
    assert sbf_periodic(3, 10, 17) == 3
    assert sbf_periodic(3, 10, 20) == 3  # plateau until the next window
    assert sbf_periodic(3, 10, 24) == 3
    assert sbf_periodic(3, 10, 27) == 6
    # one full extra period adds exactly one budget
    assert sbf_periodic(3, 10, 37) == sbf_periodic(3, 10, 27) + 3


def test_sbf_degenerate_full_server():
    # budget == period: the server owns the CPU
    assert sbf_periodic(10, 10, 7) == 7
    assert sbf_full(7) == 7
    assert sbf_full(-3) == 0


def test_sbf_monotone_and_bounded_by_full():
    for t in range(0, 100):
        assert sbf_periodic(3, 10, t) <= sbf_periodic(3, 10, t + 1)
        assert sbf_periodic(3, 10, t) <= sbf_full(t)


def test_bdr_lower_bounds_periodic_sbf():
    alpha, delta = bdr_interface(3, 10)
    assert alpha == 0.3
    assert delta == 14
    for t in range(0, 200):
        assert sbf_bdr(alpha, delta, t) <= sbf_periodic(3, 10, t)


def test_dbf_hand_computed():
    tasks = [TaskSpec("a", period=10, wcet=2), TaskSpec("b", period=15, wcet=3)]
    assert dbf(tasks, 9) == 0       # nothing due yet
    assert dbf(tasks, 10) == 2      # a's first job
    assert dbf(tasks, 15) == 5      # + b's first job
    assert dbf(tasks, 30) == 2 * 3 + 3 * 2  # 3 a-jobs, 2 b-jobs
    # constrained deadline pulls demand earlier
    tight = [TaskSpec("a", period=10, wcet=2, deadline=5)]
    assert dbf(tight, 5) == 2
    assert dbf(tight, 14) == 2
    assert dbf(tight, 15) == 4


# ---------------------------------------------------------------------------
# component-level checks
# ---------------------------------------------------------------------------


def test_edf_component_schedulable_on_dedicated_core():
    comp = ComponentSpec("c", budget=100, period=100, policy="edf", tasks=(
        TaskSpec("a", period=100, wcet=40),
        TaskSpec("b", period=200, wcet=60),
    ))
    verdict = check_component(comp, supply=sbf_full)
    assert verdict.schedulable
    assert all(tv.schedulable and tv.guaranteed for tv in verdict.tasks)
    assert verdict.utilization == pytest.approx(0.7)


def test_edf_component_overload_marks_every_task():
    comp = ComponentSpec("c", budget=100, period=100, policy="edf", tasks=(
        TaskSpec("a", period=100, wcet=70),
        TaskSpec("b", period=100, wcet=60),
    ))
    verdict = check_component(comp, supply=sbf_full)
    assert not verdict.schedulable
    # under EDF overload is a taskset-wide property
    assert all(not tv.schedulable for tv in verdict.tasks)
    assert "dbf" in verdict.reason


def test_edf_component_respects_server_blackout():
    # demand fits a dedicated core but not a 50/100 server whose
    # worst-case blackout (100) swallows the deadline
    comp = ComponentSpec("c", budget=50, period=100, policy="edf", tasks=(
        TaskSpec("a", period=1000, wcet=40, deadline=90),
    ))
    assert check_component(comp, supply=sbf_full).schedulable
    assert not check_component(comp).schedulable
    # a relaxed deadline clears the blackout: sbf(190) = 50 >= 40
    relaxed = ComponentSpec("c", budget=50, period=100, policy="edf", tasks=(
        TaskSpec("a", period=1000, wcet=40, deadline=190),
    ))
    assert check_component(relaxed).schedulable


def test_fixed_priority_tda_orders_by_priority():
    comp = ComponentSpec("c", budget=100, period=100, policy="priority",
                         tasks=(
                             TaskSpec("lo", period=100, wcet=40, priority=2),
                             TaskSpec("hi", period=50, wcet=30, priority=1),
                         ))
    verdict = check_component(comp, supply=sbf_full)
    # hi: 30 <= 50 fits; lo: 40 + 2*30 = 100 <= 100 at t=100 fits
    assert verdict.schedulable
    # tighten lo's deadline below its finishing time and only lo fails
    comp2 = ComponentSpec("c", budget=100, period=100, policy="priority",
                          tasks=(
                              TaskSpec("lo", period=100, wcet=40, priority=2,
                                       deadline=90),
                              TaskSpec("hi", period=50, wcet=30, priority=1),
                          ))
    verdict2 = check_component(comp2, supply=sbf_full)
    assert not verdict2.schedulable
    by_name = {tv.task: tv for tv in verdict2.tasks}
    assert by_name["hi"].schedulable
    assert not by_name["lo"].schedulable


def test_rms_policy_uses_rate_monotonic_order():
    # same taskset, no explicit priorities: rms ranks by period
    comp = ComponentSpec("c", budget=100, period=100, policy="rms", tasks=(
        TaskSpec("slow", period=100, wcet=40),
        TaskSpec("fast", period=50, wcet=30),
    ))
    assert check_component(comp, supply=sbf_full).schedulable


def test_background_component_is_best_effort():
    comp = ComponentSpec("bg", tasks=(
        TaskSpec("a", period=100, wcet=99),
    ))
    verdict = check_component(comp)
    assert verdict.best_effort
    assert verdict.schedulable  # never blocks the system verdict
    assert all(not tv.guaranteed for tv in verdict.tasks)


def test_empty_component_trivially_schedulable():
    verdict = check_component(ComponentSpec("c", budget=10, period=100))
    assert verdict.schedulable and not verdict.best_effort


def test_truncated_hyperperiod_is_conservative():
    # coprime prime periods explode the hyperperiod past MAX_TEST_POINTS:
    # the verdict must be *unschedulable*, never a false guarantee
    comp = ComponentSpec("c", budget=100, period=100, policy="edf", tasks=(
        TaskSpec("a", period=49999, wcet=1),
        TaskSpec("b", period=50021, wcet=1),
    ))
    verdict = check_component(comp, supply=sbf_full)
    assert not verdict.schedulable
    assert "test points" in verdict.reason


# ---------------------------------------------------------------------------
# system-level checks
# ---------------------------------------------------------------------------


def _simple_system(budget_a=30, budget_b=40, top="priority"):
    return SystemSpec("sys", pes=(
        PESpec("pe0", top=top, components=(
            ComponentSpec("A", budget=budget_a, period=100, policy="edf",
                          priority=0, tasks=(
                              TaskSpec("a0", period=1000, wcet=80),
                          )),
            ComponentSpec("B", budget=budget_b, period=100, policy="edf",
                          priority=1, tasks=(
                              TaskSpec("b0", period=2000, wcet=100),
                          )),
        )),
    ))


def test_system_schedulable_end_to_end():
    verdict = check_system(_simple_system())
    assert verdict.schedulable
    assert set(verdict.guaranteed_tasks) == {"a0", "b0"}
    ok, reason = verdict.top_level["pe0"]
    assert ok
    assert verdict.task_verdict("a0").schedulable
    with pytest.raises(KeyError):
        verdict.task_verdict("missing")


def test_top_level_overload_cascades_to_components():
    # server utilization 0.7 + 0.7 > 1: the priority top level cannot
    # deliver B's budget, so B's (otherwise fine) taskset loses its
    # guarantee too
    verdict = check_system(_simple_system(budget_a=70, budget_b=70))
    assert not verdict.schedulable
    ok, reason = verdict.top_level["pe0"]
    assert not ok and "B" in reason
    b0 = verdict.task_verdict("b0")
    assert not b0.schedulable
    assert "top level" in b0.reason


def test_edf_top_level_uses_utilization_bound():
    assert check_system(_simple_system(top="edf")).schedulable
    verdict = check_system(_simple_system(60, 50, top="edf"))
    assert not verdict.schedulable
    ok, reason = verdict.top_level["pe0"]
    assert not ok and "utilization" in reason


def _starved_server_system():
    """The ``hog`` server fills the CPU, so the ``starved`` server's
    budget-delivery iteration grows by one budget per round and never
    converges — while staying far below its 1,000,000 period for all
    ``MAX_TEST_POINTS`` rounds."""
    return SystemSpec("starved", pes=(
        PESpec("pe0", top="priority", components=(
            ComponentSpec("hog", budget=10, period=10, priority=0, tasks=(
                TaskSpec("h0", period=10, wcet=10),
            )),
            ComponentSpec("starved", budget=10, period=1_000_000,
                          priority=1, tasks=(
                              TaskSpec("s0", period=2_000_000, wcet=10),
                          )),
        )),
    ))


def test_top_level_rejects_unconverged_server_response():
    # an unconverged fixed point bounds nothing, and s0 does miss a
    # deadline in simulation (cross_validate with horizon 2_000_011)
    verdict = check_system(_starved_server_system())
    assert not verdict.schedulable
    ok, reason = verdict.top_level["pe0"]
    assert not ok and "starved" in reason
    assert not verdict.task_verdict("s0").schedulable
    assert "s0" not in verdict.guaranteed_tasks


def test_pe_speed_scales_demand():
    # a 30/100 server guarantees sbf(1000) = 270: wcet 280 overflows on
    # a unit core but halves to 140 on a 2x core
    spec = SystemSpec("sys", pes=(
        PESpec("pe0", speed=1.0, components=(
            ComponentSpec("A", budget=30, period=100, policy="edf", tasks=(
                TaskSpec("a0", period=1000, wcet=280),
            )),
        )),
    ))
    fast = SystemSpec("sys", pes=(
        PESpec("pe0", speed=2.0, components=spec.pes[0].components),
    ))
    assert not check_system(spec).schedulable
    assert check_system(fast).schedulable


def test_multi_pe_verdicts_are_independent():
    spec = SystemSpec("sys", pes=(
        PESpec("good", components=(
            ComponentSpec("A", budget=50, period=100, policy="edf", tasks=(
                TaskSpec("g0", period=1000, wcet=100),
            )),
        )),
        PESpec("bad", components=(
            ComponentSpec("Z", budget=10, period=100, policy="edf", tasks=(
                TaskSpec("z0", period=1000, wcet=500),
            )),
        )),
    ))
    verdict = check_system(spec)
    assert not verdict.schedulable
    assert verdict.task_verdict("g0").schedulable
    assert not verdict.task_verdict("z0").schedulable
    assert verdict.guaranteed_tasks == ["g0"]
