"""Property-based tests of hierarchical-scheduling invariants.

The budget-accounting contract the analysis leans on, for *any*
component configuration and taskset:

1. under immediate preemption a bounded component's per-window
   consumption never exceeds its budget (supply is never overdrawn);
2. total consumption equals the sum of window consumptions, and CPU
   serialization still holds across components;
3. the linear BDR supply bound never exceeds the exact periodic-server
   ``sbf``, and both bounds are monotone in ``t``;
4. charging a run segment to a server splits it across windows exactly
   as charging it one time unit at a time would, wherever the run is
   settled in between.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedulability import (
    bdr_interface,
    sbf_bdr,
    sbf_full,
    sbf_periodic,
)
from repro.kernel import Simulator
from repro.rtos import PERIODIC, Component, HierarchicalScheduler, RTOSModel

# a component spec: (budget, period-slack, [(task wcet, task period)...])
component_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=400),     # budget
        st.integers(min_value=0, max_value=600),     # period - budget
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=500),       # wcet
                st.integers(min_value=500, max_value=2000),    # period
            ),
            min_size=1, max_size=2,
        ),
    ),
    min_size=1, max_size=3,
)

TOPS = st.sampled_from(["priority", "edf"])
LOCALS = st.sampled_from(["priority", "edf", "rms"])


def _run_hierarchy(specs, top, local):
    sim = Simulator()
    components = [
        Component(f"c{i}", budget=budget, period=budget + slack,
                  priority=i, policy=local)
        for i, (budget, slack, _) in enumerate(specs)
    ]
    sched = HierarchicalScheduler(components, top=top)
    os_ = RTOSModel(sim, sched=sched, preemption="immediate", name="pe.os")
    sim.trace.enabled = False
    for i, (_, _, tasks) in enumerate(specs):
        for j, (wcet, period) in enumerate(tasks):
            wcet = min(wcet, period)
            task = os_.task_create(f"c{i}t{j}", PERIODIC, period, wcet,
                                   priority=j)
            sched.assign(task, components[i])

            def body(wcet=wcet):
                for _ in range(3):
                    yield from os_.time_wait(wcet)
                    yield from os_.task_endcycle()

            sim.spawn(os_.task_body(task, body()), name=task.name)
    os_.start()
    sim.run(until=20_000)
    return sim, os_, components


@given(component_specs, TOPS, LOCALS)
@settings(max_examples=40, deadline=None)
def test_budget_consumption_never_exceeds_supply(specs, top, local):
    sim, os_, components = _run_hierarchy(specs, top, local)
    for comp in components:
        budget = comp.budget
        for window, used in comp.stats.window_consumption.items():
            # (1) exact enforcement: no window is overdrawn
            assert 0 <= used <= budget, (
                f"{comp.name}: window {window} consumed {used} > "
                f"budget {budget}"
            )
        # (2) the aggregate view agrees with the per-window ledger
        assert comp.stats.total_consumed == sum(
            comp.stats.window_consumption.values()
        )
        if comp.stats.window_consumption:
            assert comp.stats.max_window_consumption <= budget
    # (2) components serialize on one CPU: total consumption cannot
    # exceed elapsed time
    total = sum(c.stats.total_consumed for c in components)
    assert total <= sim.now


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=200, deadline=None)
def test_bdr_bound_below_periodic_sbf(budget, slack, t):
    period = budget + slack
    alpha, delta = bdr_interface(budget, period)
    exact = sbf_periodic(budget, period, t)
    # (3) the linear abstraction is a true lower bound...
    assert sbf_bdr(alpha, delta, t) <= exact + 1e-9
    # ...both are monotone and below the dedicated-CPU supply
    assert exact <= sbf_periodic(budget, period, t + 1)
    assert exact <= sbf_full(t)
    assert sbf_bdr(alpha, delta, t) <= sbf_bdr(alpha, delta, t + 1)


@st.composite
def run_segments(draw):
    """``(period, start, end, split)``: a run segment inside one server
    window, ending exactly on a window boundary, or spanning several
    windows, plus a point in it where the run is settled."""
    period = draw(st.integers(min_value=1, max_value=60))
    start = draw(st.integers(min_value=0, max_value=10 * period))
    to_boundary = period - start % period
    shape = draw(st.sampled_from(["inside", "boundary", "span"]))
    if shape == "inside":
        length = draw(st.integers(min_value=0, max_value=to_boundary - 1))
    else:
        length = to_boundary + period * draw(st.integers(0, 3))
        if shape == "span":
            length += draw(st.integers(min_value=1, max_value=period))
    end = start + length
    split = draw(st.integers(min_value=start, max_value=end))
    return period, start, end, split


@given(run_segments())
@settings(max_examples=300, deadline=None)
def test_charge_splits_like_a_unit_by_unit_ledger(segment):
    period, start, end, split = segment
    reference = Counter(t // period for t in range(start, end))

    whole = Component("c", budget=period, period=period)
    whole._charge(start, end)
    assert whole.stats.window_consumption == reference
    assert whole.stats.total_consumed == end - start

    settled = Component("c", budget=period, period=period)
    settled._charge(start, split)
    settled._charge(split, end)
    assert settled.stats.window_consumption == reference
