"""Golden-trace regression for the hierarchically scheduled multi-PE path.

A two-PE system — a controller PE with a flat priority scheduler and a
2x-speed DSP PE whose RTOS runs the two-level hierarchical scheduler —
exchanging requests over a shared bus with interrupt-driven drivers in
both directions. The DSP's worker lives in a 600/1000 resource server
small enough to throttle mid-computation, so the recording pins the
whole budget-enforcement timeline: dispatch, budget preemption,
replenishment, resumed compute, reply transfer, ISR delivery.

A second set of recordings pins one PE with two bounded servers (a
fixed-priority and an EDF local policy) and background tasks, under
both top-level policies and both preemption modes: server arbitration
by window deadline and by priority, budget carried across window
boundaries and step-mode overrun.

Each recording also pins the work behind it — ``sim.stats`` and each
PE's dispatcher counters — as ``test_golden_traces.py`` does.

To regenerate after an *intentional* semantic change, run::

    PYTHONPATH=src python tests/integration/test_multi_pe_golden.py
"""

import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "multi_pe_hier.trace"
BUDGET_CASES = [
    (top, preemption)
    for top in ("edf", "priority")
    for preemption in ("step", "immediate")
]

pytestmark = pytest.mark.usefixtures("kernel_engine")

RTOS_COUNTS = ("dispatches", "context_switches", "preemptions")
#: ``sim.stats`` of the two-PE recording, then RTOS_COUNTS per PE
HIER_COUNTS = dict(
    spawned=6, steps=62, notifications=6, timer_fires=49, deltas=23,
    timesteps=36,
)
HIER_RTOS_COUNTS = {
    "ctrl": dict(dispatches=4, context_switches=0, preemptions=0),
    "dsp": dict(dispatches=14, context_switches=13, preemptions=9),
}
#: ``sim.stats`` plus RTOS_COUNTS of each budget-server recording
BUDGET_COUNTS = {
    ("edf", "step"): dict(
        spawned=7, steps=135, notifications=0, timer_fires=165, deltas=45,
        timesteps=152, dispatches=45, context_switches=44, preemptions=21,
    ),
    ("edf", "immediate"): dict(
        spawned=7, steps=166, notifications=0, timer_fires=173, deltas=55,
        timesteps=134, dispatches=55, context_switches=54, preemptions=27,
    ),
    ("priority", "step"): dict(
        spawned=7, steps=136, notifications=0, timer_fires=167, deltas=46,
        timesteps=154, dispatches=46, context_switches=45, preemptions=22,
    ),
    ("priority", "immediate"): dict(
        spawned=7, steps=162, notifications=0, timer_fires=169, deltas=52,
        timesteps=134, dispatches=52, context_switches=51, preemptions=25,
    ),
}


def rtos_counts(os_model):
    return {key: getattr(os_model.metrics, key) for key in RTOS_COUNTS}


def format_trace(trace):
    """Canonical line-per-record rendering used by the recordings."""
    lines = []
    for r in trace:
        data = ",".join(f"{k}={r.data[k]}" for k in sorted(r.data))
        lines.append(f"{r.time}|{r.category}|{r.actor}|{r.info}|{data}")
    return "\n".join(lines) + "\n"


def build_system(n_requests=3):
    from repro.channels import RTOSSemaphore
    from repro.platform import Architecture, BusLink, InterruptDriver, IrqLine
    from repro.rtos import Component

    arch = Architecture(name="hier-two-pe")
    sim = arch.sim
    bus = arch.add_bus("bus", width=4, cycle_time=10)
    ctrl = arch.add_pe("ctrl", sched="priority")
    dsp = arch.add_pe(
        "dsp", sched="priority", preemption="immediate", speed=2.0,
        components=[Component("rt", budget=600, period=1000, priority=0)],
    )

    to_dsp_line = IrqLine(sim, "to-dsp")
    to_ctrl_line = IrqLine(sim, "to-ctrl")
    to_dsp = BusLink(sim, bus, to_dsp_line, name="to-dsp", priority=1)
    to_ctrl = BusLink(sim, bus, to_ctrl_line, name="to-ctrl", priority=2)

    dsp_rx = InterruptDriver(
        to_dsp, RTOSSemaphore(dsp.os, 0, "dsp-rx-sem"), os_model=dsp.os
    )
    ctrl_rx = InterruptDriver(
        to_ctrl, RTOSSemaphore(ctrl.os, 0, "ctrl-rx-sem"), os_model=ctrl.os
    )
    dsp.add_driver(dsp_rx, to_dsp_line)
    ctrl.add_driver(ctrl_rx, to_ctrl_line)

    results = []

    def ctrl_body():
        for i in range(n_requests):
            yield from ctrl.os.time_wait(500)  # prepare request
            yield from to_dsp.send({"req": i}, nbytes=8, master="ctrl")
            reply = yield from ctrl_rx.recv()
            results.append((reply["req"], reply["answer"], sim.now))

    def dsp_body():
        # 2400 reference units of compute, 1200 on this 2x core — still
        # twice the server budget, so every request throttles the server
        compute = dsp.scaled_wcet(2400)
        for _ in range(n_requests):
            request = yield from dsp_rx.recv()
            yield from dsp.os.time_wait(compute)
            answer = request["req"] * request["req"]
            yield from to_ctrl.send(
                {"req": request["req"], "answer": answer},
                nbytes=8, master="dsp",
            )

    def dsp_background():
        # unassigned: runs in the implicit background server, soaking up
        # the slack the bounded component may not use
        for _ in range(4):
            yield from dsp.os.time_wait(1_000)

    ctrl.add_task("ctrl-main", ctrl_body(), priority=1)
    dsp.add_task("dsp-main", dsp_body(), priority=1, component="rt")
    dsp.add_task("dsp-bg", dsp_background(), priority=5)
    return arch, results, bus, (ctrl, dsp)


def test_trace_matches_golden():
    assert GOLDEN_PATH.exists(), f"missing golden recording {GOLDEN_PATH}"
    arch, results, bus, (ctrl, dsp) = build_system()
    arch.run()
    actual = format_trace(arch.trace)
    expected = GOLDEN_PATH.read_text()
    assert actual == expected, (
        f"hierarchical multi-PE timeline diverged from the golden "
        f"recording ({GOLDEN_PATH})"
    )
    # the recording must actually exercise the hierarchy: the DSP's
    # server throttled, replenished, and never overdrew its budget
    comp = dsp.component("rt")
    assert comp.stats.throttles > 0
    assert comp.stats.replenishments > 0
    assert comp.stats.max_window_consumption <= comp.budget
    assert [(req, ans) for req, ans, _ in results] == [(0, 0), (1, 1), (2, 4)]
    assert bus.transfer_count == 2 * len(results)
    assert arch.sim.stats == HIER_COUNTS
    assert {pe.name: rtos_counts(pe.os) for pe in (ctrl, dsp)} == (
        HIER_RTOS_COUNTS
    )


def _budget_golden_path(top, preemption):
    return GOLDEN_DIR / f"hier_budget_{top}_{preemption}.trace"


def build_budget_system(top, preemption):
    """One PE, two bounded servers plus background tasks.

    Jobs execute in delay steps of uneven length, so step-mode budget
    enforcement overruns by a visible amount. ``ctl-hi`` is released
    every 750, so it also arrives in the second half of a ``ctl``
    window, where the EDF top level sees both servers with the same
    window deadline and the registration order breaks the tie.
    """
    from repro.platform import Architecture
    from repro.rtos import PERIODIC, Component

    arch = Architecture(name=f"hier-{top}-{preemption}")
    pe = arch.add_pe(
        "cpu", sched=top, preemption=preemption,
        components=[
            Component("ctl", budget=300, period=1000, policy="priority",
                      priority=0),
            Component("dsp", budget=250, period=500, policy="edf",
                      priority=1),
        ],
    )
    os_model = pe.os

    def periodic(wcet, step, cycles):
        def body():
            for _ in range(cycles):
                left = wcet
                while left > 0:
                    chunk = min(step, left)
                    yield from os_model.time_wait(chunk)
                    left -= chunk
                yield from os_model.task_endcycle()

        return body()

    def background(step, count):
        def body():
            for _ in range(count):
                yield from os_model.time_wait(step)

        return body()

    pe.add_task("ctl-hi", periodic(120, 40, 8), PERIODIC, period=750,
                wcet=120, priority=0, component="ctl")
    pe.add_task("ctl-lo", periodic(260, 90, 3), PERIODIC, period=2000,
                wcet=260, priority=1, component="ctl")
    pe.add_task("dsp-a", periodic(150, 60, 8), PERIODIC, period=700,
                wcet=150, component="dsp")
    pe.add_task("dsp-b", periodic(200, 110, 4), PERIODIC, period=1500,
                wcet=200, component="dsp")
    pe.add_task("bg-log", background(130, 20), priority=5)
    pe.add_task("bg-idle", background(75, 30), priority=6)
    return arch, pe


@pytest.mark.parametrize("top,preemption", BUDGET_CASES)
def test_budget_servers_match_golden(top, preemption):
    path = _budget_golden_path(top, preemption)
    assert path.exists(), f"missing golden recording {path}"
    arch, pe = build_budget_system(top, preemption)
    arch.run(until=6000)
    assert format_trace(arch.trace) == path.read_text(), (
        f"budget-server timeline diverged from the golden recording "
        f"({path})"
    )
    assert {**arch.sim.stats, **rtos_counts(pe.os)} == (
        BUDGET_COUNTS[top, preemption]
    )
    ctl, dsp = pe.component("ctl"), pe.component("dsp")
    # both servers ran out of budget and were refilled; budgets are
    # fixed when the components are built
    for comp in (ctl, dsp):
        assert comp.stats.throttles > 0
        assert comp.stats.replenishments > 0
    assert (ctl.budget, dsp.budget) == (300, 250)
    if preemption == "immediate":
        assert ctl.stats.max_window_consumption <= ctl.budget
        assert dsp.stats.max_window_consumption <= dsp.budget


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    arch, _, _, _ = build_system()
    arch.run()
    GOLDEN_PATH.write_text(format_trace(arch.trace))
    print(f"wrote {GOLDEN_PATH}")
    for top, preemption in BUDGET_CASES:
        arch, _ = build_budget_system(top, preemption)
        arch.run(until=6000)
        path = _budget_golden_path(top, preemption)
        path.write_text(format_trace(arch.trace))
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
