"""Simulator wall-clock profiler: opt-in, zero-footprint when off."""

import pytest

from repro.kernel import Event, KernelError, Notify, Simulator, Wait, WaitFor


def _workload(sim):
    evt = Event("e")

    def producer():
        yield WaitFor(10)
        yield Notify(evt)
        yield WaitFor(5)

    def consumer():
        yield Wait(evt)
        yield WaitFor(1)

    sim.spawn(producer(), name="prod")
    sim.spawn(consumer(), name="cons")


def test_profiler_off_by_default():
    sim = Simulator()
    assert sim.profiler is None
    # the unprofiled hot path must not carry a swapped step function
    assert "_step" not in sim.__dict__
    with pytest.raises(KernelError):
        sim.profile_report()


def test_profiler_attributes_commands_and_processes():
    sim = Simulator()
    profiler = sim.enable_profiling()
    assert sim.profiler is profiler
    _workload(sim)
    sim.run()

    assert profiler.by_command["waitfor"][0] == 3
    assert profiler.by_command["wait"][0] == 1
    assert profiler.by_command["notify"][0] == 1
    # resumes: initial send(None) + one per yielded command result
    assert profiler.by_process["prod"][0] >= 3
    assert profiler.by_process["cons"][0] >= 2
    assert profiler.command_seconds >= 0
    assert profiler.process_seconds > 0

    snap = profiler.as_dict()
    assert snap["by_command"]["waitfor"]["calls"] == 3
    assert snap["by_process"]["prod"]["resumes"] >= 3

    report = sim.profile_report()
    assert "command" in report
    assert "process" in report
    assert "prod" in report
    assert "waitfor" in report


def test_profiler_does_not_change_simulation_results():
    plain = Simulator()
    _workload(plain)
    plain.run()

    profiled = Simulator()
    profiled.enable_profiling()
    _workload(profiled)
    profiled.run()

    assert profiled.now == plain.now


def test_enable_twice_reuses_profiler_and_disable_restores():
    sim = Simulator()
    profiler = sim.enable_profiling()
    assert sim.enable_profiling() is profiler
    assert "_step" in sim.__dict__
    sim.disable_profiling()
    assert "_step" not in sim.__dict__
    # profiler object (and its numbers) survive for reporting
    assert sim.profiler is profiler


def test_report_limit_truncates_rows():
    sim = Simulator()
    sim.enable_profiling()
    for i in range(6):
        def body():
            yield WaitFor(1)

        sim.spawn(body(), name=f"p{i}")
    sim.run()
    report = sim.profile_report(limit=2)
    listed = [line for line in report.splitlines() if line.startswith("p")]
    assert len(listed) <= 3  # 2 rows + possible "process" header word


def test_profiler_collects_commands_and_processes():
    sim = Simulator()
    profiler = sim.enable_profiling()
    _workload(sim)
    sim.run()
    assert profiler.by_command["waitfor"][0] == 3
    assert profiler.by_command["notify"][0] == 1
    assert profiler.by_process["prod"][0] >= 3
    assert "waitfor" in sim.profile_report()


@pytest.mark.usefixtures("kernel_engine")
def test_profiled_run_trace_is_byte_identical():
    def lines(profiled):
        sim = Simulator()
        if profiled:
            sim.enable_profiling()
        _workload(sim)
        sim.run()
        return [
            (r.time, r.category, r.actor, r.info, sorted(r.data.items()))
            for r in sim.trace.records
        ]

    assert lines(profiled=True) == lines(profiled=False)
