"""Causal span reconstruction: lifecycle jobs, blocks, wake edges.

Every test exercises the armed span sources (``RTOSModel.trace_spans``)
the way the report pipeline consumes them.
"""

from functools import partial

import pytest

from repro.apps import fig3
from repro.apps.inversion import run_fault_demo, run_inversion, run_mc_demo
from repro.kernel import Simulator, WaitFor
from repro.kernel.trace import Trace
from repro.obs.analyzers import (
    InversionDetector,
    LatencyAnalyzer,
    MissSummary,
    ModeTracker,
    WorstCaseTracker,
)
from repro.obs.spans import BUFFER_RECORDS, SpanBuilder, build_spans
from repro.rtos import PERIODIC, RTOSModel

pytestmark = pytest.mark.usefixtures("kernel_engine")


def _periodic_model(spans=True, horizon=4_000, watch=None, faults=None):
    sim = Simulator()
    os_ = RTOSModel(sim, sched="priority")
    if spans:
        os_.trace_spans(True)
    task = os_.task_create("tp", PERIODIC, 1_000, 300, priority=1)
    if watch is not None:
        os_.task_watch(task, policy=watch)

    def body():
        while True:
            yield from os_.time_wait(300)
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(task, body()), name="tp")
    if faults is not None:
        from repro.faults.inject import FaultInjector
        from repro.faults.plan import FaultPlan

        FaultInjector(sim, FaultPlan(faults), seed=1).arm(model=os_)

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run(until=horizon)
    return sim


def test_periodic_jobs_reconstructed():
    sim = _periodic_model()
    builder = build_spans(sim.trace.records)
    jobs = [j for j in builder.jobs if j.task == "tp"]
    complete = [j for j in jobs if j.outcome == "complete"]
    assert len(complete) == 4
    for job in complete:
        assert job.response == 300
        assert job.sched_latency == 0
        assert job.exec_time == 300
        assert not job.missed


def test_armed_stream_closes_jobs_exactly():
    # armed endcycle records carry the job boundary; release times are
    # the task period grid
    sim = _periodic_model()
    builder = build_spans(sim.trace.records)
    complete = [j for j in builder.jobs if j.outcome == "complete"]
    assert [j.release for j in complete] == [0, 1_000, 2_000, 3_000]
    assert [j.end for j in complete] == [300, 1_300, 2_300, 3_300]


def test_unarmed_stream_still_reconstructs():
    sim = _periodic_model(spans=False)
    builder = build_spans(sim.trace.records)
    complete = [j for j in builder.jobs if j.outcome == "complete"]
    # without armed endcycle records the closer infers ends from the
    # last exec segment; responses must still be exact
    assert len(complete) >= 3
    assert all(j.response == 300 for j in complete)


def test_finish_flushes_open_spans():
    sim = _periodic_model(horizon=3_100)  # cut mid-job
    builder = SpanBuilder(keep=True)
    for record in sim.trace.records:
        builder.emit(record)
    builder.finish(sim.now)
    open_jobs = [j for j in builder.jobs if j.outcome == "open"]
    assert len(open_jobs) == 1
    assert open_jobs[0].release == 3_000


def test_notify_block_edge_names_source():
    # producer/consumer over an RTOS event: the consumer's block span
    # must end with a notify edge naming the producer
    sim = Simulator()
    os_ = RTOSModel(sim, sched="priority")
    os_.trace_spans(True)
    evt = os_.event_new("data.evt")
    from repro.rtos import APERIODIC

    prod = os_.task_create("prod", APERIODIC, 0, 10, priority=2)
    cons = os_.task_create("cons", APERIODIC, 0, 10, priority=1)

    def prod_body():
        yield from os_.task_activate(prod)
        yield from os_.time_wait(50)
        yield from os_.event_notify(evt)
        yield from os_.task_terminate()

    def cons_body():
        yield from os_.task_activate(cons)
        yield from os_.event_wait(evt)
        yield from os_.time_wait(5)
        yield from os_.task_terminate()

    sim.spawn(os_.task_body(prod, prod_body()), name="prod")
    sim.spawn(os_.task_body(cons, cons_body()), name="cons")

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    sim.run()

    builder = build_spans(sim.trace.records)
    blocks = [b for b in builder.blocks if b.task == "cons"
              and b.edge is not None and b.edge.kind == "notify"]
    assert blocks, "consumer block with notify edge not reconstructed"
    edge = blocks[0].edge
    assert edge.source == "prod"
    assert edge.event == "data.evt"
    assert blocks[0].duration == 50


def test_watchdog_kill_closes_job_with_terminal_edge():
    # infeasible period/wcet + kill watchdog: the span stream must show
    # the killed job with a watchdog edge, not leave it dangling
    sim = _periodic_model(horizon=2_500, watch="kill", faults=(
        {"kind": "exec_jitter", "task": "tp", "scale": 8.0},
    ))
    builder = build_spans(sim.trace.records)
    killed = [j for j in builder.jobs if j.outcome == "killed"]
    assert killed, "watchdog kill did not close the job span"
    assert killed[0].missed


def test_budget_overrun_alone_is_not_a_missed_job():
    # every job runs 300 against a budget of 200 and still ends 700
    # before its deadline: the watchdog logs overruns, not misses
    sim = Simulator()
    os_ = RTOSModel(sim, sched="priority")
    os_.trace_spans(True)
    task = os_.task_create("tp", PERIODIC, 1_000, 300, priority=1)
    monitor = os_.task_watch(task, policy="log", budget=200)

    def body():
        while True:
            yield from os_.time_wait(300)
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(task, body()), name="tp")
    os_.spawn_boot()
    sim.run(until=3_500)
    faults = [r.info for r in sim.trace.by_category("fault")]
    assert faults.count("budget_overrun") == 4
    assert "deadline_miss" not in faults
    assert monitor.miss_counts.get(task.uid, 0) == 0
    jobs = build_spans(sim.trace.records).jobs
    assert [job.outcome for job in jobs] == ["complete"] * 4
    assert not any(job.missed for job in jobs)


def test_injected_crash_closes_spans():
    sim = _periodic_model(horizon=4_000, faults=(
        {"kind": "task_crash", "task": "tp", "at": 1_100},
    ))
    builder = build_spans(sim.trace.records)
    builder.finish(sim.now)
    outcomes = [j.outcome for j in builder.jobs if j.task == "tp"]
    assert "killed" in outcomes
    # after the crash no further jobs may be open
    assert outcomes.count("open") == 0


def test_fault_demo_kill_attribution():
    result = run_fault_demo()
    builder = build_spans(result.trace.records)
    builder.finish(result.sim.now)
    killed = {j.task: j for j in builder.jobs if j.outcome == "killed"}
    assert "t1" in killed, "injected crash not visible as killed job"
    # watchdog kills of the overloaded t3 also close jobs
    assert "t3" in killed


def test_blocked_time_accumulates_into_jobs():
    result = run_inversion(rounds=1)
    builder = build_spans(result.trace.records)
    builder.finish(result.sim.now)
    hi_blocks = [b for b in builder.blocks if b.task == "hi"
                 and b.edge is not None and b.edge.kind == "notify"]
    assert len(hi_blocks) == 1
    assert hi_blocks[0].duration == 60
    assert hi_blocks[0].edge.source == "lo"


def test_stream_and_offline_agree():
    # feeding the builder record-by-record as a sink must equal the
    # offline batch build
    sim = _periodic_model()
    offline = build_spans(sim.trace.records)
    online = SpanBuilder(keep=True)
    for record in sim.trace.records:
        online.emit(record)
    online.finish()
    assert [
        (j.task, j.release, j.end, j.outcome) for j in online.jobs
    ] == [
        (j.task, j.release, j.end, j.outcome) for j in offline.jobs
    ]


def test_builder_is_o1_memory_when_not_keeping():
    sim = _periodic_model()
    builder = SpanBuilder()  # keep=False: the sink default
    for record in sim.trace.records:
        builder.emit(record)
    builder.finish()
    assert builder.jobs == []
    assert builder.blocks == []
    assert builder.emitted == len(sim.trace.records)


# ----------------------------------------------------------------------
# the buffered builder against the offline build
# ----------------------------------------------------------------------

N = BUFFER_RECORDS
CUTS = (0, 1, N - 1, N, N + 1, 3 * N + 7)

# the bundled obs models, the demos run long enough to pass 3N+7 records
RECORDED_MODELS = {
    "fig3-arch": fig3.run_architecture,
    "fig3-spec": fig3.run_unscheduled,
    "pi-demo": partial(run_inversion, rounds=30),
    "pi-demo-pip": partial(run_inversion, rounds=30, pi=True),
    "fault-demo": partial(run_fault_demo, horizon=480_000),
    "mc-demo": partial(run_mc_demo, horizon=240_000),
}


def _analyzers():
    return (LatencyAnalyzer(), InversionDetector(), WorstCaseTracker(),
            MissSummary(), ModeTracker())


def _replay(records, sink):
    """Emit ``records`` into ``sink`` from a kernel process, each at its
    own time, and run the simulation to its end."""
    sim = Simulator(trace=Trace(sink=sink))

    def feed():
        for record in records:
            if record.time > sim.now:
                yield WaitFor(record.time - sim.now)
            sink.emit(record)

    sim.spawn(feed(), name="replay")
    sim.run()


def _state(builder):
    # the analyzers first: every builder read below drains the buffer
    analyzers = [analyzer.as_dict() for analyzer in builder.analyzers]
    return {
        "analyzers": analyzers,
        "emitted": builder.emitted,
        "jobs": [job.as_dict() for job in builder.jobs],
        "blocks": [block.as_dict() for block in builder.blocks],
        "open": {name: job.as_dict()
                 for name, job in builder.open_jobs().items()},
        "tasks": builder.tasks,
    }


@pytest.mark.parametrize("model", sorted(RECORDED_MODELS))
def test_buffered_builder_matches_the_offline_build_at_every_cut(model):
    trace = Trace()
    RECORDED_MODELS[model](trace=trace)
    records = list(trace.records)
    assert model.startswith("fig3") or len(records) > 3 * N + 7
    for cut in sorted({min(cut, len(records)) for cut in CUTS}):
        stream = records[:cut]
        live = SpanBuilder(*_analyzers(), keep=True)
        _replay(stream, live)
        # read right after sim.run, without finish(): the run-end flush
        # made the analyzers current
        state = _state(live)
        assert state["emitted"] == cut
        stepwise = SpanBuilder(*_analyzers(), keep=True)
        for record in stream:
            stepwise.emit(record)
            stepwise.flush()
        assert state == _state(stepwise), (model, cut)
        offline = build_spans(stream, *_analyzers())
        live.finish(stream[-1].time if stream else None)
        assert _state(live) == _state(offline), (model, cut)


def test_reads_drain_records_fed_by_hand():
    # fewer records than the buffer holds: nothing drains on emit, but
    # every read of the builder does
    records = _periodic_model(horizon=100_000).trace.records[:N - 1]
    assert len(records) == N - 1
    builder = SpanBuilder(keep=True)
    for record in records:
        builder.emit(record)
    assert builder.emitted == N - 1
    reference = build_spans(records)
    assert builder.tasks == reference.tasks
    assert [job.as_dict() for job in builder.jobs] == [
        job.as_dict() for job in reference.jobs if job.outcome != "open"]
