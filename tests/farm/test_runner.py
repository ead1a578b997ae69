"""Sweep execution: in-process loop, worker pool, per-run timeout."""

import multiprocessing

import pytest

from repro.farm import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunConfig,
    SweepSpec,
    run_sweep,
)


def add_spec(n=4):
    return SweepSpec("tests.farm.targets:add", base={"b": 10}).axis(
        "a", list(range(n))
    )


# -- serial ----------------------------------------------------------------

def test_serial_results_in_sweep_order():
    result = run_sweep(add_spec(4), processes=1)
    assert len(result) == 4
    assert all(r.ok for r in result)
    assert [r.value["sum"] for r in result] == [10, 11, 12, 13]
    assert result.varying == ["a"]


def test_serial_error_reported():
    spec = SweepSpec("tests.farm.targets:boom").point(message="nope")
    result = run_sweep(spec, processes=1)
    (run,) = result
    assert run.status == STATUS_ERROR
    assert "nope" in run.error
    assert run.elapsed > 0


def test_serial_failure_runs_once(tmp_path):
    marker = tmp_path / "marker"
    spec = SweepSpec("tests.farm.targets:flaky").point(
        marker=str(marker), fail_times=1
    )
    result = run_sweep(spec, processes=1)
    (run,) = result
    assert run.status == STATUS_ERROR
    assert "flaky failure #1" in run.error
    assert marker.read_text() == "attempt\n"


def test_plain_config_list_accepted():
    configs = [
        RunConfig("tests.farm.targets:add", {"a": a, "b": 1})
        for a in (1, 2)
    ]
    result = run_sweep(configs, processes=1)
    assert [r.value["sum"] for r in result] == [2, 3]


def test_progress_callback_sees_every_run():
    seen = []
    run_sweep(add_spec(3), processes=1, progress=seen.append)
    assert len(seen) == 3
    assert all(r.ok for r in seen)


# -- parallel --------------------------------------------------------------

def test_parallel_results_complete_and_ordered():
    result = run_sweep(add_spec(6), processes=2)
    assert [r.value["sum"] for r in result] == [10, 11, 12, 13, 14, 15]
    assert all(r.ok for r in result)


def test_parallel_error_reported():
    spec = SweepSpec("tests.farm.targets:boom").point(message="kaboom")
    result = run_sweep(spec, processes=2)
    (run,) = result
    assert run.status == STATUS_ERROR
    assert "kaboom" in run.error
    assert run.elapsed > 0


def test_parallel_worker_crash_detected(tmp_path):
    marker = tmp_path / "marker"
    spec = (
        SweepSpec("tests.farm.targets:add", base={"a": 1, "b": 1})
        .point(a=2)
    )
    configs = spec.expand()
    configs.append(RunConfig("tests.farm.targets:crasher",
                             {"code": 3, "marker": str(marker)}))
    result = run_sweep(configs, processes=2)
    by_target = {r.config.target.rpartition(":")[2]: r for r in result}
    assert by_target["crasher"].status == STATUS_CRASHED
    assert "exited" in by_target["crasher"].error
    assert by_target["crasher"].elapsed > 0
    assert by_target["add"].ok
    # the crashed point is reported, not run again
    assert marker.read_text() == "attempt\n"


def test_parallel_timeout_kills_hung_run(tmp_path):
    marker = tmp_path / "marker"
    configs = [
        RunConfig("tests.farm.targets:sleeper",
                  {"seconds": 30.0, "marker": str(marker)}),
        RunConfig("tests.farm.targets:add", {"a": 1, "b": 2}),
    ]
    result = run_sweep(configs, processes=2, timeout=1.0)
    assert result[0].status == STATUS_TIMEOUT
    assert "1.0" in result[0].error
    assert result[0].elapsed >= 1.0
    assert result[1].ok
    assert result.wall_seconds < 20.0
    # the timed-out point is reported, not run again
    assert marker.read_text() == "attempt\n"


def test_parallel_failure_runs_once(tmp_path):
    marker = tmp_path / "marker"
    configs = [RunConfig("tests.farm.targets:flaky",
                         {"marker": str(marker), "fail_times": 1})]
    (run,) = run_sweep(configs, processes=2)
    assert run.status == STATUS_ERROR
    assert "flaky failure #1" in run.error
    assert marker.read_text() == "attempt\n"


@pytest.mark.parametrize("processes", [1, None])
def test_timeout_holds_with_one_worker(processes):
    """A timeout runs even a one-worker sweep in a worker process."""
    spec = SweepSpec("tests.farm.targets:sleeper").point(seconds=5.0)
    result = run_sweep(spec, processes=processes, timeout=1.0)
    (run,) = result
    assert run.status == STATUS_TIMEOUT
    assert run.elapsed >= 1.0
    assert result.wall_seconds < 4.0


@pytest.mark.parametrize("timeout", [0, -1, float("nan")])
@pytest.mark.parametrize("parallel", [False, True])
def test_timeout_must_be_positive(timeout, parallel):
    with pytest.raises(ValueError, match="timeout must be None or > 0"):
        run_sweep(add_spec(2), processes=2 if parallel else 1,
                  timeout=timeout)


@pytest.mark.parametrize("processes", [0, -3])
def test_processes_must_be_positive(processes):
    with pytest.raises(ValueError, match="processes must be None or >= 1"):
        run_sweep(add_spec(2), processes=processes)


def test_without_process_support_only_an_untimed_sweep_runs(monkeypatch):
    """No worker processes: in-process fallback, but never a dropped
    timeout."""
    def no_processes(*args, **kwargs):
        raise OSError("no process support")

    monkeypatch.setattr(multiprocessing, "get_context", no_processes)
    result = run_sweep(add_spec(2), processes=2)
    assert [r.value["sum"] for r in result] == [10, 11]
    with pytest.raises(OSError, match="no process support"):
        run_sweep(add_spec(2), processes=1, timeout=1.0)


def test_parallel_unpicklable_result_is_an_error():
    configs = [RunConfig("tests.farm.targets:generator_result")]
    result = run_sweep(configs, processes=2)
    (run,) = result
    assert run.status == STATUS_ERROR
    assert "pickle" in run.error.lower()


# -- result aggregation ----------------------------------------------------

def test_rows_and_exports(tmp_path):
    result = run_sweep(add_spec(2), processes=1)
    rows = result.rows()
    assert rows[0]["a"] == 0
    assert rows[0]["sum"] == 10
    assert rows[0]["status"] == STATUS_OK

    table = result.format_table(title="adds")
    assert "adds" in table and "sum" in table

    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    result.to_json(json_path)
    result.to_csv(csv_path)
    assert '"n_ok": 2' in json_path.read_text()
    assert csv_path.read_text().splitlines()[0].startswith("a,")


@pytest.mark.parametrize("n", [1, 5])
def test_summary_counts(n):
    result = run_sweep(add_spec(n), processes=1)
    assert f"{n} runs" in result.summary()
    assert f"{n} ok" in result.summary()
