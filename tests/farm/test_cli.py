"""``python -m repro.farm`` CLI smoke tests (in-process, tiny sweeps)."""

import json

import pytest

from repro.farm.__main__ import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_taskset_serial_sweep(tmp_path, capsys):
    code, out = run_cli([
        "taskset", "--policies", "priority,fifo", "--preemption", "step",
        "--horizon", "1000000", "--jobs", "1",
        "--json", str(tmp_path / "out.json"),
        "--csv", str(tmp_path / "out.csv"),
    ], capsys)
    assert code == 0
    assert "2 runs, 2 ok" in out
    assert "priority" in out and "fifo" in out

    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["n_ok"] == 2
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert "policy" in header and "misses" in header


def test_spec_file_sweep(tmp_path, capsys):
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(json.dumps({
        "target": "tests.farm.targets:add",
        "base": {"b": 40},
        "axes": {"a": [1, 2]},
    }))
    code, out = run_cli([
        "spec", str(spec_file), "--jobs", "1", "--quiet",
    ], capsys)
    assert code == 0
    assert "2 runs, 2 ok" in out


def test_missing_spec_file_exits_2(tmp_path, capsys):
    code = main(["spec", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read sweep spec" in err
    assert "nope.json" in err


def test_corrupt_spec_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["spec", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid sweep configuration" in err


def test_spec_without_target_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"axes": {"a": [1]}}))
    code = main(["spec", str(bad)])
    assert code == 2
    assert "invalid sweep configuration" in capsys.readouterr().err


def test_failures_exit_nonzero(tmp_path, capsys):
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(json.dumps({
        "target": "tests.farm.targets:boom",
        "axes": {"message": ["bad"]},
    }))
    code = main([
        "spec", str(spec_file), "--jobs", "1", "--quiet",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err


@pytest.mark.parametrize("steps", ["0", "10000,-1"])
def test_taskset_rejects_a_non_positive_granularity(capsys, steps):
    with pytest.raises(SystemExit) as excinfo:
        main(["taskset", "--granularity", steps, "--jobs", "1"])
    assert excinfo.value.code == 2
    assert "delay steps must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["0", "-1", "nan"])
def test_timeout_must_be_positive(capsys, seconds):
    with pytest.raises(SystemExit) as excinfo:
        main(["taskset", "--timeout", seconds, "--jobs", "2"])
    assert excinfo.value.code == 2
    assert "timeout must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("taskset", "--jobs", "0"),
    ("taskset", "--jobs", "-3"),
    ("vocoder", "--frames", "0"),
    ("table1", "--frames", "-1"),
    ("taskset", "--horizon", "0"),
    ("campaign", "--horizon", "-5"),
    ("mc", "--horizon", "0"),
])
def test_sizes_must_be_positive(capsys, command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be an integer >= 1: '{value}'" in err


@pytest.mark.parametrize("flag", ["--retries", "--backoff"])
def test_retry_flags_are_refused(capsys, flag):
    """Every point runs once; there is no retry to configure."""
    with pytest.raises(SystemExit) as excinfo:
        main(["taskset", flag, "1"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
