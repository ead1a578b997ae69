"""``python -m repro.farm`` CLI smoke tests (serial, tiny sweeps)."""

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
        "--horizon", "1000000", "--serial",
        "--cache-dir", str(tmp_path / "cache"),
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


def test_second_invocation_is_cached(tmp_path, capsys):
    args = [
        "taskset", "--policies", "priority", "--preemption", "step",
        "--horizon", "1000000", "--serial",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    code, _ = run_cli(args, capsys)
    assert code == 0
    code, out = run_cli(args, capsys)
    assert code == 0
    assert "1 from cache" in out


def test_no_cache_and_clear_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    base = [
        "taskset", "--policies", "priority", "--preemption", "step",
        "--horizon", "1000000", "--serial", "--cache-dir", cache_dir,
    ]
    run_cli(base, capsys)
    code, out = run_cli(base + ["--no-cache"], capsys)
    assert code == 0
    assert "from cache" not in out
    code, out = run_cli(base + ["--clear-cache"], capsys)
    assert code == 0
    assert "cleared 1 cached results" in out


def test_spec_file_sweep(tmp_path, capsys):
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(json.dumps({
        "target": "tests.farm.targets:add",
        "base": {"b": 40},
        "axes": {"a": [1, 2]},
    }))
    code, out = run_cli([
        "spec", str(spec_file), "--serial", "--no-cache", "--quiet",
    ], capsys)
    assert code == 0
    assert "2 runs, 2 ok" in out


def test_cache_dir_that_is_a_file_exits_2(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    code = main(["taskset", "--serial", "--cache-dir", str(not_a_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "not a directory" in err


def test_missing_spec_file_exits_2(tmp_path, capsys):
    code = main(["spec", str(tmp_path / "nope.json"), "--no-cache"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read sweep spec" in err
    assert "nope.json" in err


def test_corrupt_spec_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["spec", str(bad), "--no-cache"])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid sweep configuration" in err


def test_spec_without_target_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"axes": {"a": [1]}}))
    code = main(["spec", str(bad), "--no-cache"])
    assert code == 2
    assert "invalid sweep configuration" in capsys.readouterr().err


def test_failures_exit_nonzero(tmp_path, capsys):
    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(json.dumps({
        "target": "tests.farm.targets:boom",
        "axes": {"message": ["bad"]},
    }))
    code = main([
        "spec", str(spec_file), "--serial", "--no-cache", "--quiet",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err


@pytest.mark.parametrize("steps", ["0", "10000,-1"])
def test_taskset_rejects_a_non_positive_granularity(tmp_path, capsys, steps):
    with pytest.raises(SystemExit) as excinfo:
        main(["taskset", "--granularity", steps, "--serial",
              "--cache-dir", str(tmp_path / "cache")])
    assert excinfo.value.code == 2
    assert "delay steps must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("seconds", ["0", "-1", "nan"])
def test_timeout_must_be_positive(tmp_path, capsys, seconds):
    with pytest.raises(SystemExit) as excinfo:
        main(["taskset", "--timeout", seconds, "--jobs", "2",
              "--cache-dir", str(tmp_path / "cache")])
    assert excinfo.value.code == 2
    assert "timeout must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("flag", ["--retries", "--backoff"])
def test_retry_flags_are_refused(tmp_path, capsys, flag):
    """Every point runs once; there is no retry to configure."""
    with pytest.raises(SystemExit) as excinfo:
        main(["taskset", flag, "1", "--cache-dir", str(tmp_path / "cache")])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
