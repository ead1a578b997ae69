"""CLI contract of ``python -m repro.explore`` (used by CI explore-smoke)."""

import json

import pytest

from repro.explore.__main__ import main


def test_list_names_the_corpus(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("pingpong", "ties3", "lostnotify", "lostirq"):
        assert name in out


def test_model_is_required(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["--model", "nosuchmodel"])


def test_summary_line(capsys):
    assert main(["--model", "ties3", "--prune", "visited"]) == 0
    out = capsys.readouterr().out
    assert "ties3: 11 runs, 66 decisions, 8 states" in out
    assert "complete=yes" in out


def test_json_output_is_deterministic(capsys):
    assert main(["--model", "lostirq", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["--model", "lostirq", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    result = json.loads(first)
    assert result["model"] == "lostirq"
    assert len(result["violations"]) == 2


def test_expect_violation_exit_codes(capsys):
    assert main(["--model", "lostirq", "--expect-violation"]) == 0
    assert main(["--model", "pingpong", "--expect-violation"]) == 2


def test_emit_and_replay_roundtrip(tmp_path, capsys):
    bug = tmp_path / "bug.json"
    assert main([
        "--model", "lostirq", "--schedule-out", str(bug),
        "--expect-violation",
    ]) == 0
    assert bug.exists()
    capsys.readouterr()  # drop the exploration summary
    assert main([
        "--model", "lostirq", "--replay", str(bug), "--expect-violation",
        "--json",
    ]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["violation"]["kind"] == "deadlock"
    assert outcome["path"][-1].startswith("irq:")


def test_replay_without_violation_fails_expectation(tmp_path, capsys):
    clean = tmp_path / "clean.json"
    from repro.explore import save_schedule

    save_schedule(clean, [], model="pingpong")
    assert main(["--model", "pingpong", "--replay", str(clean)]) == 0
    assert "without violation" in capsys.readouterr().out
    assert main([
        "--model", "pingpong", "--replay", str(clean),
        "--expect-violation",
    ]) == 2


def test_expect_clean_exit_codes(capsys):
    # clean + complete exploration: the certification gate passes
    assert main(["--model", "mc3", "--expect-clean"]) == 0
    # any violation fails the gate
    assert main(["--model", "lostirq", "--expect-clean"]) == 2
    # an incomplete exploration cannot claim exhaustiveness
    assert main(["--model", "mc3", "--expect-clean", "--max-runs", "2"]) == 3


def test_expect_clean_on_replay(tmp_path, capsys):
    clean = tmp_path / "clean.json"
    from repro.explore import save_schedule

    save_schedule(clean, [], model="pingpong")
    assert main([
        "--model", "pingpong", "--replay", str(clean), "--expect-clean",
    ]) == 0
    capsys.readouterr()
    bug = tmp_path / "bug.json"
    assert main([
        "--model", "lostirq", "--schedule-out", str(bug),
        "--expect-violation",
    ]) == 0
    assert main([
        "--model", "lostirq", "--replay", str(bug), "--expect-clean",
    ]) == 2


@pytest.mark.parametrize("flag,value", [
    ("--max-runs", "-1"),
    ("--max-runs", "0"),
    ("--max-depth", "0"),
    ("--max-depth", "-4"),
])
def test_bounds_below_one_are_refused(capsys, flag, value):
    """A bound below one explored nothing and still exited 0."""
    with pytest.raises(SystemExit) as excinfo:
        main(["--model", "ties3", flag, value])
    assert excinfo.value.code == 2
    assert (f"argument {flag}: must be an integer >= 1: '{value}'"
            in capsys.readouterr().err)


def test_expectation_flags_are_mutually_exclusive():
    with pytest.raises(SystemExit):
        main(["--model", "mc3", "--expect-clean", "--expect-violation"])
