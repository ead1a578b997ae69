"""Explorer behavior on the corpus: coverage, pruning, reproduction.

The pinned counter values double as the EXPERIMENTS.md pruning table;
exploration is fully deterministic, so exact equality is the right
assertion (a drift means the state space or the pruning changed).
"""

import json

import pytest

from repro.explore import Explorer, explore, replay_run
from repro.explore.models import MODELS, lostirq, lostnotify, pingpong, ties3


def test_pingpong_is_clean_under_every_prune_mode():
    for prune in ("none", "visited", "sleep"):
        result = explore(pingpong, prune=prune)
        assert result.violations == []
        assert result.complete
        assert result.runs == 2


def test_ties3_pruning_ladder_is_strict():
    none = explore(ties3, prune="none")
    visited = explore(ties3, prune="visited")
    sleep = explore(ties3, prune="sleep")
    for result in (none, visited, sleep):
        assert result.violations == []
        assert result.complete

    # the acceptance bar: DPOR-lite explores strictly less than naive
    # DFS, and plain state pruning sits strictly in between
    assert sleep.decisions < visited.decisions < none.decisions
    assert visited.runs < none.runs

    # pinned (deterministic) counters — the EXPERIMENTS.md table
    assert (none.runs, none.decisions, none.states) == (216, 1296, 11)
    assert (visited.runs, visited.decisions, visited.states) == (11, 66, 8)
    assert (sleep.runs, sleep.decisions, sleep.states) == (11, 36, 8)
    assert sleep.aborted == 10


def test_lostnotify_exploration_names_the_fault_branch():
    result = explore(lostnotify, prune="sleep")
    assert result.complete
    assert len(result.violations) == 1
    violation = result.violations[0]
    assert violation.kind == "deadlock"
    assert "waiter" in violation.message
    assert violation.path == [
        "ready:waiter", "ready:notifier", "fault:lost_notify",
    ]


def test_lostirq_exploration_finds_both_early_slots():
    result = explore(lostirq, prune="sleep")
    assert result.complete
    assert [v.kind for v in result.violations] == ["deadlock", "deadlock"]
    assert [v.path[-1] for v in result.violations] == ["irq:t+0", "irq:t+1"]
    for violation in result.violations:
        assert "sampler" in violation.message


def test_lostirq_violation_census_shrinks_with_pruning():
    # every prune level finds the bug; pruning only removes redundant
    # witnesses of already-explained states
    counts = {
        prune: len(explore(lostirq, prune=prune).violations)
        for prune in ("none", "visited", "sleep")
    }
    assert counts["none"] >= counts["visited"] >= counts["sleep"] >= 2


def test_replay_reproduces_the_recorded_violation():
    result = explore(lostirq, prune="sleep", stop_on_first=True)
    violation = result.violations[0]
    model, replayed, trail = replay_run(lostirq, violation.schedule)
    assert replayed is not None
    kind, message = replayed
    assert kind == violation.kind
    assert message == violation.message
    assert trail == violation.path


def test_exploration_is_deterministic():
    first = Explorer(lostirq, prune="sleep").run().to_dict()
    second = Explorer(lostirq, prune="sleep").run().to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_max_runs_truncation_is_reported():
    result = explore(ties3, prune="none", max_runs=10)
    assert result.runs == 10
    assert not result.complete


def test_stop_on_first_does_not_claim_completeness():
    result = explore(lostirq, prune="sleep", stop_on_first=True)
    assert len(result.violations) == 1
    assert result.runs == 1
    assert not result.complete


def test_unknown_prune_mode_is_rejected():
    with pytest.raises(ValueError, match="unknown prune mode"):
        Explorer(pingpong, prune="both")


#: (runs, decisions, states, aborted, complete) of the RTOS corpus
#: models at the benchmark's ``max_runs=300`` — the same numbers as the
#: ``ex:<model>:<prune>`` units of ``benchmarks/e2e/expected/verify.json``.
#: They move when the RTOS layer's dispatch order or decision points
#: move, so such a change fails here, not only in the benchmark.
CORPUS_COUNTS = {
    ("lostnotify", "none"): (12, 36, 5, 0, True),
    ("lostnotify", "visited"): (7, 21, 5, 0, True),
    ("lostnotify", "sleep"): (7, 16, 5, 5, True),
    ("lostirq", "none"): (24, 84, 6, 0, True),
    ("lostirq", "visited"): (9, 29, 6, 0, True),
    ("lostirq", "sleep"): (9, 24, 6, 5, True),
    ("mc3", "none"): (300, 3792, 18, 0, False),
    ("mc3", "visited"): (35, 398, 25, 0, True),
    ("mc3", "sleep"): (35, 199, 25, 30, True),
}


@pytest.mark.parametrize("name,prune", sorted(CORPUS_COUNTS))
def test_rtos_corpus_counts_are_pinned(name, prune):
    result = Explorer(MODELS[name], prune=prune, max_runs=300).run()
    counts = (result.runs, result.decisions, result.states, result.aborted,
              result.complete)
    assert counts == CORPUS_COUNTS[name, prune]
