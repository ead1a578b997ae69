"""Unit tests for the decision-point seam (repro.kernel.oracle).

These cover the oracle contract in isolation: pick() validation and
trail recording, the FIFO twin, recording, and strict replay with
divergence detection. The integration pins (installed FifoOracle is
byte-identical to no oracle) live in test_tiebreak_pins.py.
"""

import pytest

from repro.kernel import (
    DecisionPoint,
    FifoOracle,
    KernelError,
    RecordingOracle,
    ReplayOracle,
    ScheduleDivergence,
    ScheduleOracle,
    Simulator,
)
from repro.kernel.oracle import DECISION_KINDS


def _point(kind="ready", choices=("a", "b", "c"), actor="x", time=7):
    return DecisionPoint(kind, choices, actor=actor, time=time)


class TestDecisionPoint:
    def test_choices_are_frozen_to_a_tuple(self):
        point = DecisionPoint("ready", ["a", "b"])
        assert point.choices == ("a", "b")
        assert isinstance(point.choices, tuple)

    def test_repr_is_self_describing(self):
        assert repr(_point()) == (
            "DecisionPoint('ready', ('a', 'b', 'c'), actor='x', t=7)"
        )

    def test_kind_table_is_complete(self):
        assert DECISION_KINDS == (
            "ready", "timer", "waitany", "dispatch", "wake", "irq",
            "fault",
        )


class TestScheduleOracle:
    def test_pick_records_trail_and_counts(self):
        oracle = FifoOracle()
        assert oracle.pick(_point()) == 0
        assert oracle.pick(_point(kind="timer", choices=("t1", "t2"))) == 0
        assert oracle.trail == ["ready:a", "timer:t1"]
        assert oracle.decisions == 2

    @pytest.mark.parametrize("bad", [-1, 3, 99])
    def test_pick_validates_the_chosen_index(self, bad):
        class Bad(ScheduleOracle):
            def choose(self, point):
                return bad

        with pytest.raises(KernelError, match="oracle chose index"):
            Bad().pick(_point())

    def test_base_choose_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ScheduleOracle().choose(_point())


class TestRecordingOracle:
    def test_records_full_step_context(self):
        oracle = RecordingOracle()
        oracle.pick(_point())
        oracle.pick(_point(kind="wake", choices=("t1", "t2"), actor="e"))
        assert oracle.steps == [
            {"kind": "ready", "actor": "x", "time": 7,
             "choices": ["a", "b", "c"], "pick": 0},
            {"kind": "wake", "actor": "e", "time": 7,
             "choices": ["t1", "t2"], "pick": 0},
        ]

    def test_delegates_to_inner_oracle(self):
        class Last(ScheduleOracle):
            def choose(self, point):
                return len(point.choices) - 1

        oracle = RecordingOracle(Last())
        assert oracle.pick(_point()) == 2
        assert oracle.steps[0]["pick"] == 2
        assert oracle.trail == ["ready:c"]


class TestReplayOracle:
    def test_replays_recorded_steps_in_order(self):
        recorded = RecordingOracle()
        recorded.pick(_point())
        recorded.pick(_point(kind="timer", choices=("t1", "t2")))
        replay = ReplayOracle(recorded.steps)
        assert replay.pick(_point()) == 0
        assert not replay.exhausted
        assert replay.pick(_point(kind="timer", choices=("t1", "t2"))) == 0
        assert replay.exhausted

    def test_accepts_bare_integer_steps(self):
        replay = ReplayOracle([2, 1])
        assert replay.pick(_point()) == 2
        assert replay.pick(_point()) == 1
        assert replay.trail == ["ready:c", "ready:b"]

    def test_falls_back_to_fifo_when_exhausted(self):
        replay = ReplayOracle([1])
        assert replay.pick(_point()) == 1
        assert replay.exhausted
        assert replay.pick(_point()) == 0

    def test_strict_mode_detects_kind_divergence(self):
        replay = ReplayOracle(
            [{"kind": "timer", "choices": ["a", "b", "c"], "pick": 0}]
        )
        with pytest.raises(ScheduleDivergence, match="recorded a 'timer'"):
            replay.pick(_point(kind="ready"))

    def test_strict_mode_detects_choice_divergence(self):
        replay = ReplayOracle(
            [{"kind": "ready", "choices": ["a", "z", "c"], "pick": 0}]
        )
        with pytest.raises(ScheduleDivergence, match="recorded choices"):
            replay.pick(_point())

    def test_lenient_mode_takes_the_pick_anyway(self):
        replay = ReplayOracle(
            [{"kind": "timer", "choices": ["x"], "pick": 1}], strict=False
        )
        assert replay.pick(_point()) == 1


class TestInstallation:
    def test_install_and_clear(self):
        sim = Simulator()
        assert sim.oracle is None
        oracle = FifoOracle()
        sim.install_oracle(oracle)
        assert sim.oracle is oracle
        sim.clear_oracle()
        assert sim.oracle is None
