"""Recorded decision sequences, timer labels included, are pinned.

Explorer counts say how many runs and states a search visits, but not
what the decisions were called. A :class:`RecordingOracle` schedule
names every choice: ready processes, dispatch ties and, at same-instant
timer cohorts, each timer by its label (``dispatch:<pe>``, the periodic
release, the watchdogs, the budget-server timers). Recorded schedules
are saved, replayed and compared across runs, so those labels are part
of the model's interface. Each digest below covers the whole step list
(kind, actor, time, choices, pick) of one run.
"""

import functools
import hashlib
import json

import pytest

from repro.analysis.crossval import (
    _horizon_for,
    build_architecture,
    generate_matrix,
)
from repro.kernel.oracle import FifoOracle, RecordingOracle, ScheduleOracle
from repro.explore.models import MODELS


class LastChoiceOracle(ScheduleOracle):
    """Always take the last choice: the opposite tie-break to FIFO."""

    def choose(self, point):
        return len(point.choices) - 1


INNER = {"fifo": FifoOracle, "last": LastChoiceOracle}


def _digest(steps):
    rows = [
        [s["kind"], s["actor"], s["time"], s["choices"], s["pick"]]
        for s in steps
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _timer_labels(steps):
    return {
        label
        for step in steps if step["kind"] == "timer"
        for label in step["choices"]
    }


#: (model, inner oracle) -> (decisions, sha256 of the recorded steps)
MODEL_SCHEDULES = {
    ("pingpong", "fifo"): (
        1, "3c80d4b15231b70c4a16a6798314df7cf28dcd89a22af5888a4aa6484ff883f5",
    ),
    ("pingpong", "last"): (
        1, "53fe0a367264cbf99dec9f58b23652f9d3c76341919360e2db6b8ab8ecc3f08b",
    ),
    ("ties3", "fifo"): (
        6, "c72864858e5896da317d0b8b8cc50ceee11e00b4d486a43902cbdaea6e355262",
    ),
    ("ties3", "last"): (
        6, "dce15912608d1e66ad73bd7d2bab08b6024fdf35ee175f9e83fbb72334a29316",
    ),
    ("lostnotify", "fifo"): (
        3, "1f16ef696edb43d1653051428a108634973e7d04a4219e74da5a051edef643a0",
    ),
    ("lostnotify", "last"): (
        3, "42f72a3bb64dcf814230f4673b0eedb3605daa30e421e7b3b81e59f3a5c11366",
    ),
    ("lostirq", "fifo"): (
        3, "fb742f560c08488c04b4f1be988c5f93c5ec86ce0a5edc891ee99d980b1e661c",
    ),
    ("lostirq", "last"): (
        4, "f4e5dae6bb294667b60d1b0267c47312098a0d63d9bb48e2c9db7e9a738d9c5b",
    ),
    ("mc3", "fifo"): (
        11, "30a2b1c65686783297668e30da30c3d1bb7f6abdf173cdec4a421f32f62f3779",
    ),
    ("mc3", "last"): (
        13, "642f1e86f8759e293f988b04b13f818c14dd7b22f67e7bbc2de4bd6eb1886073",
    ),
}


@pytest.mark.parametrize(
    "name,inner", sorted(MODEL_SCHEDULES), ids=lambda v: v
)
def test_corpus_model_schedule_is_pinned(name, inner):
    model = MODELS[name]()
    recorder = model.sim.install_oracle(RecordingOracle(INNER[inner]()))
    model.sim.run(until=model.horizon)
    decisions, digest = MODEL_SCHEDULES[name, inner]
    assert len(recorder.steps) == decisions
    assert _digest(recorder.steps) == digest


#: (matrix seed, system) -> two PEs of budget servers, every task under
#: a deadline watchdog (crossval.build_architecture)
SYSTEMS = [(7, "gen16"), (7, "gen19"), (2003, "gen24"), (2003, "gen32")]

#: (seed, system, inner oracle) -> (decisions, sha256 of the steps)
SYSTEM_SCHEDULES = {
    (7, "gen16", "fifo"): (
        1099, "0e995ffb90ee529aa3ece2cb4a12f2783df07f4bb42ee154d863ed49ef68283a",
    ),
    (7, "gen16", "last"): (
        1050, "58ff97345562e8a23dab025853d697e9e61668b1e652f7346cfb540c5ec0fd61",
    ),
    (7, "gen19", "fifo"): (
        2840, "e0666349165281b52f5959ec4ad947b40a1279f6eeb968f34051ec3406c84a18",
    ),
    (7, "gen19", "last"): (
        2639, "d693f77744e199b92d62aa51a38207ed59686b61c57f6c33d05450209526a221",
    ),
    (2003, "gen24", "fifo"): (
        1040, "fd60eaaf9e69a103c6ba82b40cbb1c61ff2c7508c06d26d137e5d745e19f3d43",
    ),
    (2003, "gen24", "last"): (
        1040, "659fd912f38df9475e8a9c60153246cebb708454dc34bd997fb8921d2e6bed6e",
    ),
    (2003, "gen32", "fifo"): (
        2335, "a28f895c71dbd6f412eea985312a45a673622f0caa40bb8ae64e9112cb7ba667",
    ),
    (2003, "gen32", "last"): (
        2072, "21815161974b5650526c66c494269f89ed9f541de1c0a4f5e6c677e8b6352415",
    ),
}


def _system(seed, name):
    for spec in generate_matrix(40, seed=seed):
        if spec.name == name:
            return spec
    raise KeyError(name)


@functools.cache
def _record_system(seed, name, inner):
    spec = _system(seed, name)
    arch = build_architecture(spec)
    recorder = arch.sim.install_oracle(RecordingOracle(INNER[inner]()))
    arch.run(until=_horizon_for(spec))
    return recorder.steps


@pytest.mark.parametrize(
    "seed,name,inner", sorted(SYSTEM_SCHEDULES), ids=lambda v: str(v)
)
def test_crossval_system_schedule_is_pinned(seed, name, inner):
    steps = _record_system(seed, name, inner)
    decisions, digest = SYSTEM_SCHEDULES[seed, name, inner]
    assert len(steps) == decisions
    assert _digest(steps) == digest


def test_pinned_schedules_name_the_rtos_timers():
    """The pinned systems do record the RTOS-layer timer labels, so the
    digests above cover them."""
    seen = set()
    for seed, name in SYSTEMS:
        for inner in INNER:
            seen |= _timer_labels(_record_system(seed, name, inner))
    for label in (
        "dispatch:pe0.os",
        "dispatch:pe1.os",
        "TaskManager.endcycle.<locals>.<lambda>",
        "FailureMonitor._arm_deadline.<locals>.<lambda>",
        "HierarchicalScheduler.on_dispatch.<locals>.<lambda>",
        "HierarchicalScheduler._exhausted.<locals>.<lambda>",
        "HierarchicalScheduler._ensure_replenish.<locals>.<lambda>",
    ):
        assert label in seen
