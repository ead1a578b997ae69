"""Pinned results of the farm, campaign and MC entry points.

CI only checks that these entry points are deterministic (two runs,
then ``cmp``). Here each case runs one entry point and compares the
sha256 of its result, serialized with sorted keys, with a pinned
digest: a change to how these task sets are built must leave every
count, response time and utilization as it was. On a mismatch the
assertion message carries the result JSON.
"""

import hashlib
import json

import pytest

from repro.analysis.crossval import generate_mc_matrix, simulate_mc
from repro.farm.workloads import mc_campaign_run, periodic_taskset_run
from repro.faults.campaign import run_campaign_point


def _campaign(on_miss):
    return lambda: run_campaign_point(
        plan="overrun", on_miss=on_miss, budget_factor=1.2, seed=1
    )


def _mc(with_mc, degrade):
    return lambda: mc_campaign_run(
        seed=1, with_mc=with_mc, degrade=degrade, recovery_window=1_500_000
    )


def _crossval_mc(with_mc):
    return lambda: [
        simulate_mc(tasks, with_mc=with_mc)
        for tasks in generate_mc_matrix(4, 7)
    ]


CASES = {
    "taskset-default": periodic_taskset_run,
    "taskset-rms-immediate-obs-spans": lambda: periodic_taskset_run(
        policy="rms", preemption="immediate", with_obs=True,
        with_spans=True,
    ),
    "taskset-custom": lambda: periodic_taskset_run(
        task_set=(("a", 300_000, 80_000), ("b", 500_000, 175_000))
    ),
    "campaign-overrun-log": _campaign("log"),
    "campaign-overrun-kill": _campaign("kill"),
    "campaign-overrun-skip-cycle": _campaign("skip-cycle"),
    "campaign-overrun-notify": _campaign("notify"),
    "campaign-storm-spans": lambda: run_campaign_point(
        plan="storm", seed=2, with_spans=True
    ),
    "campaign-baseline": lambda: run_campaign_point(plan="baseline", seed=1),
    "campaign-jitter": lambda: run_campaign_point(plan="jitter", seed=1),
    "campaign-jitter-edf-immediate": lambda: run_campaign_point(
        plan="jitter", seed=2, policy="edf", preemption="immediate"
    ),
    "campaign-crash": lambda: run_campaign_point(plan="crash", seed=1),
    "campaign-hang-kill": lambda: run_campaign_point(
        plan="hang", seed=1, on_miss="kill", budget_factor=1.5
    ),
    "mc-on-drop": _mc(True, "drop"),
    "mc-on-skip": _mc(True, "skip"),
    "mc-on-elastic": _mc(True, "elastic"),
    "mc-off-drop": _mc(False, "drop"),
    "mc-off-skip": _mc(False, "skip"),
    "mc-off-elastic": _mc(False, "elastic"),
    "crossval-mc-on": _crossval_mc(True),
    "crossval-mc-off": _crossval_mc(False),
}

PINS = {
    "campaign-baseline":
        "771a71aa56160ce22385260282f5d718e9f22d52ce9669b0e4d4c843eaa10b1c",
    "campaign-crash":
        "2d968349765ea0d427079b035d6d6b14c79a92ce5f70d9510fe11dd489dcf6e4",
    "campaign-hang-kill":
        "559bf15e779ed6d25edfb090c7f10c1edafa16a7188ed629f48708b45bfe36ae",
    "campaign-jitter":
        "6dad397e7e02d8b0832cf87293a5b75b967aef28dab86393aaa0fd9d249d8e8a",
    "campaign-jitter-edf-immediate":
        "30a5d3d57270802657532b59c5fa93d03808d8b62e24cb814396874060cf0d07",
    "campaign-overrun-kill":
        "1d3eae39301236fc3e19d64d9b706cbaa2118fb2660e9bc863122b400f58016b",
    "campaign-overrun-log":
        "1a80de6bcd4f82e40ca3621200f160e850ef446579e28d02dd15f8ba086a9548",
    "campaign-overrun-notify":
        "4af793155b9299c3e2fa594715a0ff304895c5378186f2064875b9690b0fa2a5",
    "campaign-overrun-skip-cycle":
        "869d6fdb7bc6b9fdb85201d4dec3f8ae9e0101752dc33f62e7e9c3e4d0afdb4a",
    "campaign-storm-spans":
        "608576f9876ba3f93badc43df7713aff0267bc77916f1a00b9e68e56a9602417",
    "crossval-mc-off":
        "88404390846b8dc2c705b7417263b49d5f5949d7991c16c947a4d3075dfa4521",
    "crossval-mc-on":
        "127d23b0e6db9b39b1c863f9027333efa0100ea65df7777474e5ca726e19034b",
    "mc-off-drop":
        "670364f2c44dd336227b779274b1d56d305a6247776c58648ae1595d9cdf9ffe",
    "mc-off-elastic":
        "64f3030268e764d56e29e5a4e593924678acdb8d8dc153509e02ad856359b1a2",
    "mc-off-skip":
        "94a9cde78314b17a73f91d0798e298b7f04220c475f1a35cff5dc8434f715fb7",
    "mc-on-drop":
        "56bad2607992cbb8c3b2770f1a83e8ef3010aafd3faef80a12a55b9728bb8209",
    "mc-on-elastic":
        "b481dbf80d7f9bfa93b35734d4c16337d16d613ee184ec43ca6dcbc8e2a80eda",
    "mc-on-skip":
        "ea3bbe1335b773d3420899373bebf108ae8d33ec2d7d4ab297c97ee7bb249751",
    "taskset-custom":
        "52c0f9a229d0e7a126fcf01a9f3456508e35ed14779214cf39e77777971a885c",
    "taskset-default":
        "1a02177b360a5a707dad30ffe9ad61b9c507460059b66dc6a660ba7f2924850a",
    "taskset-rms-immediate-obs-spans":
        "c8fbd0dddc7781bfa9dd82559e36232e5e1e94dddb4c3e0e2d03c24f9c5cf138",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_entry_point_result_is_pinned(case):
    payload = json.dumps(CASES[case](), sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == PINS.get(case), (
        f"{case} result changed (sha256 {digest}):\n{payload}"
    )
