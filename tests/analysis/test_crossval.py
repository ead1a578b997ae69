"""Cross-validation harness: simulator vs analytic checker.

Small hand-built specs exercise both directions of the contract fast;
the generated matrix is sampled (the full 20-config sweep runs in CI via
``python -m repro.analysis.crossval``).
"""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.analysis.crossval import (
    build_architecture,
    cross_validate,
    generate_matrix,
    main,
    run_matrix,
    simulate,
)
from repro.analysis.schedulability import (
    ComponentSpec,
    PESpec,
    SystemSpec,
    TaskSpec,
    check_system,
)


def _schedulable_spec():
    # 100 of work per 1000 through a 50/100 server: sbf(1000)=450
    return SystemSpec("ok", pes=(
        PESpec("pe0", top="priority", components=(
            ComponentSpec("A", budget=50, period=100, policy="edf",
                          priority=0, tasks=(
                              TaskSpec("t0", period=1000, wcet=100),
                          )),
        )),
    ))


def _overloaded_spec():
    # 500 of work per 1000 through a 20/100 server (supply 200/1000)
    return SystemSpec("over", pes=(
        PESpec("pe0", top="priority", components=(
            ComponentSpec("A", budget=20, period=100, policy="edf",
                          priority=0, tasks=(
                              TaskSpec("t0", period=1000, wcet=500),
                          )),
        )),
    ))


def test_build_architecture_mirrors_spec():
    spec = SystemSpec("sys", pes=(
        PESpec("pe0", top="edf", speed=2.0, components=(
            ComponentSpec("A", budget=50, period=100, priority=0, tasks=(
                TaskSpec("t0", period=1000, wcet=100),
                TaskSpec("t1", period=2000, wcet=100),
            )),
        )),
    ))
    arch = build_architecture(spec)
    pe = arch.pes["pe0"]
    comp = pe.component("A")
    assert comp.budget == 50 and comp.period == 100
    names = {task.name for task in pe.tasks}
    assert names == {"t0", "t1"}
    # the runtime scales WCETs by PE speed like the analysis does
    t0 = next(task for task in pe.tasks if task.name == "t0")
    assert t0.wcet == 50
    # tracing is disabled for throughput on generated sweeps
    assert not arch.sim.trace.enabled


def test_simulate_schedulable_spec_has_zero_misses():
    results = simulate(_schedulable_spec())
    row = results["t0"]
    assert row["misses"] == 0
    assert row["cycles"] > 0
    assert row["worst_response"] <= 1000
    comp = results["__components__"]["pe0.A"]
    assert comp["max_window_consumption"] <= comp["budget"]


def test_simulate_overloaded_spec_misses():
    results = simulate(_overloaded_spec())
    assert results["t0"]["misses"] > 0
    # budget enforcement held even under overload
    comp = results["__components__"]["pe0.A"]
    assert comp["max_window_consumption"] <= comp["budget"]
    assert comp["throttles"] > 0


def test_cross_validate_schedulable_direction():
    report = cross_validate(_schedulable_spec())
    assert report["analysis_schedulable"]
    assert report["guaranteed_tasks"] == ["t0"]
    assert report["simulated_misses"]["t0"] == 0
    assert report["missed_tasks"] == []
    assert report["consistent"]
    assert report["violations"] == []


def test_cross_validate_unschedulable_witness():
    verdict = check_system(_overloaded_spec())
    assert not verdict.schedulable
    report = cross_validate(_overloaded_spec())
    assert not report["analysis_schedulable"]
    # the miss is real but not a contract violation: the task was never
    # guaranteed
    assert report["missed_tasks"] == ["t0"]
    assert report["consistent"]


def test_generate_matrix_is_deterministic():
    a = generate_matrix(count=6, seed=11)
    b = generate_matrix(count=6, seed=11)
    assert a == b
    assert len(a) == 6
    assert generate_matrix(count=6, seed=12) != a
    # every generated spec analyzes without raising
    for spec in a:
        check_system(spec)


def test_run_matrix_contract_holds_on_sample():
    summary = run_matrix(count=6, seed=7)
    assert summary["count"] == 6
    assert summary["consistent"]
    assert summary["violations"] == []
    assert summary["schedulable"] + summary["unschedulable"] == 6
    assert len(summary["reports"]) == 6


def test_cli_reports_and_exits_clean(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = main(["--count", "4", "--seed", "3", "--json", str(out)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "4 configs" in captured
    assert "contract holds" in captured
    payload = json.loads(out.read_text())
    assert payload["count"] == 4
    assert payload["consistent"] is True


def test_cli_module_runs_once_without_a_runtime_warning():
    # the package must not import crossval before runpy executes it as
    # __main__, or Python warns and runs a second copy of the module
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.analysis.crossval", "--count", "1", "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "1 configs" in done.stdout


def test_package_names_resolve_to_the_crossval_module():
    import repro.analysis as analysis
    from repro.analysis import crossval

    assert analysis.crossval is crossval
    assert analysis.cross_validate is cross_validate is crossval.cross_validate
    assert analysis.generate_matrix is generate_matrix
    assert analysis.simulate is simulate
    assert {"crossval", "cross_validate", "generate_matrix",
            "simulate"} <= set(analysis.__all__)


def test_same_task_name_on_two_pes_is_matched_per_pe():
    # generate_matrix names tasks c<comp>t<n> on every PE. At seed 101,
    # pe1's overloaded c0t1 misses while pe0's c0t1 is certified: the
    # miss must stay with pe1 and not read as a contract violation
    summary = run_matrix(count=5, seed=101)
    assert summary["consistent"], summary["violations"]
    assert summary["unschedulable_with_misses"] == 4
    gen1 = summary["reports"][1]
    assert gen1["missed_tasks"] == ["pe1.c0t1"]
    assert "pe0.c0t1" in gen1["guaranteed_tasks"]
    assert "pe1.c0t1" not in gen1["guaranteed_tasks"]
    # a name used on one PE only keeps its bare form
    assert gen1["simulated_misses"]["c1t0"] == 0
    assert "pe0.c0t0" in simulate(generate_matrix(5, 101)[1])
