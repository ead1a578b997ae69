"""Golden-trace regression tests.

The traces under ``tests/integration/golden/`` were recorded from the
pre-dispatch-table kernel (the growth seed). The hot-path rewrite —
type-keyed command dispatch, timer recycling, heap compaction, stamp
identity — must be a pure performance change: these tests assert the
Fig. 3 and vocoder example timelines are bit-identical to the recordings.
Each case also pins the work behind its timeline: the kernel's
``sim.stats`` and, for RTOS models, the dispatcher's counters. These
repeat exactly, so a kernel change that reaches the same timeline by
different work (an extra step, a spare delta) fails here too.

To regenerate after an *intentional* semantic change, run::

    PYTHONPATH=src python tests/integration/test_golden_traces.py
"""

import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

pytestmark = pytest.mark.usefixtures("kernel_engine")

RTOS_COUNTS = ("dispatches", "context_switches", "preemptions")
#: ``sim.stats`` plus, for RTOS models, :data:`RTOS_COUNTS` of each run
EXPECTED_COUNTS = {
    "fig3_unscheduled": dict(
        spawned=5, steps=29, notifications=6, timer_fires=11, deltas=7,
        timesteps=9,
    ),
    "fig3_architecture": dict(
        spawned=6, steps=31, notifications=1, timer_fires=23, deltas=12,
        timesteps=23, dispatches=10, context_switches=9, preemptions=3,
    ),
    "fig3_architecture_immediate": dict(
        spawned=6, steps=32, notifications=1, timer_fires=23, deltas=13,
        timesteps=23, dispatches=10, context_switches=9, preemptions=3,
    ),
    "vocoder_architecture_4f": dict(
        spawned=4, steps=47, notifications=0, timer_fires=56, deltas=13,
        timesteps=51, dispatches=9, context_switches=7, preemptions=0,
    ),
}


def format_trace(trace):
    """Canonical line-per-record rendering used by the recordings."""
    lines = []
    for r in trace:
        data = ",".join(f"{k}={r.data[k]}" for k in sorted(r.data))
        lines.append(f"{r.time}|{r.category}|{r.actor}|{r.info}|{data}")
    return "\n".join(lines) + "\n"


def _cases():
    """name -> runner returning ``(sim, rtos_metrics)``; the RTOS
    metrics dict is None for the unscheduled model."""
    from repro.apps.fig3 import run_architecture, run_unscheduled
    from repro.apps.vocoder.models import run_architecture as vocoder_arch

    def fig3_arch(**kwargs):
        result = run_architecture(**kwargs)
        return result.sim, result.os.metrics.as_dict()

    def vocoder():
        result = vocoder_arch(n_frames=4)
        return result.sim, result.extra["os_metrics"]

    return {
        "fig3_unscheduled": lambda: (run_unscheduled().sim, None),
        "fig3_architecture": fig3_arch,
        "fig3_architecture_immediate": lambda: fig3_arch(
            preemption="immediate"
        ),
        "vocoder_architecture_4f": vocoder,
    }


@pytest.mark.parametrize("name", [
    "fig3_unscheduled",
    "fig3_architecture",
    "fig3_architecture_immediate",
    "vocoder_architecture_4f",
])
def test_trace_matches_golden(name):
    golden_path = GOLDEN_DIR / f"{name}.trace"
    assert golden_path.exists(), f"missing golden recording {golden_path}"
    sim, rtos = _cases()[name]()
    actual = format_trace(sim.trace)
    expected = golden_path.read_text()
    assert actual == expected, (
        f"{name}: simulation timeline diverged from the golden recording "
        f"({golden_path}); the kernel hot-path must not change behavior"
    )
    counts = dict(sim.stats)
    if rtos is not None:
        counts.update((key, rtos[key]) for key in RTOS_COUNTS)
    assert counts == EXPECTED_COUNTS[name]


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, produce in _cases().items():
        path = GOLDEN_DIR / f"{name}.trace"
        path.write_text(format_trace(produce()[0].trace))
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
