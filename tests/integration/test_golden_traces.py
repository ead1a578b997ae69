"""Golden-trace regression tests.

The traces under ``tests/integration/golden/`` were recorded from the
pre-dispatch-table kernel (the growth seed). The hot-path rewrite —
type-keyed command dispatch, timer recycling, heap compaction, stamp
identity — must be a pure performance change: these tests assert the
Fig. 3 and vocoder example timelines are bit-identical to the recordings.

To regenerate after an *intentional* semantic change, run::

    PYTHONPATH=src python tests/integration/test_golden_traces.py
"""

import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

pytestmark = pytest.mark.usefixtures("kernel_engine")


def format_trace(trace):
    """Canonical line-per-record rendering used by the recordings."""
    lines = []
    for r in trace:
        data = ",".join(f"{k}={r.data[k]}" for k in sorted(r.data))
        lines.append(f"{r.time}|{r.category}|{r.actor}|{r.info}|{data}")
    return "\n".join(lines) + "\n"


def _cases():
    from repro.apps.fig3 import run_architecture, run_unscheduled
    from repro.apps.vocoder.models import run_architecture as vocoder_arch

    return {
        "fig3_unscheduled": lambda: run_unscheduled().trace,
        "fig3_architecture": lambda: run_architecture().trace,
        "fig3_architecture_immediate": lambda: run_architecture(
            preemption="immediate"
        ).trace,
        "vocoder_architecture_4f": lambda: vocoder_arch(n_frames=4).sim.trace,
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
    actual = format_trace(_cases()[name]())
    expected = golden_path.read_text()
    assert actual == expected, (
        f"{name}: simulation timeline diverged from the golden recording "
        f"({golden_path}); the kernel hot-path must not change behavior"
    )


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, produce in _cases().items():
        path = GOLDEN_DIR / f"{name}.trace"
        path.write_text(format_trace(produce()))
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
