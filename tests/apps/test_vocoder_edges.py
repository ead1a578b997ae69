"""Vocoder model edge cases and timing/function separation."""

import numpy as np
import pytest

from repro.apps.vocoder import (
    build_vocoder_program,
    run_architecture,
    run_implementation,
    run_specification,
)


def test_timing_is_independent_of_speech_content():
    """Stage budgets are WCET annotations: different input data must
    produce identical schedules (only the numeric outputs differ)."""
    a = run_architecture(n_frames=3, seed=1)
    b = run_architecture(n_frames=3, seed=99)
    assert a.delays_ns == b.delays_ns
    assert a.context_switches == b.context_switches
    assert a.snrs_db != b.snrs_db  # but the data really differed


def test_spec_and_arch_bitstreams_identical():
    """Scheduling must not change the computation: both models decode
    to bit-identical output for the same input."""
    spec = run_specification(n_frames=3, seed=7)
    arch = run_architecture(n_frames=3, seed=7)
    np.testing.assert_array_equal(spec.snrs_db, arch.snrs_db)


def test_single_frame_runs():
    spec = run_specification(n_frames=1)
    assert len(spec.delays_ns) == 1
    arch = run_architecture(n_frames=1)
    assert len(arch.delays_ns) == 1


@pytest.mark.parametrize("n_frames", [0, -2])
@pytest.mark.parametrize("run", [run_specification, run_architecture,
                                 run_implementation])
def test_fewer_than_one_frame_is_refused(run, n_frames):
    """No frame means no delay to average; a negative count used to
    fail inside numpy."""
    with pytest.raises(ValueError, match=f"n_frames must be >= 1, got {n_frames}"):
        run(n_frames=n_frames)


def test_vocoder_program_scales_with_frames():
    _, p2 = build_vocoder_program(n_frames=2)
    _, p20 = build_vocoder_program(n_frames=20)
    # frame count is a loop bound, not unrolled code
    assert p2.loc == p20.loc
    assert p2.symbols["task_encoder"] == p20.symbols["task_encoder"]


def test_architecture_decoder_overrun_detection():
    """Shrinking the decoder phase below the encoder WCET makes the
    first cycle wait on data — no deadline misses, later cycles align."""
    arch = run_architecture(n_frames=3, decoder_phase_ns=8_000_000)
    # all frames decoded; delay = max(enc wcet, phase) + dec wcet
    assert len(arch.delays_ns) == 3
    assert arch.extra["deadline_misses"] == 0
