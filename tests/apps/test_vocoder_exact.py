"""The vocoder's DSP kernels equal the per-sample reference kernels, byte
for byte.

The reference kernels below are the per-sample loops the vocoder ran
before its kernels were batched, copied verbatim. The batched kernels
compute every output value with the same floating-point operations (one
BLAS ``ddot`` per dot product, the same scalar arithmetic around it), so
every array must equal the reference's by ``tobytes()`` and every scalar
by value and type. Closeness is not enough: the benchmark pins SNRs and
delays derived from these arrays.

No digest of raw floats is pinned here. The BLAS ``ddot`` kernel is
chosen per CPU at run time, so such a digest could change between
hosts; the comparison with the reference holds on any of them.

Run as a script, this file sweeps the encoder and decoder over seeded
8-frame clips, once with the module's kernels and once with the
reference kernels, and exits non-zero on the first array that differs::

    PYTHONPATH=src python tests/apps/test_vocoder_exact.py --clips 200
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.vocoder import dsp, frames
from repro.apps.vocoder.decoder import DecoderCore
from repro.apps.vocoder.dsp import MAX_LAG, MIN_LAG
from repro.apps.vocoder.encoder import EncoderCore
from repro.apps.vocoder.frames import SAMPLE_RATE

# --- reference kernels (verbatim) -------------------------------------


def lpc_residual(frame, a, history):
    """Inverse-filter the frame: residual e[n] = x[n] - sum a[i] x[n-1-i].

    ``history`` holds the last ``len(a)`` samples of the previous frame.
    """
    order = len(a)
    extended = np.concatenate([history[-order:], frame])
    residual = np.empty(len(frame))
    for n in range(len(frame)):
        past = extended[n : n + order][::-1]
        residual[n] = frame[n] - np.dot(a, past)
    return residual


def synthesis_filter(excitation, a, history):
    """All-pole synthesis 1/A(z): x[n] = e[n] + sum a[i] x[n-1-i]."""
    order = len(a)
    out = np.empty(len(excitation))
    state = list(history[-order:])
    for n in range(len(excitation)):
        past = np.array(state[::-1])
        out[n] = excitation[n] + np.dot(a, past)
        state.pop(0)
        state.append(out[n])
    return out


def pitch_search(residual, past_excitation, min_lag=MIN_LAG, max_lag=MAX_LAG):
    """Long-term predictor: best integer lag + gain against the adaptive
    codebook (past excitation)."""
    target = np.asarray(residual, dtype=np.float64)
    n = len(target)
    best_lag, best_gain, best_score = min_lag, 0.0, -np.inf
    for lag in range(min_lag, max_lag + 1):
        segment = _delayed_excitation(past_excitation, lag, n)
        energy = np.dot(segment, segment)
        if energy <= 0:
            continue
        corr = np.dot(target, segment)
        score = corr * corr / energy
        if score > best_score:
            best_score = score
            best_lag = lag
            best_gain = corr / energy
    best_gain = float(np.clip(best_gain, -1.2, 1.2))
    return best_lag, best_gain


def _delayed_excitation(past_excitation, lag, n):
    """The adaptive-codebook vector for ``lag``, repeating short lags."""
    past = np.asarray(past_excitation, dtype=np.float64)
    segment = past[-lag:].copy()
    while len(segment) < n:
        segment = np.concatenate([segment, segment[-lag:]])
    return segment[:n]


def _resonate(signal, formants):
    out = signal
    for freq, radius in formants:
        theta = 2 * np.pi * freq / SAMPLE_RATE
        a1 = 2 * radius * np.cos(theta)
        a2 = -radius * radius
        filtered = np.empty(len(out))
        y1 = y2 = 0.0
        for i, x in enumerate(out):
            y = x + a1 * y1 + a2 * y2
            filtered[i] = y
            y2, y1 = y1, y
        out = filtered
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


# --- comparison -------------------------------------------------------


def assert_same(got, want, what=""):
    """Equal bytes, dtype and shape for arrays; equal value and type for
    scalars (element by element for tuples and lists)."""
    assert type(got) is type(want), (what, type(got), type(want))
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), what
        assert got.tobytes() == want.tobytes(), what
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), what
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{what}[{i}]")
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (what, got, want)


@contextlib.contextmanager
def reference_kernels():
    """The reference kernels swapped into the vocoder modules."""
    with mock.patch.multiple(
        dsp, lpc_residual=lpc_residual, synthesis_filter=synthesis_filter,
        pitch_search=pitch_search, _delayed_excitation=_delayed_excitation,
    ), mock.patch.object(frames, "_resonate", _resonate):
        yield


#: kernels whose every return value a clip run records: the encoder
#: quantizes the pitch gain, so its state alone would hide a last-bit
#: difference in the gain that ``pitch_search`` returns
RECORDED = (
    (frames, "_resonate"),
    (dsp, "lpc_residual"),
    (dsp, "pitch_search"),
    (dsp, "synthesis_filter"),
)


def clip_arrays(seed, n_frames=8):
    """Every array and scalar the encoder and decoder compute on one
    seeded clip, in order, named: each return value of the
    :data:`RECORDED` kernels and the codec's state after each frame."""
    out = []

    def recorder(name, kernel):
        def record(*args, **kwargs):
            result = kernel(*args, **kwargs)
            out.append((name, result))
            return result
        return record

    with contextlib.ExitStack() as stack:
        for module, name in RECORDED:
            stack.enter_context(mock.patch.object(
                module, name, recorder(name, getattr(module, name))))
        signal = frames.speech_signal(n_frames, seed)
        encoder, decoder = EncoderCore(), DecoderCore()
        out.append(("signal", signal))
        for index, frame in enumerate(frames.frames_of(signal)):
            encoded = encoder.encode(index, frame)
            scratch = encoder._scratch
            for name in ("a", "adaptive", "target", "positions", "signs"):
                out.append((f"{index}.{name}", scratch[name]))
            out.append((f"{index}.params",
                        (encoded.lag, encoded.pitch_gain, encoded.gain)))
            out.append((f"{index}.enc.past", encoder.past_excitation))
            out.append((f"{index}.enc.history", encoder.history))
            out.append((f"{index}.pcm", decoder.decode(encoded)))
            out.append((f"{index}.dec.past", decoder.past_excitation))
    return out


def assert_clip_matches_reference(seed, n_frames=8):
    got = clip_arrays(seed, n_frames)
    with reference_kernels():
        want = clip_arrays(seed, n_frames)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, g), (_, w) in zip(got, want):
        assert_same(g, w, f"seed {seed} {name}")


# --- strategies -------------------------------------------------------

samples = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def filters(draw):
    """``(a, history)``: orders 1-10, quantized or not, histories at
    least as long as the order."""
    order = draw(st.integers(1, 10))
    a = draw(arrays(np.float64, order, elements=st.floats(-1.0, 1.0))) / order
    if draw(st.booleans()):
        a = dsp.quantize(a, 1 / 512)
    history = draw(arrays(np.float64, order + draw(st.integers(0, 4)),
                          elements=samples))
    return a, history


@st.composite
def pasts(draw, max_len=300):
    """Past excitations, often with a run of zeros (a fresh codec's
    past is all zeros)."""
    past = draw(arrays(np.float64, st.integers(1, max_len), elements=samples))
    start = draw(st.integers(0, len(past)))
    stop = draw(st.integers(start, len(past)))
    past[start:stop] = 0.0
    return past


signals = arrays(np.float64, st.integers(1, 200), elements=samples)


# --- kernels against the reference ------------------------------------


@given(signals, filters())
@example(np.array([-0.0, -0.0]), (np.array([0.0]), np.array([0.0])))
@settings(max_examples=150, deadline=None)
def test_lpc_residual_is_byte_identical(frame, fir):
    """The example: ``np.dot`` of one-element vectors is a plain multiply
    and keeps a -0.0 product, which a ``ddot`` would turn into 0.0."""
    a, history = fir
    assert_same(dsp.lpc_residual(frame, a, history),
                lpc_residual(frame, a, history))


@given(signals, filters())
@settings(max_examples=150, deadline=None)
def test_synthesis_filter_is_byte_identical(excitation, fir):
    a, history = fir
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same(dsp.synthesis_filter(excitation, a, history),
                    synthesis_filter(excitation, a, history))


@given(pasts(), st.integers(1, 350), st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_delayed_excitation_is_byte_identical(past, lag, n):
    """Lags run from 1 to beyond ``len(past)``: a lag longer than the
    past repeats the vector grown so far, which is not periodic."""
    assert_same(dsp._delayed_excitation(past, lag, n),
                _delayed_excitation(past, lag, n))


@given(signals, pasts(), st.integers(1, 320), st.integers(0, 150))
@example(np.array([-0.0]), np.ones(30), MIN_LAG, 0)
@settings(max_examples=150, deadline=None)
def test_pitch_search_is_byte_identical(target, past, min_lag, span):
    """The lag range reaches beyond ``len(past)`` as well. The example
    returns a gain of -0.0 (a one-element correlation)."""
    assert_same(dsp.pitch_search(target, past, min_lag, min_lag + span),
                pitch_search(target, past, min_lag, min_lag + span))


@given(arrays(np.float64, st.integers(1, 800),
              elements=st.floats(-10.0, 10.0, allow_nan=False)),
       st.lists(st.tuples(st.floats(100.0, 3900.0), st.floats(0.5, 0.99)),
                max_size=2))
@settings(max_examples=100, deadline=None)
def test_resonate_is_byte_identical(signal, formants):
    assert_same(frames._resonate(signal, formants), _resonate(signal, formants))


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("where", ["target", "past"])
def test_pitch_search_non_finite_inputs(fill, where):
    """NaN scores never win, and overflowing scores tie as the scan
    broke ties: on the first lag."""
    rng = np.random.default_rng(7)
    target, past = rng.standard_normal(160), rng.standard_normal(300)
    (target if where == "target" else past)[[3, 150]] = fill
    with np.errstate(all="ignore"):
        assert_same(dsp.pitch_search(target, past), pitch_search(target, past))


# --- edges ------------------------------------------------------------


def test_pitch_search_all_zero_past():
    lag, gain = dsp.pitch_search(np.ones(160), np.zeros(300))
    assert (lag, gain) == (MIN_LAG, 0.0)
    assert type(lag) is int and type(gain) is float


@pytest.mark.parametrize("kernel", [dsp.lpc_residual, dsp.synthesis_filter])
def test_history_shorter_than_the_order_raises(kernel):
    with pytest.raises(ValueError):
        kernel(np.ones(20), np.full(10, 0.05), np.ones(9))


@pytest.mark.parametrize("lag", [0, -1, -300])
def test_non_positive_lag_raises(lag):
    """The reference repeats the whole past for lag 0 and can loop
    forever on a negative lag; the kernels refuse both."""
    with pytest.raises(ValueError, match="lag"):
        dsp._delayed_excitation(np.ones(300), lag, 160)
    with pytest.raises(ValueError, match="lag"):
        dsp.pitch_search(np.ones(160), np.ones(300), min_lag=lag, max_lag=5)


def test_empty_past_raises():
    """The reference loops forever on an empty past."""
    with pytest.raises(ValueError):
        dsp._delayed_excitation(np.zeros(0), 40, 160)
    with pytest.raises(ValueError):
        dsp.pitch_search(np.ones(160), np.zeros(0))


# --- the whole codec --------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_codec_arrays_match_reference_kernels(seed):
    """Every array of a seeded 8-frame clip through ``EncoderCore`` and
    ``DecoderCore``, with the module's kernels and with the reference
    kernels swapped in."""
    assert_clip_matches_reference(seed)


if __name__ == "__main__":
    import argparse
    import time

    parser = argparse.ArgumentParser(
        description="Compare every vocoder array of seeded clips with the "
                    "reference kernels, byte for byte.")
    parser.add_argument("--clips", type=int, default=200)
    args = parser.parse_args()
    started = time.perf_counter()
    for seed in range(args.clips):
        assert_clip_matches_reference(seed)
    print(f"{args.clips} seeded clips: every vocoder array byte-identical "
          f"to the reference kernels ({time.perf_counter() - started:.1f} s)")
