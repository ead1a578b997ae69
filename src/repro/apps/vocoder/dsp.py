"""Signal-processing kernels of the vocoder.

A compact analysis-by-synthesis speech codec in the GSM style the
paper's vocoder case study uses ([9]: GSM vocoder on a DSP56600): LPC
short-term prediction (autocorrelation + Levinson–Durbin), long-term
(pitch) prediction against the past excitation, and a sparse
multi-pulse fixed codebook — plus the matching decoder. Real numerics
(numpy), deterministic, frame-by-frame with carried filter state.

This is not a bit-exact GSM EFR implementation (see DESIGN.md,
substitutions): the *task topology and timing structure* is what Table 1
measures; the DSP here exists so the specification and architecture
models compute something real and testable (prediction gain, SNR).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

FRAME_LEN = 160  # 20 ms at 8 kHz
LPC_ORDER = 10
MIN_LAG = 20
MAX_LAG = 140
N_PULSES = 10
#: adaptive-codebook vectors :func:`pitch_search` gathers at a time
_LAG_BLOCK = 32


def autocorrelation(frame, order=LPC_ORDER):
    """First ``order + 1`` autocorrelation lags of the frame."""
    frame = np.asarray(frame, dtype=np.float64)
    n = len(frame)
    return np.array(
        [np.dot(frame[: n - lag], frame[lag:]) for lag in range(order + 1)]
    )


def levinson_durbin(r, order=LPC_ORDER):
    """Solve the normal equations by Levinson–Durbin recursion.

    Returns ``(a, k, err)``: prediction coefficients ``a`` (length
    ``order``, sign convention ``x[n] ~ sum a[i] x[n-1-i]``), reflection
    coefficients ``k`` and the final prediction error energy.
    """
    r = np.asarray(r, dtype=np.float64)
    if r[0] <= 0:
        return np.zeros(order), np.zeros(order), 0.0
    a = np.zeros(order)
    k = np.zeros(order)
    err = r[0]
    for i in range(order):
        acc = r[i + 1] - np.dot(a[:i], r[i::-1][:i])
        ki = acc / err
        k[i] = ki
        a_new = a.copy()
        a_new[i] = ki
        a_new[:i] = a[:i] - ki * a[i - 1 :: -1][:i]
        a = a_new
        err *= 1.0 - ki * ki
        if err <= 0:
            err = 1e-9
    return a, k, err


def _dots(x, y):
    """Row-wise dot products of ``x`` and ``y`` (broadcast against each
    other), each computed exactly as ``np.dot`` of two vectors computes
    it: one BLAS ``ddot``, which ``np.matmul`` also runs for every
    (1 x n)·(n x 1) product. A gemv (``rows @ v``), ``np.einsum`` or a
    Python multiply-add loop sums in another order or fuses
    differently, so their results differ in the last bits."""
    if x.shape[-1] == 1:
        # np.dot multiplies one-element vectors as scalars; a ddot adds
        # the product to 0.0, which turns -0.0 into 0.0
        return x[..., 0] * y[..., 0]
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


@lru_cache(maxsize=8)
def _window_index(n, order):
    """Row ``k`` holds positions ``k + order - 1`` down to ``k``: the
    ``order`` samples before sample ``k`` of a frame preceded by
    ``order`` history samples, newest first."""
    index = np.arange(order - 1, order - 1 + n)[:, None] - np.arange(order)
    index.flags.writeable = False
    return index


def _check_history(history, order):
    if len(history) < order:
        raise ValueError(
            f"history of {len(history)} samples is shorter than the "
            f"filter order {order}"
        )


def lpc_residual(frame, a, history):
    """Inverse-filter the frame: residual e[n] = x[n] - sum a[i] x[n-1-i].

    ``history`` holds the last ``len(a)`` samples of the previous frame.
    """
    frame = np.asarray(frame, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    order = len(a)
    _check_history(history, order)
    extended = np.concatenate([history[-order:], frame])
    return frame - _dots(a, extended[_window_index(len(frame), order)])


def synthesis_filter(excitation, a, history):
    """All-pole synthesis 1/A(z): x[n] = e[n] + sum a[i] x[n-1-i]."""
    a = np.asarray(a, dtype=np.float64)
    order = len(a)
    _check_history(history, order)
    n = len(excitation)
    # time runs backwards in ``past``: x[k] lands at past[n - 1 - k],
    # so the samples before x[k], newest first, are one contiguous slice
    past = np.empty(n + order)
    past[n:] = history[-order:][::-1]
    dot = a.dot
    for k, e in enumerate(np.asarray(excitation, dtype=np.float64).tolist()):
        i = n - k
        past[i - 1] = e + dot(past[i : i + order])
    return past[:n][::-1].copy()


def pitch_search(residual, past_excitation, min_lag=MIN_LAG, max_lag=MAX_LAG):
    """Long-term predictor: best integer lag + gain against the adaptive
    codebook (past excitation)."""
    target = np.asarray(residual, dtype=np.float64)
    past = np.asarray(past_excitation, dtype=np.float64)
    lags = range(min_lag, max_lag + 1)
    index = _codebook_index(len(past), len(target), min_lag, max_lag)
    energies = np.empty(len(lags))
    corrs = np.empty(len(lags))
    # gather a block of vectors at a time: a 121 x 160 gather per call
    # measurably raised the benchmark's peak RSS
    for start in range(0, len(lags), _LAG_BLOCK):
        segments = past[index[start : start + _LAG_BLOCK]]
        energies[start : start + _LAG_BLOCK] = _dots(segments, segments)
        corrs[start : start + _LAG_BLOCK] = _dots(target, segments)
    (live,) = np.nonzero(energies > 0)
    # a NaN score never beats the best so far: fmax makes it -inf
    scores = np.fmax(corrs[live] * corrs[live] / energies[live], -np.inf)
    best_lag, best_gain = min_lag, 0.0
    if len(live) and scores.max() > -np.inf:
        # the first lag of the highest score, as a scan that keeps only
        # a strictly higher score picks
        best = live[scores.argmax()]
        best_lag = lags[best]
        best_gain = corrs[best] / energies[best]
    best_gain = float(np.clip(best_gain, -1.2, 1.2))
    return best_lag, best_gain


@lru_cache(maxsize=4)
def _codebook_index(size, n, min_lag, max_lag):
    """Positions into a past of ``size`` samples of every adaptive-codebook
    vector :func:`pitch_search` tries, one row per lag, built once per
    shape by :func:`_delayed_excitation` itself."""
    positions = np.arange(size, dtype=np.float64)
    lags = range(min_lag, max_lag + 1)
    index = np.empty((len(lags), n), dtype=np.intp)
    for row, lag in zip(index, lags):
        row[:] = _delayed_excitation(positions, lag, n)
    index.flags.writeable = False
    return index


def _delayed_excitation(past_excitation, lag, n):
    """The adaptive-codebook vector for ``lag``, repeating short lags."""
    if lag < 1:
        raise ValueError(f"lag must be at least 1, got {lag}")
    past = np.asarray(past_excitation, dtype=np.float64)
    if not len(past) and n > 0:
        raise ValueError("no past excitation to repeat")
    segment = past[-lag:].copy()
    while len(segment) < n:
        segment = np.concatenate([segment, segment[-lag:]])
    return segment[:n]


def codebook_search(target, n_pulses=N_PULSES):
    """Sparse multi-pulse fixed codebook: greedy pulse placement.

    Returns ``(positions, signs, gain)`` approximating ``target`` by
    ``gain * sum_i signs[i] * delta[positions[i]]``.
    """
    target = np.asarray(target, dtype=np.float64)
    order = np.argsort(-np.abs(target))
    positions = np.sort(order[:n_pulses])
    signs = np.sign(target[positions])
    signs[signs == 0] = 1.0
    magnitude = np.abs(target[positions]).mean() if n_pulses else 0.0
    return positions, signs, float(magnitude)


def build_excitation(n, lag, pitch_gain, past_excitation, positions, signs, gain):
    """Decoder-side excitation: adaptive + fixed codebook contributions."""
    excitation = pitch_gain * _delayed_excitation(past_excitation, lag, n)
    excitation[positions] += gain * signs
    return excitation


def quantize(values, step):
    """Uniform scalar quantization (what the bitstream would carry)."""
    return np.round(np.asarray(values, dtype=np.float64) / step) * step


@dataclass
class EncodedFrame:
    """The 'bitstream' of one frame (quantized parameters)."""

    index: int
    lpc: np.ndarray
    lag: int
    pitch_gain: float
    positions: np.ndarray
    signs: np.ndarray
    gain: float

    @property
    def n(self):
        return FRAME_LEN


def snr_db(reference, reconstructed):
    """Segmental signal-to-noise ratio of the reconstruction."""
    reference = np.asarray(reference, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    noise = reference - reconstructed
    signal_energy = np.dot(reference, reference)
    noise_energy = np.dot(noise, noise)
    if noise_energy == 0:
        return np.inf
    if signal_energy == 0:
        return -np.inf
    return 10.0 * np.log10(signal_energy / noise_energy)
