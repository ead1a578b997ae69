"""Synthetic speech source.

The paper used real speech through the GSM vocoder; offline we generate
a deterministic speech-like signal: voiced stretches (glottal pulse
train through a resonant vocal-tract filter) alternating with unvoiced
noise — enough spectral structure for LPC to achieve real prediction
gain, so encoder/decoder quality is measurable.
"""

import numpy as np

from repro.apps.vocoder.dsp import FRAME_LEN

SAMPLE_RATE = 8000
#: one frame is 20 ms
FRAME_PERIOD_NS = 20_000_000


def speech_signal(n_frames, seed=2003):
    """A deterministic speech-like waveform of ``n_frames`` frames."""
    rng = np.random.default_rng(seed)
    total = n_frames * FRAME_LEN
    signal = np.zeros(total)
    position = 0
    voiced = True
    while position < total:
        span = min(int(rng.integers(3, 7)) * FRAME_LEN, total - position)
        if voiced:
            segment = _voiced_segment(span, rng)
        else:
            segment = _unvoiced_segment(span, rng)
        signal[position : position + span] = segment
        position += span
        voiced = not voiced
    # gentle amplitude envelope so frames differ in energy
    envelope = 0.6 + 0.4 * np.sin(np.linspace(0, 3.1, total))
    return signal * envelope


def _voiced_segment(n, rng):
    """Pulse train through a two-resonance vocal-tract filter."""
    pitch = int(rng.integers(40, 90))  # 89..200 Hz
    excitation = np.zeros(n)
    excitation[::pitch] = 1.0
    excitation += 0.02 * rng.standard_normal(n)
    formants = [(500 + 200 * rng.random(), 0.95), (1500 + 500 * rng.random(), 0.9)]
    return _resonate(excitation, formants) * 0.8


def _unvoiced_segment(n, rng):
    noise = rng.standard_normal(n)
    return _resonate(noise, [(2500 + 500 * rng.random(), 0.85)]) * 0.15


def _resonate(signal, formants):
    out = signal
    for freq, radius in formants:
        theta = 2 * np.pi * freq / SAMPLE_RATE
        a1 = float(2 * radius * np.cos(theta))
        a2 = -radius * radius
        filtered = []
        append = filtered.append
        y1 = y2 = 0.0
        for x in out.tolist():
            y1, y2 = x + a1 * y1 + a2 * y2, y1
            append(y1)
        out = np.array(filtered)
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def frames_of(signal):
    """Split a waveform into FRAME_LEN-sample frames."""
    n_frames = len(signal) // FRAME_LEN
    return [
        signal[i * FRAME_LEN : (i + 1) * FRAME_LEN].copy()
        for i in range(n_frames)
    ]


def speech_frames(n_frames, seed=2003):
    return frames_of(speech_signal(n_frames, seed))
