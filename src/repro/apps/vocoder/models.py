"""The vocoder at the specification and architecture levels.

Structure of the case study (paper Section 5): encoder and decoder run
as two software tasks; frames arrive every 20 ms; *back-to-back mode*
feeds the encoder's bitstream directly into the decoder. The measured
transcoding delay — frame arrival to decoded output — is the paper's
response-time metric.

* **Specification model** (:func:`run_specification`): source, encoder
  and decoder as concurrent SLDL behaviors; purely data-driven.
* **Architecture model** (:func:`run_architecture`): one DSP with an
  RTOS model; frames arrive by interrupt (ISR → semaphore → encoder
  task); the decoder is a *periodic* task phase-aligned to the 20 ms
  output (D/A) clock at +10 ms — output pacing a deployed vocoder needs,
  and the source of the architecture model's larger transcoding delay.
* The **implementation model** lives in
  :mod:`repro.apps.vocoder.impl` (generated code on the ISS).
"""

import time
from dataclasses import dataclass, field

from repro.apps.vocoder.decoder import DECODER_WCET_NS, DecoderCore
from repro.apps.vocoder.dsp import snr_db
from repro.apps.vocoder.encoder import ENCODER_WCET_NS, EncoderCore
from repro.apps.vocoder.frames import FRAME_PERIOD_NS, speech_frames
from repro.channels import Queue, RTOSQueue, RTOSSemaphore
from repro.kernel import Simulator, WaitFor
from repro.platform import InterruptController, IrqLine
from repro.rtos import APERIODIC, PERIODIC, RTOSModel

#: decoder release phase relative to the frame clock (output alignment)
DECODER_PHASE_NS = 10_000_000

ENCODER_PRIORITY = 1
DECODER_PRIORITY = 2


@dataclass
class VocoderRun:
    """Results of one vocoder simulation at any abstraction level."""

    model: str
    n_frames: int
    delays_ns: list
    snrs_db: list
    context_switches: int
    host_seconds: float
    sim: object = None
    extra: dict = field(default_factory=dict)

    @property
    def mean_delay_ms(self):
        return sum(self.delays_ns) / len(self.delays_ns) / 1e6

    @property
    def max_delay_ms(self):
        return max(self.delays_ns) / 1e6

    def summary(self):
        return (
            f"{self.model}: {self.n_frames} frames, "
            f"transcoding delay {self.mean_delay_ms:.2f} ms "
            f"(max {self.max_delay_ms:.2f}), "
            f"{self.context_switches} context switches, "
            f"{self.host_seconds:.3f} s host time"
        )


def check_frame_count(n_frames):
    """Refuse a run of fewer than one frame before anything is built:
    its delays would be empty, so no mean or maximum delay exists."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")


def run_specification(n_frames=10, seed=2003):
    """The unscheduled specification model (Figure 2(a)): encoder and
    decoder as truly concurrent behaviors, data-driven timing."""
    check_frame_count(n_frames)
    started = time.perf_counter()
    sim = Simulator()
    frames = speech_frames(n_frames, seed)
    adc = Queue(capacity=n_frames + 1, name="adc")
    bitstream = Queue(capacity=4, name="bitstream")
    encoder = EncoderCore()
    decoder = DecoderCore()
    decoded = {}

    def source():
        for index, frame in enumerate(frames):
            due = index * FRAME_PERIOD_NS
            if sim.now < due:
                yield WaitFor(due - sim.now)
            sim.trace.record(sim.now, "user", "source", f"frame-in-{index}")
            yield from adc.send((index, frame))

    def encode_task():
        for _ in range(n_frames):
            index, frame = yield from adc.recv()
            for _, budget, fn in encoder.stages(index, frame):
                fn()
                yield WaitFor(budget)
            sim.trace.record(sim.now, "user", "encoder", f"encoded-{index}")
            yield from bitstream.send(encoder.result())

    def decode_task():
        for _ in range(n_frames):
            encoded = yield from bitstream.recv()
            for _, budget, fn in decoder.stages(encoded):
                fn()
                yield WaitFor(budget)
            decoded[encoded.index] = decoder.result()
            sim.trace.record(
                sim.now, "user", "decoder", f"decoded-{encoded.index}"
            )

    sim.spawn(source(), name="source")
    sim.spawn(encode_task(), name="encoder")
    sim.spawn(decode_task(), name="decoder")
    sim.run()
    delays = _delays_from_trace(sim, n_frames)
    snrs = [snr_db(frames[i], decoded[i]) for i in range(n_frames)]
    return VocoderRun(
        model="specification",
        n_frames=n_frames,
        delays_ns=delays,
        snrs_db=snrs,
        context_switches=0,
        host_seconds=time.perf_counter() - started,
        sim=sim,
    )


def run_architecture(n_frames=10, seed=2003, sched="priority",
                     preemption="step", decoder_phase_ns=DECODER_PHASE_NS,
                     switch_overhead=0):
    """The architecture model (Figure 2(b)): both tasks on one DSP under
    the RTOS model; interrupt-driven input, periodic, phase-aligned
    decoder. ``switch_overhead`` enables the kernel-cost extension."""
    check_frame_count(n_frames)
    started = time.perf_counter()
    sim = Simulator()
    os_ = RTOSModel(sim, sched=sched, preemption=preemption, name="dsp.os",
                    switch_overhead=switch_overhead)
    frames = speech_frames(n_frames, seed)
    pending = []
    line = IrqLine(sim, "frame-irq")
    frame_sem = RTOSSemaphore(os_, 0, name="frame-sem")
    bitstream = RTOSQueue(os_, capacity=4, name="bitstream")
    encoder = EncoderCore()
    decoder = DecoderCore()
    decoded = {}

    for index, frame in enumerate(frames):
        def _deliver(index=index, frame=frame):
            pending.append((index, frame))
            sim.trace.record(sim.now, "user", "source", f"frame-in-{index}")
            line.raise_irq()

        sim.schedule_at(index * FRAME_PERIOD_NS, _deliver)

    def isr():
        yield from frame_sem.release()
        os_.interrupt_return()

    pic = InterruptController(sim, name="dsp.pic")
    pic.register(line, isr)

    def encoder_body():
        for _ in range(n_frames):
            yield from frame_sem.acquire()
            index, frame = pending.pop(0)
            for _, budget, fn in encoder.stages(index, frame):
                fn()
                yield from os_.time_wait(budget)
            sim.trace.record(sim.now, "user", "encoder", f"encoded-{index}")
            yield from bitstream.send(encoder.result())

    def decoder_body():
        for _ in range(n_frames):
            encoded = yield from bitstream.recv()
            for _, budget, fn in decoder.stages(encoded):
                fn()
                yield from os_.time_wait(budget)
            decoded[encoded.index] = decoder.result()
            sim.trace.record(
                sim.now, "user", "decoder", f"decoded-{encoded.index}"
            )
            yield from os_.task_endcycle()

    enc_task = os_.task_create(
        "encoder", APERIODIC, 0, ENCODER_WCET_NS, priority=ENCODER_PRIORITY
    )
    dec_task = os_.task_create(
        "decoder", PERIODIC, FRAME_PERIOD_NS, DECODER_WCET_NS,
        priority=DECODER_PRIORITY,
    )
    sim.spawn(os_.task_body(enc_task, encoder_body()), name="encoder")

    def delayed_decoder():
        # the decoder task activates phase-aligned to the output clock
        yield WaitFor(decoder_phase_ns)
        yield from os_.task_body(dec_task, decoder_body())

    sim.spawn(delayed_decoder(), name="decoder")
    os_.spawn_boot()
    sim.run()
    delays = _delays_from_trace(sim, n_frames)
    snrs = [snr_db(frames[i], decoded[i]) for i in range(n_frames)]
    return VocoderRun(
        model="architecture",
        n_frames=n_frames,
        delays_ns=delays,
        snrs_db=snrs,
        context_switches=os_.metrics.context_switches,
        host_seconds=time.perf_counter() - started,
        sim=sim,
        extra={
            "os_metrics": os_.metrics.as_dict(),
            "decoder_response_times": list(dec_task.stats.response_times),
            "deadline_misses": os_.metrics.deadline_misses,
        },
    )


def _delays_from_trace(sim, n_frames):
    """Transcoding delay per frame: frame-in-k -> decoded-k."""
    arrivals = {}
    completions = {}
    for record in sim.trace.by_category("user"):
        if record.info.startswith("frame-in-"):
            arrivals[int(record.info.rsplit("-", 1)[1])] = record.time
        elif record.info.startswith("decoded-"):
            completions[int(record.info.rsplit("-", 1)[1])] = record.time
    return [completions[i] - arrivals[i] for i in range(n_frames)]
