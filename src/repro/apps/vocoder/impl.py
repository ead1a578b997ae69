"""The vocoder implementation model (Figure 2(c)).

Software synthesis output: encoder and decoder compiled into target
assembly, linked against the custom RTOS kernel
(:mod:`repro.synthesis.kernel_rt`), executing on the cycle-counting ISS,
co-simulated inside the SLDL (frame interrupts arrive from the SLDL
side through the IRQ bridge).

Timing-equivalent computation: the stage budgets of the encoder/decoder
are converted into cycle budgets on a 4 MHz core (250 ns per cycle) and
realized as calibrated compute loops, while frame payloads move through
target memory for real (ADC buffer → work buffer → DAC buffer). The
numeric DSP itself runs only in the Python models — see DESIGN.md,
substitutions.
"""

import time

import numpy as np

from repro.apps.vocoder.decoder import DECODER_WCET_NS
from repro.apps.vocoder.encoder import ENCODER_WCET_NS
from repro.apps.vocoder.frames import FRAME_PERIOD_NS, speech_frames
from repro.apps.vocoder.models import (
    DECODER_PHASE_NS,
    DECODER_PRIORITY,
    ENCODER_PRIORITY,
    VocoderRun,
    check_frame_count,
)
from repro.apps.vocoder.dsp import FRAME_LEN
from repro.kernel import Simulator
from repro.platform import IrqLine
from repro.synthesis import (
    CodeGenerator,
    Compute,
    Copy,
    Halt,
    ISSProcessor,
    Loop,
    Mark,
    SemPost,
    SemWait,
    Sleep,
    TaskProgram,
)
from repro.synthesis.kernel_rt import ADDR_CTXSW

#: 4 MHz core: one cycle is 250 ns of simulated time
CYCLE_NS = 250
#: RTOS tick: 2000 cycles = 500 us
TICK_CYCLES = 2000

SEM_FRAME = 0  # posted by the frame interrupt
SEM_BITS = 1  # encoder -> decoder

MARK_ENC_DONE = 1
MARK_DEC_DONE = 2

ADC_BUF = 0x2000
WORK_BUF = 0x2100
DAC_BUF = 0x2200

#: cycles consumed by a Copy of one frame (setup + 160 * loop body)
_COPY_CYCLES = 3 + FRAME_LEN * 9
#: rough per-frame kernel overhead (syscalls, ISR) excluded from burn
_KERNEL_SLACK = 400
#: ticks shaved off the decoder's phase-alignment sleep to compensate
#: kernel latency (tick ISR + scheduling) — the usual firmware
#: calibration step when aligning to an output clock
_ALIGN_TUNE_TICKS = 2


def _cycles(ns):
    return ns // CYCLE_NS


def build_vocoder_program(n_frames):
    """Generate and assemble the implementation-model program."""
    enc_burn = _cycles(ENCODER_WCET_NS) - _COPY_CYCLES - _KERNEL_SLACK
    dec_burn = _cycles(DECODER_WCET_NS) - _COPY_CYCLES - _KERNEL_SLACK
    align_ticks = max(
        0,
        _cycles(DECODER_PHASE_NS - ENCODER_WCET_NS) // TICK_CYCLES
        - _ALIGN_TUNE_TICKS,
    )

    encoder = TaskProgram(
        "encoder", ENCODER_PRIORITY,
        [
            Loop(n_frames, [
                SemWait(SEM_FRAME),
                Copy(ADC_BUF, WORK_BUF, FRAME_LEN),
                Compute(enc_burn),
                Mark(MARK_ENC_DONE),
                SemPost(SEM_BITS),
            ]),
        ],
    )
    decoder = TaskProgram(
        "decoder", DECODER_PRIORITY,
        [
            Loop(n_frames, [
                SemWait(SEM_BITS),
                Sleep(align_ticks),
                Compute(dec_burn),
                Copy(WORK_BUF, DAC_BUF, FRAME_LEN),
                Mark(MARK_DEC_DONE),
            ]),
            Halt(),
        ],
    )
    generator = CodeGenerator(timer_period=TICK_CYCLES, ext_sem=SEM_FRAME)
    iss, program = generator.build([encoder, decoder])
    return iss, program


def run_implementation(n_frames=10, seed=2003, chunk=500):
    """Execute the implementation model in SLDL co-simulation."""
    check_frame_count(n_frames)
    started = time.perf_counter()
    sim = Simulator()
    iss, program = build_vocoder_program(n_frames)
    cpu = ISSProcessor(sim, iss, name="dsp", clock_period=CYCLE_NS, chunk=chunk)
    line = IrqLine(sim, "frame-irq")
    cpu.connect_irq(line)

    frames = speech_frames(n_frames, seed)
    quantized = [np.clip(f * 32767, -32768, 32767).astype(int) for f in frames]
    dac_log = []

    def _deliver(index):
        def _cb():
            sim.trace.record(sim.now, "user", "source", f"frame-in-{index}")
            for offset, sample in enumerate(quantized[index]):
                iss.memory[ADC_BUF + offset] = sample & 0xFFFFFFFF
            line.raise_irq()

        return _cb

    for index in range(n_frames):
        sim.schedule_at(index * FRAME_PERIOD_NS, _deliver(index))

    # observe each decode completion to capture the DAC buffer contents
    def watch_dac():
        from repro.kernel import WaitFor

        seen = 0
        while not cpu.halted and seen < n_frames:
            dec_marks = [c for c, v in iss.console if v == MARK_DEC_DONE]
            if len(dec_marks) > seen:
                dac_log.append(
                    [iss.memory[DAC_BUF + i] for i in range(FRAME_LEN)]
                )
                seen += 1
            yield WaitFor(chunk * CYCLE_NS)

    sim.spawn(watch_dac(), name="dac-watch")
    sim.run(until=(n_frames + 3) * FRAME_PERIOD_NS)

    arrivals = [i * FRAME_PERIOD_NS for i in range(n_frames)]
    dec_times = [c * CYCLE_NS for c, v in iss.console if v == MARK_DEC_DONE]
    delays = [d - a for a, d in zip(arrivals, dec_times)]
    return VocoderRun(
        model="implementation",
        n_frames=n_frames,
        delays_ns=delays,
        snrs_db=[],
        context_switches=iss.memory[ADDR_CTXSW],
        host_seconds=time.perf_counter() - started,
        sim=sim,
        extra={
            "cycles": iss.cycles,
            "instructions": iss.instructions,
            "program_loc": program.loc,
            "halted": iss.halted,
            "dac_frames": dac_log,
            "quantized_frames": quantized,
        },
    )
