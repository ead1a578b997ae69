"""Cycle-counting instruction-set simulator.

Executes assembled :class:`~repro.synthesis.program.Program` images with
per-instruction cycle costs, two prioritized interrupt lines (timer and
external), a syscall trap, and memory-mapped devices — the execution
substrate of the implementation model (paper Figure 2(c)).

The ISS can run standalone (``run``) or be embedded as a processing
element inside the SLDL simulation (see
:class:`~repro.synthesis.cosim.ISSProcessor`), which is how the paper
co-simulates the compiled software with the rest of the system.
"""

from repro.synthesis import isa
from repro.synthesis.isa import (
    FLAG_IE,
    FLAG_N,
    FLAG_Z,
    MASK32,
    MEM_SIZE,
    MMIO_BASE,
    MMIO_CONSOLE,
    MMIO_CYCLES,
    MMIO_HALT,
    MMIO_TIMER_PERIOD,
    SP,
    LR,
    VEC_EXTERNAL,
    VEC_SYSCALL,
    VEC_TIMER,
    IRQ_TIMER,
    to_signed,
)


class ISSError(Exception):
    """Illegal execution (bad PC, unmapped device, stack issues)."""


class ISS:
    """The processor core.

    Parameters
    ----------
    program:
        Assembled :class:`Program` to load.
    devices:
        Optional ``{address: device}`` map for application MMIO; a
        device implements ``read(iss)`` and/or ``write(iss, value)``.
    """

    def __init__(self, program, devices=None):
        self.memory = [0] * MEM_SIZE
        for address, value in program.image.items():
            self.memory[address] = value
        self.program = program
        self.regs = [0] * isa.NUM_REGS
        self.pc = program.entry
        self.flags = 0
        self.cycles = 0
        self.instructions = 0
        self.halted = False
        self.exit_code = None
        self.pending_irqs = set()
        self.timer_period = 0
        self._next_timer = None
        self.devices = dict(devices or {})
        #: (cycle, value) records written to the console MMIO register
        self.console = []
        #: counts per syscall number (filled by the kernel convention
        #: of writing the number in r1)
        self.syscall_counts = {}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, max_cycles=10_000_000):
        """Execute until halt or the cycle budget is exhausted.

        Returns the number of cycles consumed in this call.
        """
        start = self.cycles
        limit = start + max_cycles
        while not self.halted and self.cycles < limit:
            self.step()
        return self.cycles - start

    def step(self):
        """Execute one instruction (servicing interrupts first)."""
        if self.halted:
            return
        self._tick_timer()
        if self.pending_irqs and (self.flags & FLAG_IE):
            self._take_interrupt()
        insn = self.memory[self.pc]
        if not isinstance(insn, tuple):
            raise ISSError(
                f"pc={self.pc:#06x}: not an instruction ({insn!r})"
            )
        opcode, operands = insn
        self.instructions += 1
        self.cycles += isa.INSTRUCTIONS[opcode][1]
        self.pc += 1
        getattr(self, f"_op_{opcode}")(*operands)

    def raise_irq(self, line):
        """Assert an interrupt line (from devices or the co-simulation)."""
        self.pending_irqs.add(line)

    # ------------------------------------------------------------------
    # interrupts and timer
    # ------------------------------------------------------------------

    def _tick_timer(self):
        if self._next_timer is not None and self.cycles >= self._next_timer:
            self.pending_irqs.add(IRQ_TIMER)
            self._next_timer += self.timer_period

    def _take_interrupt(self):
        line = min(self.pending_irqs)
        self.pending_irqs.discard(line)
        vector = VEC_TIMER if line == IRQ_TIMER else VEC_EXTERNAL
        self._push(self.flags)
        self._push(self.pc)
        self.flags &= ~FLAG_IE
        self.pc = self.memory[vector]
        self.cycles += 4  # interrupt entry latency

    # ------------------------------------------------------------------
    # memory and stack
    # ------------------------------------------------------------------

    def _load(self, address):
        address &= 0xFFFF
        if address >= MMIO_BASE:
            return self._mmio_read(address)
        value = self.memory[address]
        if isinstance(value, tuple):
            raise ISSError(f"load of instruction word at {address:#06x}")
        return value & MASK32

    def _store(self, address, value):
        address &= 0xFFFF
        if address >= MMIO_BASE:
            self._mmio_write(address, value & MASK32)
            return
        self.memory[address] = value & MASK32

    def _push(self, value):
        self.regs[SP] = (self.regs[SP] - 1) & MASK32
        self._store(self.regs[SP], value)

    def _pop(self):
        value = self._load(self.regs[SP])
        self.regs[SP] = (self.regs[SP] + 1) & MASK32
        return value

    def _mmio_read(self, address):
        if address == MMIO_CYCLES:
            return self.cycles & MASK32
        device = self.devices.get(address)
        if device is None or not hasattr(device, "read"):
            raise ISSError(f"read from unmapped device {address:#06x}")
        return device.read(self) & MASK32

    def _mmio_write(self, address, value):
        if address == MMIO_TIMER_PERIOD:
            self.timer_period = value
            self._next_timer = self.cycles + value if value else None
            return
        if address == MMIO_CONSOLE:
            self.console.append((self.cycles, to_signed(value)))
            return
        if address == MMIO_HALT:
            self.halted = True
            self.exit_code = to_signed(value)
            return
        device = self.devices.get(address)
        if device is None or not hasattr(device, "write"):
            raise ISSError(f"write to unmapped device {address:#06x}")
        device.write(self, value)

    # ------------------------------------------------------------------
    # flags
    # ------------------------------------------------------------------

    def _set_zn(self, value):
        value &= MASK32
        self.flags &= ~(FLAG_Z | FLAG_N)
        if value == 0:
            self.flags |= FLAG_Z
        if value & (1 << 31):
            self.flags |= FLAG_N
        return value

    # ------------------------------------------------------------------
    # instruction semantics
    # ------------------------------------------------------------------

    def _op_nop(self):
        pass

    def _op_halt(self):
        self.halted = True

    def _op_ldi(self, rd, imm):
        self.regs[rd] = imm & MASK32

    def _op_mov(self, rd, rs):
        self.regs[rd] = self.regs[rs]

    def _binary(self, rd, ra, rb, fn):
        self.regs[rd] = self._set_zn(
            fn(to_signed(self.regs[ra]), to_signed(self.regs[rb]))
        )

    def _op_add(self, rd, ra, rb):
        self._binary(rd, ra, rb, lambda a, b: a + b)

    def _op_sub(self, rd, ra, rb):
        self._binary(rd, ra, rb, lambda a, b: a - b)

    def _op_mul(self, rd, ra, rb):
        self._binary(rd, ra, rb, lambda a, b: a * b)

    def _op_div(self, rd, ra, rb):
        divisor = to_signed(self.regs[rb])
        if divisor == 0:
            raise ISSError(f"division by zero at pc={self.pc - 1:#06x}")
        self._binary(rd, ra, rb, lambda a, b: int(a / b))

    def _op_and(self, rd, ra, rb):
        self.regs[rd] = self._set_zn(self.regs[ra] & self.regs[rb])

    def _op_or(self, rd, ra, rb):
        self.regs[rd] = self._set_zn(self.regs[ra] | self.regs[rb])

    def _op_xor(self, rd, ra, rb):
        self.regs[rd] = self._set_zn(self.regs[ra] ^ self.regs[rb])

    def _op_shl(self, rd, ra, rb):
        self.regs[rd] = self._set_zn(self.regs[ra] << (self.regs[rb] & 31))

    def _op_shr(self, rd, ra, rb):
        self.regs[rd] = self._set_zn(self.regs[ra] >> (self.regs[rb] & 31))

    def _op_addi(self, rd, ra, imm):
        self.regs[rd] = self._set_zn(to_signed(self.regs[ra]) + imm)

    def _op_subi(self, rd, ra, imm):
        self.regs[rd] = self._set_zn(to_signed(self.regs[ra]) - imm)

    def _op_muli(self, rd, ra, imm):
        self.regs[rd] = self._set_zn(to_signed(self.regs[ra]) * imm)

    def _op_ld(self, rd, mem):
        base, offset = mem
        self.regs[rd] = self._load(to_signed(self.regs[base]) + offset)

    def _op_st(self, rs, mem):
        base, offset = mem
        self._store(to_signed(self.regs[base]) + offset, self.regs[rs])

    def _op_push(self, ra):
        self._push(self.regs[ra])

    def _op_pop(self, rd):
        self.regs[rd] = self._pop()

    def _op_cmp(self, ra, rb):
        self._set_zn(to_signed(self.regs[ra]) - to_signed(self.regs[rb]))

    def _op_cmpi(self, ra, imm):
        self._set_zn(to_signed(self.regs[ra]) - imm)

    def _op_jmp(self, target):
        self.pc = target

    def _op_jr(self, ra):
        self.pc = self.regs[ra] & 0xFFFF

    def _op_beq(self, target):
        if self.flags & FLAG_Z:
            self.pc = target

    def _op_bne(self, target):
        if not self.flags & FLAG_Z:
            self.pc = target

    def _op_blt(self, target):
        if self.flags & FLAG_N:
            self.pc = target

    def _op_bge(self, target):
        if not self.flags & FLAG_N:
            self.pc = target

    def _op_ble(self, target):
        if self.flags & (FLAG_N | FLAG_Z):
            self.pc = target

    def _op_bgt(self, target):
        if not self.flags & (FLAG_N | FLAG_Z):
            self.pc = target

    def _op_call(self, target):
        self.regs[LR] = self.pc
        self.pc = target

    def _op_ret(self):
        self.pc = self.regs[LR] & 0xFFFF

    def _op_syscall(self, number):
        self.syscall_counts[number] = self.syscall_counts.get(number, 0) + 1
        self.regs[1] = number & MASK32
        self._push(self.flags)
        self._push(self.pc)
        self.flags &= ~FLAG_IE
        self.pc = self.memory[VEC_SYSCALL]

    def _op_iret(self):
        self.pc = self._pop() & 0xFFFF
        self.flags = self._pop()

    def _op_ei(self):
        self.flags |= FLAG_IE

    def _op_di(self):
        self.flags &= ~FLAG_IE
