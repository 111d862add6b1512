"""The predecode lowering pass: IR → bound handler closures.

:func:`predecode` lowers the program's :class:`~repro.cpu.ir.IROp`
array into a dense list of handler closures (indexed by
``(pc - text_base) >> 2``) plus per-slot timing metadata — the
classic predecode-then-dispatch idiom of fast interpreters, with no
code generation.  The traced run loop
(:func:`~repro.cpu.engine.traced.run_traced`) retires cold slots
through these closures one at a time, and generated regions and
traces call them for the members they do not inline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cpu import alu
from repro.cpu.exceptions import SimulationError
from repro.cpu.ir import IROp, build_ir, op_base_cycles, op_taken_penalty
from repro.util.bitops import MASK32, to_signed32

from repro.cpu.engine.dispatch import HALT, OpFn, OpMeta, PredecodedProgram

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.simulator import Simulator


_RR_OPS: dict[str, Callable[[int, int], int]] = {
    "add": alu.add32,
    "sub": alu.sub32,
    "mul": alu.mul32_lo,
    "mulh": alu.mul32_hi,
    "slt": alu.slt,
    "sltu": alu.sltu,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: (~(a | b)) & MASK32,
}

_SHIFT_OPS: dict[str, Callable[[int, int], int]] = {
    "sll": alu.sll, "srl": alu.srl, "sra": alu.sra,
    "sllv": alu.sll, "srlv": alu.srl, "srav": alu.sra,
}

_LOADERS = {
    "lb": ("load_byte", True),
    "lh": ("load_half", True),
    "lw": ("load_word", None),
    "lbu": ("load_byte", False),
    "lhu": ("load_half", False),
}

_STORERS = {"sb": "store_byte", "sh": "store_half", "sw": "store_word"}


def _lower_fast(op: IROp, sim: "Simulator") -> OpFn:
    """Lower one :class:`IROp` into a handler closure.

    Operand fields, ALU callables, bound register-file / memory methods
    and absolute branch targets are all captured as default arguments so
    the per-step call touches only locals.  Consumes IR fields only —
    the documented lowering-pass contract.
    """
    state = sim.state
    regs = state.regs
    memory = sim.memory
    zolc = sim.zolc
    read = regs.read
    write = regs.write
    read_signed = regs.read_signed
    m = op.mnemonic
    rs, rt, rd = op.rs, op.rt, op.rd

    if m in _RR_OPS:
        def fn(pc, write=write, read=read, op=_RR_OPS[m], rd=rd, rs=rs, rt=rt):
            write(rd, op(read(rs), read(rt)))
            return None
        return fn

    if m in ("sll", "srl", "sra"):
        def fn(pc, write=write, read=read, op=_SHIFT_OPS[m],
               rd=rd, rt=rt, shamt=op.shamt):
            write(rd, op(read(rt), shamt))
            return None
        return fn

    if m in ("sllv", "srlv", "srav"):
        def fn(pc, write=write, read=read, op=_SHIFT_OPS[m],
               rd=rd, rs=rs, rt=rt):
            write(rd, op(read(rt), read(rs) & 31))
            return None
        return fn

    if m in ("addi", "slti", "sltiu", "andi", "ori", "xori", "lui"):
        # The semantic immediate sign-extends onto the 32-bit datapath;
        # masking here (once) makes that explicit for all three signed
        # immediate forms, while the logical forms use the low 16 bits.
        imm32 = op.imm & MASK32
        imm16 = op.imm & 0xFFFF
        if m == "addi":
            def fn(pc, write=write, read=read, rt=rt, rs=rs, imm32=imm32):
                write(rt, (read(rs) + imm32) & MASK32)
                return None
        elif m == "slti":
            simm = to_signed32(imm32)
            def fn(pc, write=write, read_signed=read_signed,
                   rt=rt, rs=rs, simm=simm):
                write(rt, 1 if read_signed(rs) < simm else 0)
                return None
        elif m == "sltiu":
            def fn(pc, write=write, read=read, rt=rt, rs=rs, imm32=imm32):
                write(rt, 1 if read(rs) < imm32 else 0)
                return None
        elif m == "andi":
            def fn(pc, write=write, read=read, rt=rt, rs=rs, imm16=imm16):
                write(rt, read(rs) & imm16)
                return None
        elif m == "ori":
            def fn(pc, write=write, read=read, rt=rt, rs=rs, imm16=imm16):
                write(rt, read(rs) | imm16)
                return None
        elif m == "xori":
            def fn(pc, write=write, read=read, rt=rt, rs=rs, imm16=imm16):
                write(rt, read(rs) ^ imm16)
                return None
        else:  # lui
            value = imm16 << 16
            def fn(pc, write=write, rt=rt, value=value):
                write(rt, value)
                return None
        return fn

    if m in _LOADERS:
        loader, signed = _LOADERS[m]
        load = getattr(memory, loader)
        if signed is None:
            def fn(pc, write=write, read=read, load=load,
                   rt=rt, rs=rs, imm=op.imm):
                write(rt, load((read(rs) + imm) & MASK32) & MASK32)
                return None
        else:
            def fn(pc, write=write, read=read, load=load,
                   rt=rt, rs=rs, imm=op.imm, signed=signed):
                write(rt, load((read(rs) + imm) & MASK32, signed) & MASK32)
                return None
        return fn

    if m in _STORERS:
        store = getattr(memory, _STORERS[m])
        def fn(pc, read=read, store=store, rt=rt, rs=rs, imm=op.imm):
            store((read(rs) + imm) & MASK32, read(rt))
            return None
        return fn

    if op.is_branch and m != "dbne":
        target = op.target
        if m == "beq":
            def fn(pc, read=read, rs=rs, rt=rt, target=target):
                return target if read(rs) == read(rt) else None
        elif m == "bne":
            def fn(pc, read=read, rs=rs, rt=rt, target=target):
                return target if read(rs) != read(rt) else None
        elif m == "blez":
            def fn(pc, read_signed=read_signed, rs=rs, target=target):
                return target if read_signed(rs) <= 0 else None
        elif m == "bgtz":
            def fn(pc, read_signed=read_signed, rs=rs, target=target):
                return target if read_signed(rs) > 0 else None
        elif m == "bltz":
            def fn(pc, read_signed=read_signed, rs=rs, target=target):
                return target if read_signed(rs) < 0 else None
        elif m == "bgez":
            def fn(pc, read_signed=read_signed, rs=rs, target=target):
                return target if read_signed(rs) >= 0 else None
        else:
            raise SimulationError(f"no predecoder for branch {m!r}")
        return fn

    if m == "dbne":
        def fn(pc, read=read, write=write, rs=rs, target=op.target):
            value = (read(rs) - 1) & MASK32
            write(rs, value)
            return target if value else None
        return fn

    if m == "j":
        def fn(pc, target=op.target):
            return target
        return fn

    if m == "jal":
        def fn(pc, write=write, target=op.target, link=op.link):
            write(31, link)
            return target
        return fn

    if m == "jr":
        def fn(pc, read=read, rs=rs):
            return read(rs)
        return fn

    if m == "jalr":
        def fn(pc, read=read, write=write, rd=rd, rs=rs, link=op.link):
            target = read(rs)
            write(rd, link)
            return target
        return fn

    if m == "halt":
        def fn(pc, state=state):
            state.halted = True
            return HALT
        return fn

    if m in ("mtz", "mfz"):
        if zolc is None:
            def fn(pc, m=m):
                raise SimulationError(
                    f"{m} executed on a machine without a ZOLC "
                    f"(pc={pc:#x}); attach a ZolcController")
        elif m == "mtz":
            # The compiled port hands out one bound writer per
            # selector, so a retirement pays no selector decode; the
            # source register is read straight from the register list
            # (a uZOLC preheader retires one ``mtz`` per table field
            # on every loop invocation).
            def fn(pc, zwrite=zolc.writer(op.imm), g=regs._regs, rt=rt):
                zwrite(g[rt])
                return None
        else:
            def fn(pc, write=write, zread=zolc.read, sel=op.imm, rt=rt):
                write(rt, zread(sel) & MASK32)
                return None
        return fn

    raise SimulationError(f"no predecoder for mnemonic {m!r}")


def predecode(sim: "Simulator") -> PredecodedProgram | None:
    """Predecode a simulator's program into a dense handler array.

    Returns ``None`` when the text image is not a dense run of words
    starting at ``text_base`` (never produced by the assembler, but the
    caller falls back to the stepped interpreter rather than guessing).
    """
    ir = build_ir(sim.program)
    if ir is None:
        return None
    config = sim.timing.config
    ops: list[tuple[OpFn, int, frozenset[int], int | None, int]] = []
    metas: list[OpMeta] = []
    for op in ir:
        ops.append((_lower_fast(op, sim), op_base_cycles(op, config),
                    op.uses, op.load_dest, op_taken_penalty(op, config)))
        metas.append(OpMeta(op.category_key, op.is_zolc_init,
                            op.can_transfer, op.zolc_ctrl))
    return PredecodedProgram(ops, metas, ir)

