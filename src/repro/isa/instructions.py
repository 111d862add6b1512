"""XR32 instruction set specification.

XR32 is the MIPS-like 32-bit RISC ISA our reproduction uses in place of
the XiRisc soft core.  The table below is the single source of truth for
the assembler, the binary encoder/decoder, the disassembler and the
datapath: every mnemonic maps to an :class:`InstrSpec` describing its
binary format, opcode/funct values and assembly operand syntax.

Three groups of instructions matter for the paper:

* the **base ISA** (ALU / shift / multiply / load / store / branch /
  jump) used by the ``XRdefault`` machine configuration;
* ``dbne`` — the XiRisc-style **branch-decrement** instruction enabled in
  the ``XRhrdwil`` configuration (decrement a register, branch if the
  result is non-zero: one instruction replacing the add/compare/branch
  loop-overhead pattern);
* ``mtz`` / ``mfz`` — the **ZOLC initialization interface** (move a
  register value to / from a ZOLC table location addressed by a 16-bit
  selector), used by the initialization sequences of Section 2 of the
  paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Format(enum.Enum):
    """Binary instruction format."""

    R = "R"  # opcode | rs | rt | rd | shamt | funct
    I = "I"  # opcode | rs | rt | imm16
    J = "J"  # opcode | target26


class Category(enum.Enum):
    """Coarse semantic category used by the timing model and analyses."""

    ALU = "alu"
    SHIFT = "shift"
    MUL = "mul"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    ZOLC = "zolc"
    SYSTEM = "system"


# The ZOLC control selectors of ``mtz``/``mfz`` (the table part of the
# selector map lives in :mod:`repro.core.tables`).  Whether an ``mtz``
# arms or resets the controller is a static fact of the instruction
# word, so the engine IR decodes it from these.
CTRL_ARM = 0x0000       # write 1 to arm (enter active mode), 0 to disarm
CTRL_RESET = 0x0001     # write any value to clear all tables
CTRL_STATUS = 0x0002    # read-only: 1 if armed


# Operand syntax tokens understood by the assembler:
#   rd / rs / rt  : register operand, written into that field
#   shamt         : 5-bit immediate
#   imm           : 16-bit immediate (signed unless the spec says unsigned)
#   mem           : "imm(rs)" memory operand, fills imm and rs
#   label         : PC-relative branch target (fills imm as word offset)
#   target        : absolute jump target (fills target26)
Syntax = tuple[str, ...]


@dataclass(frozen=True)
class InstrSpec:
    """Static description of one XR32 mnemonic."""

    mnemonic: str
    fmt: Format
    category: Category
    opcode: int
    funct: int | None = None
    regimm: int | None = None  # rt field value for the REGIMM group
    syntax: Syntax = field(default=())
    unsigned_imm: bool = False
    reads: Syntax = field(default=())
    writes: Syntax = field(default=())


OP_SPECIAL = 0x00
OP_REGIMM = 0x01
OP_HALT = 0x3F

_SPECS: list[InstrSpec] = [
    # --- shifts (R-type, immediate shift amount) ---
    InstrSpec("sll", Format.R, Category.SHIFT, OP_SPECIAL, funct=0x00,
              syntax=("rd", "rt", "shamt"), reads=("rt",), writes=("rd",)),
    InstrSpec("srl", Format.R, Category.SHIFT, OP_SPECIAL, funct=0x02,
              syntax=("rd", "rt", "shamt"), reads=("rt",), writes=("rd",)),
    InstrSpec("sra", Format.R, Category.SHIFT, OP_SPECIAL, funct=0x03,
              syntax=("rd", "rt", "shamt"), reads=("rt",), writes=("rd",)),
    InstrSpec("sllv", Format.R, Category.SHIFT, OP_SPECIAL, funct=0x04,
              syntax=("rd", "rt", "rs"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("srlv", Format.R, Category.SHIFT, OP_SPECIAL, funct=0x06,
              syntax=("rd", "rt", "rs"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("srav", Format.R, Category.SHIFT, OP_SPECIAL, funct=0x07,
              syntax=("rd", "rt", "rs"), reads=("rs", "rt"), writes=("rd",)),
    # --- register jumps ---
    InstrSpec("jr", Format.R, Category.JUMP, OP_SPECIAL, funct=0x08,
              syntax=("rs",), reads=("rs",)),
    InstrSpec("jalr", Format.R, Category.JUMP, OP_SPECIAL, funct=0x09,
              syntax=("rd", "rs"), reads=("rs",), writes=("rd",)),
    # --- multiply (single-cycle 32x32 as on XiRisc's embedded multiplier) ---
    InstrSpec("mul", Format.R, Category.MUL, OP_SPECIAL, funct=0x18,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("mulh", Format.R, Category.MUL, OP_SPECIAL, funct=0x19,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    # --- ALU register-register ---
    InstrSpec("add", Format.R, Category.ALU, OP_SPECIAL, funct=0x20,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("sub", Format.R, Category.ALU, OP_SPECIAL, funct=0x22,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("and", Format.R, Category.ALU, OP_SPECIAL, funct=0x24,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("or", Format.R, Category.ALU, OP_SPECIAL, funct=0x25,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("xor", Format.R, Category.ALU, OP_SPECIAL, funct=0x26,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("nor", Format.R, Category.ALU, OP_SPECIAL, funct=0x27,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("slt", Format.R, Category.ALU, OP_SPECIAL, funct=0x2A,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    InstrSpec("sltu", Format.R, Category.ALU, OP_SPECIAL, funct=0x2B,
              syntax=("rd", "rs", "rt"), reads=("rs", "rt"), writes=("rd",)),
    # --- REGIMM branches ---
    InstrSpec("bltz", Format.I, Category.BRANCH, OP_REGIMM, regimm=0x00,
              syntax=("rs", "label"), reads=("rs",)),
    InstrSpec("bgez", Format.I, Category.BRANCH, OP_REGIMM, regimm=0x01,
              syntax=("rs", "label"), reads=("rs",)),
    # --- jumps ---
    InstrSpec("j", Format.J, Category.JUMP, 0x02, syntax=("target",)),
    InstrSpec("jal", Format.J, Category.JUMP, 0x03, syntax=("target",),
              writes=("ra",)),
    # --- conditional branches ---
    InstrSpec("beq", Format.I, Category.BRANCH, 0x04,
              syntax=("rs", "rt", "label"), reads=("rs", "rt")),
    InstrSpec("bne", Format.I, Category.BRANCH, 0x05,
              syntax=("rs", "rt", "label"), reads=("rs", "rt")),
    InstrSpec("blez", Format.I, Category.BRANCH, 0x06,
              syntax=("rs", "label"), reads=("rs",)),
    InstrSpec("bgtz", Format.I, Category.BRANCH, 0x07,
              syntax=("rs", "label"), reads=("rs",)),
    # --- ALU immediate ---
    InstrSpec("addi", Format.I, Category.ALU, 0x08,
              syntax=("rt", "rs", "imm"), reads=("rs",), writes=("rt",)),
    InstrSpec("slti", Format.I, Category.ALU, 0x0A,
              syntax=("rt", "rs", "imm"), reads=("rs",), writes=("rt",)),
    InstrSpec("sltiu", Format.I, Category.ALU, 0x0B,
              syntax=("rt", "rs", "imm"), reads=("rs",), writes=("rt",)),
    InstrSpec("andi", Format.I, Category.ALU, 0x0C, unsigned_imm=True,
              syntax=("rt", "rs", "imm"), reads=("rs",), writes=("rt",)),
    InstrSpec("ori", Format.I, Category.ALU, 0x0D, unsigned_imm=True,
              syntax=("rt", "rs", "imm"), reads=("rs",), writes=("rt",)),
    InstrSpec("xori", Format.I, Category.ALU, 0x0E, unsigned_imm=True,
              syntax=("rt", "rs", "imm"), reads=("rs",), writes=("rt",)),
    InstrSpec("lui", Format.I, Category.ALU, 0x0F, unsigned_imm=True,
              syntax=("rt", "imm"), writes=("rt",)),
    # --- XiRisc-style hardware-loop extension (XRhrdwil) ---
    InstrSpec("dbne", Format.I, Category.BRANCH, 0x1C,
              syntax=("rs", "label"), reads=("rs",), writes=("rs",)),
    # --- ZOLC initialization interface ---
    InstrSpec("mtz", Format.I, Category.ZOLC, 0x1D, unsigned_imm=True,
              syntax=("rt", "imm"), reads=("rt",)),
    InstrSpec("mfz", Format.I, Category.ZOLC, 0x1E, unsigned_imm=True,
              syntax=("rt", "imm"), writes=("rt",)),
    # --- loads / stores ---
    InstrSpec("lb", Format.I, Category.LOAD, 0x20,
              syntax=("rt", "mem"), reads=("rs",), writes=("rt",)),
    InstrSpec("lh", Format.I, Category.LOAD, 0x21,
              syntax=("rt", "mem"), reads=("rs",), writes=("rt",)),
    InstrSpec("lw", Format.I, Category.LOAD, 0x23,
              syntax=("rt", "mem"), reads=("rs",), writes=("rt",)),
    InstrSpec("lbu", Format.I, Category.LOAD, 0x24,
              syntax=("rt", "mem"), reads=("rs",), writes=("rt",)),
    InstrSpec("lhu", Format.I, Category.LOAD, 0x25,
              syntax=("rt", "mem"), reads=("rs",), writes=("rt",)),
    InstrSpec("sb", Format.I, Category.STORE, 0x28,
              syntax=("rt", "mem"), reads=("rs", "rt")),
    InstrSpec("sh", Format.I, Category.STORE, 0x29,
              syntax=("rt", "mem"), reads=("rs", "rt")),
    InstrSpec("sw", Format.I, Category.STORE, 0x2B,
              syntax=("rt", "mem"), reads=("rs", "rt")),
    # --- simulator control ---
    InstrSpec("halt", Format.I, Category.SYSTEM, OP_HALT, syntax=()),
]

SPEC_BY_MNEMONIC: dict[str, InstrSpec] = {s.mnemonic: s for s in _SPECS}

SPEC_BY_OPCODE: dict[int, InstrSpec] = {
    s.opcode: s for s in _SPECS
    if s.opcode not in (OP_SPECIAL, OP_REGIMM)
}
SPEC_BY_FUNCT: dict[int, InstrSpec] = {
    s.funct: s for s in _SPECS if s.opcode == OP_SPECIAL
}
SPEC_BY_REGIMM: dict[int, InstrSpec] = {
    s.regimm: s for s in _SPECS if s.opcode == OP_REGIMM
}

ALL_MNEMONICS: tuple[str, ...] = tuple(sorted(SPEC_BY_MNEMONIC))

# Mnemonics whose imm field is a PC-relative word offset.
BRANCH_MNEMONICS: frozenset[str] = frozenset(
    s.mnemonic for s in _SPECS if s.category is Category.BRANCH
)
# Direct jumps with a 26-bit absolute word target.
JUMP_MNEMONICS: frozenset[str] = frozenset(("j", "jal"))


@dataclass
class Instruction:
    """A single decoded / assembled XR32 instruction.

    ``imm`` stores the *semantic* immediate: for branches it is the signed
    word offset relative to the next PC; for jumps ``target`` is the
    absolute word address; for loads/stores it is the signed byte
    displacement.
    """

    mnemonic: str
    rs: int = 0
    rt: int = 0
    rd: int = 0
    shamt: int = 0
    imm: int = 0
    target: int = 0
    # Populated by the assembler for diagnostics / analyses.
    address: int | None = None
    source_line: int | None = None
    label_ref: str | None = None

    @property
    def spec(self) -> InstrSpec:
        return SPEC_BY_MNEMONIC[self.mnemonic]

    @property
    def category(self) -> Category:
        return self.spec.category

    def is_branch(self) -> bool:
        return self.mnemonic in BRANCH_MNEMONICS

    def is_jump(self) -> bool:
        return self.category is Category.JUMP

    def is_control_flow(self) -> bool:
        return self.is_branch() or self.is_jump() or self.mnemonic == "halt"

    def defs(self) -> frozenset[int]:
        """Register indices written by this instruction."""
        out: set[int] = set()
        for field_name in self.spec.writes:
            if field_name == "ra":
                out.add(31)
            else:
                out.add(getattr(self, field_name))
        out.discard(0)
        return frozenset(out)

    def uses(self) -> frozenset[int]:
        """Register indices read by this instruction."""
        out: set[int] = set()
        for field_name in self.spec.reads:
            out.add(getattr(self, field_name))
        out.discard(0)
        return frozenset(out)

    def branch_target_address(self) -> int:
        """Absolute byte address a taken branch transfers to."""
        if self.address is None:
            raise ValueError("instruction has no address assigned")
        if self.is_branch():
            return self.address + 4 + 4 * self.imm
        if self.mnemonic in JUMP_MNEMONICS:
            return self.target * 4
        raise ValueError(f"{self.mnemonic} has no static target")
