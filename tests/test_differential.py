"""Differential testing of the datapath.

Hypothesis generates random straight-line ALU programs (shared
strategies in :mod:`repro.synth.strategies`); the simulator's final register
state is checked against an *independent* reference interpreter written
directly from the ISA definition (no shared code with the datapath).
Any divergence in wrap-around, sign-extension or shift semantics fails
loudly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cpu.simulator import run_program
from repro.isa import encode, decode
from repro.util.bitops import MASK32, to_signed32

from repro.synth.strategies import (
    REGS,
    alu_instructions,
    render_alu_program,
    reg_seeds,
)


def _ref_alu(mnemonic, a, b):
    """Independent semantics, straight from the architecture manual."""
    sa, sb = to_signed32(a), to_signed32(b)
    if mnemonic == "add":
        return (a + b) & MASK32
    if mnemonic == "sub":
        return (a - b) & MASK32
    if mnemonic == "and":
        return a & b
    if mnemonic == "or":
        return a | b
    if mnemonic == "xor":
        return a ^ b
    if mnemonic == "nor":
        return ~(a | b) & MASK32
    if mnemonic == "slt":
        return int(sa < sb)
    if mnemonic == "sltu":
        return int(a < b)
    if mnemonic == "mul":
        return (sa * sb) & MASK32
    if mnemonic == "mulh":
        return ((sa * sb) >> 32) & MASK32
    raise AssertionError(mnemonic)


def _reference(program_spec, seeds):
    regs = {name: seed & MASK32 for name, seed in zip(REGS, seeds)}
    for kind, op, rd, rs, rt, imm in program_spec:
        a = regs[rs]
        if kind == "rr":
            value = _ref_alu(op, a, regs[rt])
        elif kind == "shift":
            if op == "sll":
                value = (a << imm) & MASK32
            elif op == "srl":
                value = a >> imm
            else:
                value = (to_signed32(a) >> imm) & MASK32
        elif kind == "imm":
            if op == "addi":
                value = (a + imm) & MASK32
            elif op == "slti":
                value = int(to_signed32(a) < imm)
            else:  # sltiu compares against the sign-extended imm, unsigned
                value = int(a < (imm & MASK32))
        else:
            if op == "andi":
                value = a & imm
            elif op == "ori":
                value = a | imm
            else:
                value = a ^ imm
        regs[rd] = value
    return regs


class TestDifferentialALU:
    @settings(max_examples=120, deadline=None)
    @given(spec=st.lists(alu_instructions(), min_size=1, max_size=24),
           seeds=reg_seeds)
    def test_simulator_matches_reference(self, spec, seeds):
        source = render_alu_program(spec, seeds)
        sim = run_program(assemble(source))
        expected = _reference(spec, seeds)
        for name in REGS:
            assert sim.state.regs[name] == expected[name], \
                f"{name} diverged for program:\n{source}"


class TestProgramImageFidelity:
    @settings(max_examples=40, deadline=None)
    @given(spec=st.lists(alu_instructions(), min_size=1, max_size=12),
           seeds=st.lists(st.integers(min_value=-1000, max_value=1000),
                          min_size=4, max_size=4))
    def test_text_segment_decodes_back(self, spec, seeds):
        """The encoded memory image decodes to the assembled program."""
        program = assemble(render_alu_program(spec, seeds))
        for inst, word in zip(program.instructions, program.words()):
            decoded = decode(word)
            assert decoded.mnemonic == inst.mnemonic
            assert encode(decoded) == word
