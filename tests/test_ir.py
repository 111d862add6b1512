"""Unit tests for the engine IR (:mod:`repro.cpu.ir`).

The IR is the single decode step every engine tier lowers from, so the
tests pin (1) the decode round-trip — every field of every
:class:`IROp` against the raw :class:`Instruction` it came from, over
every figure-2 opcode the suite's prepared programs exercise and the
full ``datapath.EXECUTORS`` table; (2) the config-derived timing
helpers against the predecoded fast-tier metadata, across pipeline
sweeps; (3) the per-program cache (including the ``None`` non-dense
case); and (4) the shared straight-line slicing scan, which must
partition identically whether it reads the IR or the predecoded
``OpMeta`` array.
"""

import pytest

from repro.asm import assemble
from repro.cpu import SimulationError, Simulator
from repro.cpu.engine import predecode
from repro.cpu.ir import (
    ZOLC_ARM,
    ZOLC_RESET,
    build_ir,
    ir_op_from_instruction,
    op_base_cycles,
    op_taken_penalty,
    span_breaks,
    straightline_terms,
)
from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import ALL_MACHINES
from repro.isa.instructions import Category, Instruction


def _suite_programs():
    from repro.workloads.suite import registry

    for kernel in registry().kernels.values():
        for machine in ALL_MACHINES:
            yield machine.prepare(kernel.source).program


class TestRoundTrip:
    def test_every_field_matches_the_instruction(self):
        """IR decode round-trip over every suite program × machine."""
        seen = set()
        for program in _suite_programs():
            ir = build_ir(program)
            assert ir is not None
            assert len(ir) == len(program.instructions)
            base = program.text_base
            for i, (op, inst) in enumerate(zip(ir, program.instructions)):
                seen.add(inst.mnemonic)
                assert op.index == i
                assert op.address == base + 4 * i == inst.address
                assert op.mnemonic == inst.mnemonic
                assert op.category_key == inst.category.value
                assert (op.rd, op.rs, op.rt) == (inst.rd, inst.rs, inst.rt)
                assert (op.shamt, op.imm) == (inst.shamt, inst.imm)
                assert op.link == inst.address + 4
                assert op.uses == inst.uses()
                assert op.is_branch == inst.is_branch()
                assert op.is_mul == (inst.category is Category.MUL)
                assert op.is_zolc_init == (inst.category is Category.ZOLC)
                if inst.is_branch():
                    assert op.target == inst.address + 4 + 4 * inst.imm
                elif inst.mnemonic in ("j", "jal"):
                    assert op.target == inst.target * 4
                else:
                    assert op.target is None
                if inst.category is Category.LOAD and inst.rt:
                    assert op.load_dest == inst.rt
                else:
                    assert op.load_dest is None
                assert op.can_transfer == (
                    inst.is_branch() or inst.category is Category.JUMP
                    or inst.mnemonic == "halt")
        # The suite's ZOLC machines must have exercised the special
        # decode branches (hwloop, ZOLC init, branches, loads/stores),
        # or the loop above pinned nothing; ``mfz``/jumps are covered
        # by the EXECUTORS sweep below.
        assert {"dbne", "mtz", "beq", "lw", "sw", "halt"} <= seen

    def test_covers_every_executor_mnemonic(self):
        """Every datapath mnemonic decodes; unknown ones raise."""
        from repro.cpu.datapath import EXECUTORS

        for mnemonic in EXECUTORS:
            op = ir_op_from_instruction(Instruction(mnemonic, address=0), 0)
            assert op.mnemonic == mnemonic
            assert op.penalty_kind in ("hwloop", "jump_register", "branch")
        with pytest.raises(SimulationError, match="frobnicate"):
            ir_op_from_instruction(
                Instruction("frobnicate", address=0), 0)

    def test_penalty_kind_decode(self):
        assert ir_op_from_instruction(
            Instruction("dbne", address=0), 0).penalty_kind == "hwloop"
        for m in ("jr", "jalr"):
            assert ir_op_from_instruction(
                Instruction(m, address=0), 0).penalty_kind == "jump_register"
        assert ir_op_from_instruction(
            Instruction("beq", address=0), 0).penalty_kind == "branch"


class TestTiming:
    @pytest.mark.parametrize("config", [
        PipelineConfig(),
        PipelineConfig(branch_penalty=3, jump_register_penalty=2,
                       hwloop_penalty=1, mul_extra_cycles=4,
                       load_use_stall=2, zolc_switch_cycles=1),
    ])
    def test_helpers_match_predecoded_metadata(self, config):
        """op_base_cycles / op_taken_penalty == the fast tier's tuples."""
        for machine in ALL_MACHINES:
            from repro.workloads.suite import registry

            kernel = next(iter(registry().kernels.values()))
            prepared = machine.prepare(kernel.source)
            sim = prepared.make_simulator(pipeline=config)
            predecoded = predecode(sim)
            assert predecoded is not None
            assert predecoded.ir == build_ir(sim.program)
            for op, slot in zip(predecoded.ir, predecoded.ops):
                _fn, base_cycles, uses, load_dest, taken_penalty = slot
                assert op_base_cycles(op, config) == base_cycles
                assert op_taken_penalty(op, config) == taken_penalty
                assert op.uses == uses
                assert op.load_dest == load_dest


class TestCache:
    def test_ir_is_built_once_per_program(self):
        program = assemble("li t0, 1\nadd t1, t0, t0\nhalt\n")
        first = build_ir(program)
        assert first is not None
        assert build_ir(program) is first

    def test_non_dense_text_caches_none(self):
        program = assemble("li t0, 1\nhalt\n")
        # Hand-break the density invariant the assembler upholds.
        program.instructions[1].address = program.text_base + 64
        assert build_ir(program) is None
        assert build_ir(program) is None  # the None is cached too

    def test_port_swap_does_not_stale_the_ir(self):
        # The IR is pure decoded fact (no simulator state), so a ZOLC
        # port swap re-predecodes but must *not* rebuild the IR.
        program = assemble("li t0, 1\nhalt\n")
        sim = Simulator(program)
        first = predecode(sim).ir
        assert build_ir(program) is first


class TestStraightlineTerms:
    SOURCE = """
        li   t0, 0
        li   t1, 5
loop:
        add  t0, t0, t1
        addi t1, t1, -1
        bne  t1, zero, loop
        sw   t0, 0(zero)
        halt
"""

    #: A re-arm preheader (reset, table writes, a read-back, arm)
    #: followed by a table write and a read outside it.
    PREHEADER = """
        addi t0, zero, 1
        mtz  zero, 1            # CTRL_RESET
        addi at, zero, 3
        mtz  at, 256            # loop 0 TRIPS
        mfz  t1, 256
        mtz  at, 0              # CTRL_ARM
        addi t2, zero, 2
        mtz  at, 257            # loop 0 INITIAL
        mfz  t3, 2              # CTRL_STATUS
        halt
"""

    def test_ir_and_metas_slice_identically(self):
        for source in (self.SOURCE, self.PREHEADER):
            sim = Simulator(assemble(source))
            predecoded = predecode(sim)
            ir = build_ir(sim.program)
            base = sim.program.text_base
            for watched in (frozenset(), {base + 8},
                            {base + 12, base + 20}):
                assert (straightline_terms(ir, base, watched)
                        == straightline_terms(predecoded.metas, base,
                                              watched))

    @staticmethod
    def _slice(source, watched_slots=()):
        """``(ir, breaks, terms)`` of a program, with the next pcs of
        ``watched_slots`` watched."""
        program = assemble(source)
        ir = build_ir(program)
        base = program.text_base
        watched = {base + 4 * slot + 4 for slot in watched_slots}
        return (ir, span_breaks(ir, base, watched),
                straightline_terms(ir, base, watched))

    def test_zolc_ctrl_decodes_arm_and_reset_only(self):
        ir, _breaks, _terms = self._slice(self.PREHEADER)
        assert [op.zolc_ctrl for op in ir] == [
            None, ZOLC_RESET, None, None, None, ZOLC_ARM,
            None, None, None, None]

    def test_table_writes_and_reads_sit_inside_a_span(self):
        _ir, breaks, terms = self._slice(self.PREHEADER)
        # After the arm, the table write and the mfz run on into the
        # halt: one span.
        assert breaks[6:9] == [None, None, None]
        assert terms[6] == 9
        assert terms[7] == 9

    def test_arm_ends_a_span(self):
        _ir, breaks, terms = self._slice(self.PREHEADER)
        assert breaks[5] == "arm"
        assert terms[2] == 5

    def test_reset_then_arm_is_one_span(self):
        _ir, breaks, terms = self._slice(self.PREHEADER)
        # The whole reset … writes … arm preheader, and the slot before
        # it, fuse into one span that ends at the arm.
        assert breaks[1] is None
        assert terms[0] == 5
        assert terms[1] == 5

    def test_reset_before_a_branch_ends_at_the_reset(self):
        _ir, breaks, terms = self._slice("""
        addi t0, zero, 1
        mtz  zero, 1            # CTRL_RESET
        addi at, zero, 1
        beq  at, zero, skip
        mtz  at, 0              # CTRL_ARM
skip:
        halt
""")
        assert breaks[1] == "reset"
        assert terms[0] == 1
        assert terms[2] == 3

    def test_reset_before_a_watched_pc_ends_at_the_reset(self):
        # Slot 2's next pc is a watch target: its retirement may fire,
        # so the reset's span cannot run on into the arm.
        _ir, breaks, terms = self._slice(self.PREHEADER, watched_slots=(2,))
        assert breaks[2] == "watch"
        assert breaks[1] == "reset"
        assert terms[0] == 1
        assert terms[3] == 5

    def test_transfers_and_zolc_terminate(self):
        sim = Simulator(assemble(self.SOURCE))
        ir = build_ir(sim.program)
        base = sim.program.text_base
        terms = straightline_terms(ir, base, frozenset())
        # Slots 0..4 run straight into the branch at slot 4; the two
        # tail slots fuse into (5, 6) ending at the halt.
        assert terms[0] == 4
        assert terms[4] is None          # a lone terminator is no span
        assert terms[5] == 6
        # A watched *next* pc splits the span before its slot.
        watched = {base + 8}             # slot 2 is someone's watch target
        split = straightline_terms(ir, base, watched)
        assert split[0] == 1
        assert split[2] == 4

    def test_watched_pc_matches_plan_slicing(self):
        # The traced tier's region slicing delegates here; spans must
        # never cross a plan watch target so interior members stay
        # unwatched (only terminators dispatch).
        sim = Simulator(assemble(self.SOURCE))
        ir = build_ir(sim.program)
        base = sim.program.text_base
        for idx, term in enumerate(
                straightline_terms(ir, base, {base + 8})):
            if term is None:
                continue
            for interior in range(idx, term):
                assert base + 4 * interior + 4 != base + 8


class TestUnavailableSentinel:
    """Satellite: one unified no-IR signal for undecodable programs."""

    def test_sparse_text_reports_reason(self):
        from repro.cpu.ir import IRUnavailable, ir_failure

        program = assemble("li t0, 1\nhalt\n")
        program.instructions[1].address = program.text_base + 64
        assert ir_failure(program) is None  # nothing cached yet
        assert build_ir(program) is None
        reason = ir_failure(program)
        assert reason is not None and "dense" in reason
        assert isinstance(program.__dict__["_engine_ir"], IRUnavailable)

    def test_unknown_mnemonic_caches_instead_of_raising(self):
        from repro.cpu.ir import ir_failure

        program = assemble("li t0, 1\nhalt\n")
        program.instructions[0].mnemonic = "frobnicate"
        assert build_ir(program) is None
        assert build_ir(program) is None  # cached, not re-raised
        reason = ir_failure(program)
        assert reason is not None and "frobnicate" in reason

    def test_simulator_surfaces_the_reason(self):
        program = assemble("li t0, 1\nhalt\n")
        program.instructions[1].address = program.text_base + 64
        sim = Simulator(program)
        assert sim._ensure_predecoded() is False
        assert "dense" in sim._predecode_failure

    def test_slicing_the_sentinel_is_a_caller_bug(self):
        with pytest.raises(SimulationError):
            straightline_terms(None, 0, frozenset())

    def test_decodable_program_has_no_failure(self):
        from repro.cpu.ir import ir_failure

        program = assemble("li t0, 1\nhalt\n")
        assert build_ir(program) is not None
        assert ir_failure(program) is None


class TestDataflowFields:
    """The defs/reads metadata the analysis layer consumes."""

    def test_defs_exclude_r0_reads_keep_it(self):
        ir = build_ir(assemble("add zero, zero, t1\nhalt\n"))
        op = ir[0]
        assert op.defs == frozenset()
        assert op.reads == (0, 9)      # raw ISA order, r0 kept

    def test_reads_keep_duplicates(self):
        ir = build_ir(assemble("add t0, t1, t1\nhalt\n"))
        assert ir[0].reads == (9, 9)
        assert ir[0].uses == frozenset({9})

    def test_defs_and_uses_match_instruction(self):
        for program in _suite_programs():
            ir = build_ir(program)
            for op, inst in zip(ir, program.instructions):
                assert op.defs == inst.defs()
                assert op.uses == inst.uses()
