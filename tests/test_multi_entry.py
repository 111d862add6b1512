"""End-to-end tests for multiple-entry loop support (ZOLCfull)."""

import pytest

from repro.asm import assemble
from repro.core.config import UZOLC, ZOLC_FULL, ZOLC_LITE
from repro.cpu.simulator import run_program
from repro.transform.zolc_rewrite import rewrite_for_zolc
from repro.workloads.kernels.synthetic import multi_entry_kernel


class TestBaseline:
    @pytest.mark.parametrize("side", [False, True])
    def test_untransformed_kernel_correct(self, side):
        kernel = multi_entry_kernel(use_side_entry=side)
        sim = run_program(assemble(kernel.source))
        kernel.check(sim)


class TestZolcFull:
    @pytest.mark.parametrize("side", [False, True])
    def test_transformed_kernel_correct(self, side):
        kernel = multi_entry_kernel(use_side_entry=side)
        result = rewrite_for_zolc(kernel.source, ZOLC_FULL)
        assert result.transformed_loop_count == 1
        assert len(result.specs[0].entries) == 1
        sim = result.make_simulator()
        sim.run()
        kernel.check(sim)

    def test_side_entry_event_counted(self):
        kernel = multi_entry_kernel(use_side_entry=True)
        result = rewrite_for_zolc(kernel.source, ZOLC_FULL)
        sim = result.make_simulator()
        sim.run()
        assert sim.zolc.entry_events >= 1

    def test_side_path_still_faster_than_baseline(self):
        kernel = multi_entry_kernel(use_side_entry=True)
        baseline = run_program(assemble(kernel.source))
        result = rewrite_for_zolc(kernel.source, ZOLC_FULL)
        sim = result.make_simulator()
        sim.run()
        assert sim.stats.cycles < baseline.stats.cycles

    def test_init_dominates_both_entries(self):
        # The initialization block must execute before the side-entry
        # jump: the controller must be armed when the jump lands.
        kernel = multi_entry_kernel(use_side_entry=True)
        result = rewrite_for_zolc(kernel.source, ZOLC_FULL)
        sim = result.make_simulator()
        sim.run()
        assert sim.zolc.arm_count == 1
        assert sim.zolc.task_switches > 0


class TestLiteAndUzolcRejection:
    @pytest.mark.parametrize("config", [ZOLC_LITE, UZOLC])
    def test_side_entry_loop_left_in_software(self, config):
        kernel = multi_entry_kernel(use_side_entry=True)
        result = rewrite_for_zolc(kernel.source, config)
        assert result.transformed_loop_count == 0
        assert any("side" in r.lower() or "entrie" in r.lower()
                   for r in result.plan.rejected.values())
        sim = result.make_simulator()
        sim.run()
        kernel.check(sim)


# The side entry `dead` is unreachable: no path from `main` reaches it.
UNREACHABLE_SIDE_ENTRY = """
        .data
out:    .word 0
        .text
main:   li   t0, 0
loop:   add  s1, s1, t0
        addi t0, t0, 1
        slti at, t0, 12
        bne  at, zero, loop
        la   t8, out
        sw   s1, 0(t8)
        halt
dead:   li   t0, 5
        j    loop
"""


class TestUnreachableSideEntry:
    """An unreachable side entry is dominated by the entry block.

    The initialization must dominate the preheader and every side
    entry; for an unreachable side entry the nearest common dominator
    is the entry block, so the init lands after ``li t0, 0`` (baseline
    index 1) and ``main`` labels its first instruction.
    """

    def test_rewrite_places_init_at_the_entry_block(self):
        result = rewrite_for_zolc(UNREACHABLE_SIDE_ENTRY, ZOLC_FULL)
        assert result.transformed_loop_count == 1
        assert result.plan.all_planned()[0].pattern.side_entry_count == 1
        assert len(result.specs[0].entries) == 1
        program = result.program
        # `li t0, 0` is the deleted induction init, so the init block
        # now opens the text, and `main` (forwarded from the deleted
        # `li`) labels it: the init runs on the way in.
        assert program.symbols["main"] == program.text_base
        head = program.instructions[:result.init_instruction_count]
        assert head[0].mnemonic == "mtz"
        assert program.instructions[result.init_instruction_count] \
            .address == program.symbols["loop"]

    def test_rewrite_runs_and_verifies_clean(self):
        from repro.eval.check import check_kernel
        from repro.eval.machines import machine_by_name
        from repro.workloads.api import Kernel, read_word_signed

        def check(sim):
            assert read_word_signed(sim, "out") == sum(range(12))

        kernel = Kernel("unreachable_side_entry", "", UNREACHABLE_SIDE_ENTRY,
                        check)
        result = rewrite_for_zolc(UNREACHABLE_SIDE_ENTRY, ZOLC_FULL)
        sim = result.make_simulator()
        sim.run()
        kernel.check(sim)
        findings = check_kernel(kernel, machine_by_name("ZOLCfull"),
                                audit=True)
        assert [f for f in findings if f.severity == "error"] == []
