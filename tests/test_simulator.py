"""Unit tests for the top-level simulator."""

import pytest

from repro.asm import assemble
from repro.cpu import (
    InvalidFetchError,
    PipelineConfig,
    Simulator,
    WatchdogError,
    run_program,
)


class TestBasicExecution:
    def test_halt_stops(self):
        sim = run_program(assemble("halt\n"))
        assert sim.state.halted
        assert sim.stats.instructions == 1

    def test_register_arithmetic(self):
        sim = run_program(assemble("li t0, 6\nli t1, 7\nmul t2, t0, t1\nhalt\n"))
        assert sim.state.regs["t2"] == 42

    def test_data_segment_loaded(self):
        sim = run_program(assemble(
            ".data\nx: .word 1234\n.text\nla t0, x\nlw t1, 0(t0)\nhalt\n"))
        assert sim.state.regs["t1"] == 1234

    def test_memory_writeback(self):
        sim = run_program(assemble(
            ".data\nout: .word 0\n.text\nli t0, 99\nla t1, out\n"
            "sw t0, 0(t1)\nhalt\n"))
        assert sim.memory.load_word(sim.program.symbols["out"]) == 99

    def test_stack_pointer_initialised(self):
        sim = Simulator(assemble("halt\n"))
        assert sim.state.regs["sp"] == sim.memory.size - 16

    def test_entry_point_main(self):
        sim = run_program(assemble("li t0, 1\nhalt\nmain: li t0, 2\nhalt\n"))
        assert sim.state.regs["t0"] == 2


class TestLoops:
    def test_counted_loop(self):
        sim = run_program(assemble(
            "li t0, 10\nli t1, 0\nloop: add t1, t1, t0\n"
            "addi t0, t0, -1\nbne t0, zero, loop\nhalt\n"))
        assert sim.state.regs["t1"] == 55

    def test_cycle_count_includes_penalties(self):
        # 2 setup + 3*10 loop instructions + halt = 33 instructions;
        # 9 taken branches (penalty 1) = 9 extra cycles.
        sim = run_program(assemble(
            "li t0, 10\nli t1, 0\nloop: add t1, t1, t0\n"
            "addi t0, t0, -1\nbne t0, zero, loop\nhalt\n"))
        assert sim.stats.instructions == 33
        assert sim.stats.cycles == 33 + 9
        assert sim.stats.taken_branches == 9

    def test_branch_penalty_configurable(self):
        source = ("li t0, 10\nli t1, 0\nloop: add t1, t1, t0\n"
                  "addi t0, t0, -1\nbne t0, zero, loop\nhalt\n")
        fast = run_program(assemble(source),
                           pipeline=PipelineConfig(branch_penalty=0))
        slow = run_program(assemble(source),
                           pipeline=PipelineConfig(branch_penalty=3))
        assert slow.stats.cycles - fast.stats.cycles == 3 * 9

    def test_load_use_stall_counted(self):
        sim = run_program(assemble(
            ".data\nx: .word 5\n.text\nla t0, x\nlw t1, 0(t0)\n"
            "add t2, t1, t1\nhalt\n"))
        assert sim.stats.stall_cycles == 1


class TestErrors:
    def test_fetch_outside_text(self):
        sim = Simulator(assemble("j 0x100\nhalt\n"))
        with pytest.raises(InvalidFetchError):
            sim.run()

    def test_watchdog(self):
        sim = Simulator(assemble("loop: b loop\nhalt\n"))
        with pytest.raises(WatchdogError):
            sim.run(max_steps=100)


STALLING_LOOP = (".data\nx: .word 5\n.text\n"
                 "lui  t0, 1\n"            # t0 = 0x10000 = &x
                 "loop: lw t1, 0(t0)\n"
                 "add  t2, t1, t1\n"       # load-use stall every iteration
                 "j    loop\n"
                 "halt\n")


class TestCounterSyncOnEveryExit:
    """stall/flush counters must be coherent however the run ends."""

    @pytest.mark.parametrize("engine", ["auto", "step"])
    def test_watchdog_exit_syncs_counters(self, engine):
        sim = Simulator(assemble(STALLING_LOOP))
        with pytest.raises(WatchdogError):
            sim.run(max_steps=31, engine=engine)
        # 10 completed iterations: one load-use stall and one taken-jump
        # flush each.
        assert sim.stats.stall_cycles == 10
        assert sim.stats.flush_cycles == 10
        assert sim.stats.cycles == 31 + 10 + 10

    def test_step_callers_see_live_counters(self):
        sim = Simulator(assemble(STALLING_LOOP))
        for _ in range(3):  # lui, lw, add -> one stall charged
            sim.step()
        assert sim.stats.stall_cycles == 1
        assert sim.stats.stall_cycles == sim.timing.stall_cycles

    def test_clean_halt_unchanged(self):
        sim = run_program(assemble("nop\nhalt\n"))
        assert sim.stats.stall_cycles == 0
        assert sim.stats.flush_cycles == 0


class _RedirectingPort:
    """Minimal ZolcPort that redirects one retirement, no task switch."""

    def __init__(self, at_pc, to_pc):
        self.at_pc = at_pc
        self.to_pc = to_pc
        self.active = True

    def write(self, selector, value):
        raise AssertionError("unused")

    def read(self, selector):
        raise AssertionError("unused")

    def on_retire(self, pc, next_pc, taken=False):
        from repro.cpu import ZolcAction
        if pc == self.at_pc:
            return ZolcAction(self.to_pc, is_task_switch=False)
        return None


class TestRedirectClearsLoadPairing:
    """A PC redirect that is not a task switch must still invalidate the
    pending load-use pairing: the redirected fetch cannot consume the
    load back-to-back."""

    SOURCE = (".data\nx: .word 7\n.text\n"
              "lui  t0, 1\n"
              "lw   t1, 0(t0)\n"
              "add  t2, t1, t1\n"
              "halt\n")

    @pytest.mark.parametrize("engine", ["auto", "step"])
    def test_no_phantom_stall_across_redirect(self, engine):
        # Redirect at the lw retirement (pc 0x4) to the add (0x8): same
        # successor address, but now across a redirected fetch boundary.
        sim = Simulator(assemble(self.SOURCE),
                        zolc=_RedirectingPort(at_pc=0x4, to_pc=0x8))
        sim.run(engine=engine)
        assert sim.state.regs["t2"] == 14
        assert sim.stats.stall_cycles == 0
        assert sim.stats.cycles == 4

    @pytest.mark.parametrize("engine", ["auto", "step"])
    def test_stall_still_charged_without_redirect(self, engine):
        sim = Simulator(assemble(self.SOURCE))
        sim.run(engine=engine)
        assert sim.stats.stall_cycles == 1
        assert sim.stats.cycles == 5


class TestCategoryStats:
    def test_categories_counted(self):
        sim = run_program(assemble(
            ".data\nx: .word 1\n.text\nla t0, x\nlw t1, 0(t0)\n"
            "sw t1, 0(t0)\nhalt\n"))
        by_cat = sim.stats.by_category
        assert by_cat["load"] == 1
        assert by_cat["store"] == 1

    def test_cpi_computed(self):
        sim = run_program(assemble("nop\nhalt\n"))
        assert sim.stats.cpi == pytest.approx(1.0)


class TestTracer:
    def test_trace_records_collected(self):
        from repro.cpu import Tracer
        tracer = Tracer(limit=100)
        sim = Simulator(assemble("li t0, 2\nhalt\n"), tracer=tracer)
        sim.run()
        assert len(tracer.records) == 2
        assert "addi" in tracer.records[0].text

    def test_trace_limit_drops(self):
        from repro.cpu import Tracer
        tracer = Tracer(limit=1)
        sim = Simulator(assemble("nop\nnop\nhalt\n"), tracer=tracer)
        sim.run()
        assert len(tracer.records) == 1
        assert tracer.dropped == 2
        assert "dropped" in tracer.format()

    def test_trace_columns_align_above_64k(self):
        from repro.cpu.tracing import TraceRecord, Tracer
        tracer = Tracer()
        tracer.record(TraceRecord(pc=0x0040, text="nop", cycles_after=1))
        tracer.record(TraceRecord(pc=0x12340, text="halt", cycles_after=2))
        low, high = tracer.format().splitlines()
        assert low.index("nop") == high.index("halt")
        assert high.startswith("0x00012340")
