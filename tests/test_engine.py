"""Differential tests: the ``auto`` run loop vs the interpreter.

The ``auto`` engine must retire *identical* (pc, regs, cycles, stats)
sequences to ``step()`` — that invariant is what makes its tiers pure
optimisations.  We check it four ways: final-state equivalence across
the full kernel suite on every machine (ZOLC and non-ZOLC), lockstep
per-retirement equivalence on representative kernels, a hypothesis
sweep over random ALU programs, and the deterministic tier corners
(watchdog-exact batching, mid-region fault reconciliation, cache
invalidation).  Generated-program coverage for every tier lives in
``tests/test_engine_fuzz.py``.
"""

import contextlib
import sys
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cpu import Simulator, WatchdogError
from repro.cpu.engine import predecode
from repro.cpu.engine import trace as trace_module
from repro.cpu.engine import traced as traced_module
from repro.cpu.engine.trace import HOT_THRESHOLD
from repro.eval.machines import ALL_MACHINES

from repro.synth.strategies import alu_instructions, render_alu_program


def _state_tuple(sim):
    return (sim.state.pc, sim.state.halted, sim.state.regs.snapshot(),
            asdict(sim.stats), sim.timing.stall_cycles,
            sim.timing.flush_cycles, sim.timing._pending_load_dest)


@contextlib.contextmanager
def _cold_tiers():
    """Patch both tiering thresholds out of reach: no region fuses and
    no loop promotes, so every instruction retires on the per-slot path.

    Holds only for a Program no earlier run has fused code on: cached
    region code fuses on first entry whatever the threshold.
    """
    with mock.patch.object(traced_module, "HOT_THRESHOLD", sys.maxsize), \
            mock.patch.object(trace_module, "HOT_THRESHOLD", sys.maxsize):
        yield


def _run_leg(sim, leg, **run_kwargs):
    """Run ``sim`` on one differential leg: ``"step"`` (the oracle),
    ``"auto"`` as configured, or ``"cold"`` — ``auto`` with every tier
    held cold, which needs ``sim`` on a Program of its own."""
    with _cold_tiers() if leg == "cold" else contextlib.nullcontext():
        sim.run(engine="step" if leg == "step" else "auto", **run_kwargs)


def _run_pair(prepared, max_steps=20_000_000):
    auto = prepared.make_simulator()
    auto.run(max_steps=max_steps)
    slow = prepared.make_simulator()
    slow.run(max_steps=max_steps, engine="step")
    return auto, slow


class TestSuiteEquivalence:
    @pytest.mark.parametrize("machine", ALL_MACHINES, ids=lambda m: m.name)
    def test_full_suite_matches_step_engine(self, kernel_registry, machine):
        """Every kernel retires to the same final state on both engines."""
        for kernel in kernel_registry.all():
            prepared = machine.prepare(kernel.source)
            auto, slow = _run_pair(prepared)
            assert _state_tuple(auto) == _state_tuple(slow), \
                f"{kernel.name} on {machine.name} diverged"
            kernel.check(auto)  # the golden model holds on auto


class TestLockstepEquivalence:
    """Per-retirement equivalence, via the watchdog's single-step trick.

    ``run(max_steps=1)`` executes exactly one instruction before the
    watchdog fires, and the run loop syncs all counters on every exit
    path — so catching :class:`WatchdogError` yields a legal retire-by-
    retire observation of the ``auto`` loop (a one-step budget never
    lets a region or trace run, so this pins the per-slot path).
    """

    @pytest.mark.parametrize("machine_name,kernel_name", [
        ("XRdefault", "vec_sum"),
        ("ZOLClite", "vec_sum"),
        # Single-shot controller: disarms/re-arms across the run, so the
        # run loop's compiled dispatch state churns per loop.
        ("uZOLC", "matmul"),
        # Multi-exit kernel on ZOLCfull: exit-record and entry-record
        # dispatch under the compiled plan, retire by retire.
        ("ZOLCfull", "vecmax_early"),
    ])
    def test_retire_sequences_identical(self, kernel_registry, machine_name,
                                        kernel_name):
        machine = next(m for m in ALL_MACHINES if m.name == machine_name)
        prepared = machine.prepare(kernel_registry.get(kernel_name).source)
        auto = prepared.make_simulator()
        slow = prepared.make_simulator()
        for retirement in range(50_000):
            if slow.state.halted:
                break
            slow.step()
            if slow.state.halted:
                auto.run(max_steps=1)  # halt retires cleanly
            else:
                with pytest.raises(WatchdogError):
                    auto.run(max_steps=1)
            assert _state_tuple(auto) == _state_tuple(slow), \
                f"diverged at retirement {retirement}"
        else:
            pytest.fail("kernel did not halt")
        assert auto.state.halted and slow.state.halted


class TestRandomPrograms:
    @settings(max_examples=40, deadline=None)
    @given(spec=st.lists(alu_instructions(), min_size=1, max_size=24),
           seeds=st.lists(st.integers(min_value=-(2**31),
                                      max_value=2**31 - 1),
                          min_size=4, max_size=4))
    def test_engines_agree_on_random_alu_programs(self, spec, seeds):
        source = render_alu_program(spec, seeds)
        auto = Simulator(assemble(source))
        auto.run()
        slow = Simulator(assemble(source))
        slow.run(engine="step")
        assert _state_tuple(auto) == _state_tuple(slow)


class TestEngineSelection:
    def test_auto_resolves_to_traced_and_caches_predecode(self):
        sim = Simulator(assemble("li t0, 3\nhalt\n"))
        sim.run()
        assert sim.last_engine == "traced"
        assert sim._predecoded is not None and sim._predecoded is not False
        assert sim.state.regs["t0"] == 3

    def test_explicit_step_remains_an_override(self):
        sim = Simulator(assemble("li t0, 3\nhalt\n"))
        sim.run(engine="step")
        assert sim.last_engine == "step"
        assert sim._predecoded is None      # never predecoded
        assert sim.state.regs["t0"] == 3

    def test_tracer_falls_back_to_step(self):
        from repro.cpu import Tracer
        tracer = Tracer(limit=10)
        sim = Simulator(assemble("li t0, 3\nhalt\n"), tracer=tracer)
        sim.run()
        assert sim.last_engine == "step"
        assert len(tracer.records) == 2

    def test_forced_fast_with_tracer_rejected(self):
        # The run loop's tiers are not public engines: "fast" and
        # "traced" are unknown values, with a tracer attached or not.
        from repro.cpu import Tracer
        for tracer in (None, Tracer(limit=10)):
            for engine in ("fast", "traced"):
                sim = Simulator(assemble("halt\n"), tracer=tracer)
                with pytest.raises(ValueError,
                                   match=f"unknown engine '{engine}'; "
                                         "known: auto, step"):
                    sim.run(engine=engine)
                assert not sim.state.halted and sim.last_engine is None

    def test_unknown_engine_rejected(self):
        sim = Simulator(assemble("halt\n"))
        with pytest.raises(ValueError):
            sim.run(engine="turbo")

    def test_predecode_covers_whole_text(self):
        sim = Simulator(assemble("li t0, 1\nli t1, 2\nhalt\n"))
        predecoded = predecode(sim)
        assert predecoded is not None
        assert len(predecoded.ops) == len(sim.program.instructions)

    def test_predecoder_covers_every_executor_mnemonic(self):
        """The predecoder's tables must track datapath.EXECUTORS.

        A gap would silently demote programs using the missing mnemonic
        to the stepped interpreter; this pins the two op tables together.
        """
        from repro.cpu.datapath import EXECUTORS
        from repro.cpu.engine.fast import _lower_fast
        from repro.cpu.ir import ir_op_from_instruction
        from repro.isa.instructions import Instruction

        sim = Simulator(assemble("halt\n"))
        for mnemonic in EXECUTORS:
            op = ir_op_from_instruction(Instruction(mnemonic, address=0), 0)
            assert callable(_lower_fast(op, sim)), mnemonic

    def test_predecode_gap_falls_back_to_step(self, monkeypatch):
        # A mnemonic the predecoder does not cover must degrade to the
        # stepped interpreter under engine="auto", not blow up run().
        import repro.cpu.simulator as simulator_module
        from repro.cpu import SimulationError

        def boom(sim):
            raise SimulationError("no predecoder for mnemonic 'frobnicate'")

        monkeypatch.setattr(simulator_module, "predecode", boom)
        sim = Simulator(assemble("li t0, 9\nhalt\n"))
        sim.run()
        assert sim._predecoded is False
        assert sim.last_engine == "step"
        assert sim.state.regs["t0"] == 9

    def test_zolc_swap_invalidates_predecode_cache(self):
        sim = Simulator(assemble("li t0, 1\nhalt\n"))
        sim.run()
        first = sim._predecoded
        assert first is not False

        class _InertPort:
            active = False

            def write(self, selector, value): ...
            def read(self, selector): return 0
            def on_retire(self, pc, next_pc, taken=False): return None

        sim.zolc = _InertPort()
        assert sim._ensure_predecoded() is not first


class _HaltingPort:
    """ZolcPort that halts the machine externally after N retirements."""

    def __init__(self, after):
        self.after = after
        self.seen = 0
        self.active = True
        self.state = None

    def write(self, selector, value): ...
    def read(self, selector): return 0

    def on_retire(self, pc, next_pc, taken=False):
        self.seen += 1
        if self.seen >= self.after:
            self.state.halted = True
        return None


class TestExternalHalt:
    @pytest.mark.parametrize("engine", ["auto", "step"])
    def test_port_halting_from_on_retire_stops_both_engines(self, engine):
        source = "li t0, 100\nloop: addi t0, t0, -1\nbne t0, zero, loop\nhalt\n"
        port = _HaltingPort(after=5)
        sim = Simulator(assemble(source), zolc=port)
        port.state = sim.state
        sim.run(max_steps=1000, engine=engine)
        assert sim.state.halted
        assert sim.stats.instructions == 5


def _controller_tuple(sim):
    """Controller-internal state the differential tests also pin down."""
    zolc = sim.zolc
    while hasattr(zolc, "inner"):  # unwrap PlanlessZolcPort adapters
        zolc = zolc.inner
    if zolc is None or not hasattr(zolc, "task_switches"):
        return None
    return (zolc.task_switches, zolc.exit_events, zolc.entry_events,
            zolc.arm_count,
            [s.iterations_done for s in zolc.unit.status])


# A hand-armed single-loop program: the body is one instruction, the
# trigger is the address right after it, so every body retirement is a
# watched next-pc.  Phase 2 reprograms TRIPS/INITIAL/BODY/TRIGGER and
# re-arms mid-run — the compiled plan must be invalidated and rebuilt.
REARM_SRC = """
        .text
main:
        addi at, zero, 5
        mtz  at, 256            # loop 0 TRIPS
        addi at, zero, 0
        mtz  at, 257            # INITIAL
        addi at, zero, 1
        mtz  at, 258            # STEP
        addi at, zero, 8
        mtz  at, 259            # INDEX_REG = t0
        ori  at, zero, %lo(body1)
        mtz  at, 260            # BODY_PC
        ori  at, zero, %lo(after1)
        mtz  at, 261            # TRIGGER_PC
        ori  at, zero, 0xFFFF
        mtz  at, 262            # PARENT = NO_PARENT
        addi at, zero, 1
        mtz  at, 263            # FLAGS = VALID
        addi at, zero, 1
        mtz  at, 0              # CTRL_ARM
body1:
        add  s0, s0, t0         # s0 += 0+1+2+3+4 = 10
after1:
        addi at, zero, 3
        mtz  at, 256            # TRIPS = 3
        addi at, zero, 10
        mtz  at, 257            # INITIAL = 10
        ori  at, zero, %lo(body2)
        mtz  at, 260
        ori  at, zero, %lo(after2)
        mtz  at, 261
        addi at, zero, 1
        mtz  at, 0              # re-arm
body2:
        add  s1, s1, t0         # s1 += 10+11+12 = 33
after2:
        halt
"""

# The same armed loop entered repeatedly: an enclosing software loop
# re-runs the whole init sequence, so the controller re-arms once per
# outer iteration and the engine's watch-array cache must serve the
# recompilation.
REINVOKE_SRC = """
        .text
main:
        addi s2, zero, 3        # three invocations
outer:
        addi at, zero, 4
        mtz  at, 256            # loop 0 TRIPS
        addi at, zero, 0
        mtz  at, 257            # INITIAL
        addi at, zero, 1
        mtz  at, 258            # STEP
        addi at, zero, 8
        mtz  at, 259            # INDEX_REG = t0
        ori  at, zero, %lo(body)
        mtz  at, 260            # BODY_PC
        ori  at, zero, %lo(after)
        mtz  at, 261            # TRIGGER_PC
        ori  at, zero, 0xFFFF
        mtz  at, 262            # PARENT
        addi at, zero, 1
        mtz  at, 263            # FLAGS = VALID
        addi at, zero, 1
        mtz  at, 0              # CTRL_ARM
body:
        add  s0, s0, t0         # += 0+1+2+3 = 6 per invocation
after:
        addi s2, s2, -1
        bne  s2, zero, outer
        halt
"""


def _zolc_sim(source):
    from repro.core import ZolcController
    from repro.core.config import ZOLC_LITE

    sim = Simulator(assemble(source), zolc=ZolcController(ZOLC_LITE))
    sim.zolc.attach(sim.state.regs)
    return sim


class TestReArm:
    """Differential coverage for mid-run re-arming through the plan path.

    The suite-equivalence tests above re-arm too (multi-group kernels,
    uZOLC's one-arm-per-loop discipline), but these programs pin the
    interesting transitions directly: table rewrites between arms, and
    repeated invocation of one armed region.
    """

    def test_rearm_with_rewritten_tables_matches_step(self):
        auto = _zolc_sim(REARM_SRC)
        auto.run(max_steps=10_000)
        slow = _zolc_sim(REARM_SRC)
        slow.run(max_steps=10_000, engine="step")
        assert _state_tuple(auto) == _state_tuple(slow)
        assert _controller_tuple(auto) == _controller_tuple(slow)
        assert auto.zolc.arm_count == 2
        assert auto.state.regs["s0"] == 10
        assert auto.state.regs["s1"] == 33

    def test_repeated_invocation_matches_step(self):
        auto = _zolc_sim(REINVOKE_SRC)
        auto.run(max_steps=10_000)
        slow = _zolc_sim(REINVOKE_SRC)
        slow.run(max_steps=10_000, engine="step")
        assert _state_tuple(auto) == _state_tuple(slow)
        assert _controller_tuple(auto) == _controller_tuple(slow)
        assert auto.zolc.arm_count == 3
        assert auto.state.regs["s0"] == 18

    def test_repeated_invocation_reuses_compiled_watch_arrays(self):
        sim = _zolc_sim(REINVOKE_SRC)
        sim.run(max_steps=10_000)
        # Three arms of identical tables build one plan table (watch
        # arrays included): it is keyed by watch-set content, not by
        # arm epoch.
        assert len([k for k in sim._plan_tables if k is not None]) == 1

    def test_rearm_lockstep(self):
        """Retire-by-retire equivalence across both arms of REARM_SRC."""
        auto = _zolc_sim(REARM_SRC)
        slow = _zolc_sim(REARM_SRC)
        for retirement in range(10_000):
            if slow.state.halted:
                break
            slow.step()
            if slow.state.halted:
                auto.run(max_steps=1)
            else:
                with pytest.raises(WatchdogError):
                    auto.run(max_steps=1)
            assert _state_tuple(auto) == _state_tuple(slow), \
                f"diverged at retirement {retirement}"
            assert _controller_tuple(auto) == _controller_tuple(slow), \
                f"controller diverged at retirement {retirement}"
        else:
            pytest.fail("program did not halt")


# A loop armed, run and explicitly disarmed once per invocation of an
# enclosing software loop: ``mtz zero, 0`` writes 0 to CTRL_ARM, so the
# span after the trigger is a fused region whose terminator disarms the
# port.  A jump then reaches the trigger address on the disarmed port
# — nothing may fire — and the next invocation re-arms unchanged
# tables.  The jump is indirect, so the loop's static body stays the
# one-instruction body and the loop still goes resident.
DISARM_SRC = """
        .text
main:
        addi s2, zero, 12       # twelve invocations
        addi at, zero, 4
        mtz  at, 256            # loop 0 TRIPS
        mtz  zero, 257          # INITIAL
        addi at, zero, 1
        mtz  at, 258            # STEP
        addi at, zero, 8
        mtz  at, 259            # INDEX_REG = t0
        ori  at, zero, %lo(body)
        mtz  at, 260            # BODY_PC
        ori  at, zero, %lo(after)
        mtz  at, 261            # TRIGGER_PC
        ori  at, zero, 0xFFFF
        mtz  at, 262            # PARENT = NO_PARENT
        addi at, zero, 1
        mtz  at, 263            # FLAGS = VALID
outer:
        addi at, zero, 1
        mtz  at, 0              # CTRL_ARM
body:
        add  s0, s0, t0         # += 0+1+2+3 = 6 per invocation
after:
        addi s1, s1, 1
        bne  s1, zero, tail     # always taken: ends the trigger's block
tail:
        add  s3, s3, s0
disarm:
        mtz  zero, 0            # CTRL_ARM <- 0: explicit disarm
        bne  s4, zero, next
        addi s4, zero, 1
        ori  t9, zero, %lo(after)
        jr   t9                 # reach the trigger unarmed: no fire
next:
        addi s4, zero, 0
        addi s2, s2, -1
        bne  s2, zero, outer
        halt
"""


class TestExplicitDisarm:
    """A write of 0 to ``CTRL_ARM`` ends a hot fused region, and a
    re-arm follows: every tiering policy of ``auto`` retires what
    ``step`` retires."""

    @pytest.mark.parametrize("leg", ["auto", "eager", "cold"])
    def test_disarm_then_rearm_matches_step(self, leg, request):
        from repro.synth.observe import observe

        if leg == "eager":
            request.getfixturevalue("eager_fusion")
        slow = _zolc_sim(DISARM_SRC)
        slow.run(engine="step")
        sim = _zolc_sim(DISARM_SRC)                 # a Program per leg
        _run_leg(sim, "cold" if leg == "cold" else "auto")
        assert sim.last_engine == "traced"
        assert observe(sim) == observe(slow)
        assert sim.zolc.arm_count == 12
        assert not sim.zolc.active
        # 0+1+2+3 per invocation; three loop-backs and one expiry per
        # invocation, none on the disarmed port.
        assert sim.state.regs["s0"] == 72
        assert sim.zolc.task_switches == 48
        symbols = sim.program.symbols
        span = ((symbols["tail"] - sim.program.text_base) >> 2,
                (symbols["disarm"] - sim.program.text_base) >> 2)
        spans = _region_spans(sim.program)
        if leg == "cold":
            assert spans == []
            assert sim.trace_resident_steps == 0
        else:
            assert span in spans
            assert sim.trace_resident_steps > 0


class TestDirectJumpToTrigger:
    def test_loop_goes_resident_when_later_code_jumps_to_its_trigger(
            self):
        """``DISARM_SRC`` with a direct ``j after`` in place of the
        indirect jump: the jump's block joins the loop's natural loop
        through the trigger redirect edge, and its ``mtz`` must not
        keep the one-instruction body from going resident."""
        from repro.synth.observe import observe

        source = DISARM_SRC.replace(
            "        ori  t9, zero, %lo(after)\n"
            "        jr   t9                 # reach the trigger unarmed: "
            "no fire\n",
            "        j    after              # reach the trigger unarmed: "
            "no fire\n")
        assert "j    after" in source
        slow = _zolc_sim(source)
        slow.run(engine="step")
        sim = _zolc_sim(source)
        sim.run()
        assert observe(sim) == observe(slow)
        assert sim.state.regs["s0"] == 72
        assert sim.trace_resident_steps > 0


class TestPlanlessFallback:
    """A port without ``zolc_plan`` (any pre-compiled-plan custom
    :class:`ZolcPort`) must resolve ``auto`` to the stepped interpreter
    — per-retirement ``on_retire`` — and still retire an identical
    sequence."""

    @pytest.mark.parametrize("kernel_name", ["vec_sum", "matmul"])
    def test_planless_port_matches_plan_port(self, kernel_registry,
                                             kernel_name):
        from repro.cpu import PlanlessZolcPort

        machine = next(m for m in ALL_MACHINES if m.name == "ZOLClite")
        prepared = machine.prepare(kernel_registry.get(kernel_name).source)

        planful = prepared.make_simulator()
        planful.run()

        planless = prepared.make_simulator()
        planless.zolc = PlanlessZolcPort(planless.zolc)
        planless.run()

        assert planful.last_engine == "traced"
        assert planless.last_engine == "step"
        assert _state_tuple(planful) == _state_tuple(planless)
        assert _controller_tuple(planful) == _controller_tuple(planless)
        # The planless run never built a plan table (no watch arrays,
        # no region slicing).
        assert planless._plan_tables == {}
        assert any(key is not None for key in planful._plan_tables)

    def test_run_traced_rejects_a_planless_port(self):
        """Passed a planless port directly, the run loop fails loudly
        rather than running it as a machine without a ZOLC."""
        from repro.cpu import PlanlessZolcPort
        from repro.cpu.engine import run_traced

        sim = _zolc_sim(REARM_SRC)
        # Lowering binds the compiled port's per-selector writers, so
        # predecode against the real port before hiding its plan.
        predecoded = sim._ensure_predecoded()
        sim.zolc = PlanlessZolcPort(sim.zolc)
        with pytest.raises(AttributeError, match="zolc_plan"):
            run_traced(sim, 1_000, predecoded)
        assert sim.stats.instructions == 0


class TestFireHandlerHalt:
    def test_port_halting_from_fire_trigger_stops_both_engines(self):
        """The plan contract allows fire handlers to halt the machine.

        The run loop must observe the flag after every fired event,
        exactly like the stepped loop observes it after on_retire.
        """
        from repro.core import ZolcController
        from repro.core.config import ZOLC_LITE

        class HaltingController(ZolcController):
            def __init__(self, config, after):
                super().__init__(config)
                self.after = after
                self.state = None

            def fire_trigger(self, loop_id):
                decision = super().fire_trigger(loop_id)
                if self.task_switches >= self.after:
                    self.state.halted = True
                return decision

        def run(engine):
            sim = Simulator(assemble(REARM_SRC),
                            zolc=HaltingController(ZOLC_LITE, after=3))
            sim.zolc.attach(sim.state.regs)
            sim.zolc.state = sim.state
            sim.run(max_steps=10_000, engine=engine)
            return sim

        auto = run("auto")
        slow = run("step")
        assert auto.state.halted and slow.state.halted
        assert _state_tuple(auto) == _state_tuple(slow)
        assert _controller_tuple(auto) == _controller_tuple(slow)
        assert auto.zolc.task_switches == 3


class TestPreArmedController:
    def test_programmatically_armed_controller_matches_step(self):
        """Arming before run() exercises the pending-writes window.

        zolc_plan() withholds the plan until the arm-time index writes
        flush through on_retire at the first retirement, so the run
        loop starts in its transient per-retirement mode and then
        switches to compiled dispatch.
        """
        from repro.core import tables as T

        source = """
        .text
main:
        add  s0, s0, t0
after:
        halt
"""

        def build():
            sim = _zolc_sim(source)
            zolc = sim.zolc
            program = sim.program
            zolc.write(T.loop_selector(0, T.F_TRIPS), 7)
            zolc.write(T.loop_selector(0, T.F_INITIAL), 0)
            zolc.write(T.loop_selector(0, T.F_STEP), 1)
            zolc.write(T.loop_selector(0, T.F_INDEX_REG), 8)
            zolc.write(T.loop_selector(0, T.F_BODY_PC),
                       program.symbols["main"])
            zolc.write(T.loop_selector(0, T.F_TRIGGER_PC),
                       program.symbols["after"])
            zolc.write(T.loop_selector(0, T.F_FLAGS), T.FLAG_VALID)
            zolc.write(T.CTRL_ARM, 1)
            assert zolc.zolc_plan() is None  # pending arm-time writes
            return sim

        auto = build()
        auto.run(max_steps=1_000)
        slow = build()
        slow.run(max_steps=1_000, engine="step")
        assert _state_tuple(auto) == _state_tuple(slow)
        assert _controller_tuple(auto) == _controller_tuple(slow)
        assert auto.state.regs["s0"] == sum(range(7))


class TestFaultPaths:
    def test_watchdog_message_and_state_synced(self):
        source = "li t0, 5\nloop: addi t0, t0, -1\nbne t0, zero, loop\nhalt\n"
        auto = Simulator(assemble(source))
        slow = Simulator(assemble(source))
        with pytest.raises(WatchdogError):
            auto.run(max_steps=7)
        with pytest.raises(WatchdogError):
            slow.run(max_steps=7, engine="step")
        assert _state_tuple(auto) == _state_tuple(slow)

    def test_invalid_fetch_matches(self):
        from repro.cpu import InvalidFetchError
        source = "j 0x200\nhalt\n"
        auto = Simulator(assemble(source))
        slow = Simulator(assemble(source))
        with pytest.raises(InvalidFetchError):
            auto.run()
        with pytest.raises(InvalidFetchError):
            slow.run(engine="step")
        assert _state_tuple(auto) == _state_tuple(slow)

    def test_unplaced_zolc_instruction_raises(self):
        from repro.cpu import SimulationError
        sim = Simulator(assemble("mtz t0, 4\nhalt\n"))
        with pytest.raises(SimulationError, match="without a ZOLC"):
            sim.run()

    @pytest.mark.usefixtures("eager_fusion")
    @pytest.mark.parametrize("source, fault_slot, term_slot", [
        # a table write retires inside its span
        ("li t0, 3\naddi t1, t0, 1\nmtz t0, 256\nadd t2, t0, t1\n"
         "halt\n", 2, 4),
        # so does an mfz
        ("li t0, 3\nmfz t1, 256\nadd t2, t0, t1\nhalt\n", 1, 3),
        # a reset whose span runs on into an arm
        ("li t0, 1\nmtz zero, 1\naddi t1, t0, 1\nmtz t0, 0\nhalt\n",
         1, 3),
        # an arm ends its span
        ("li t0, 1\naddi t1, t0, 1\nmtz t0, 0\nhalt\n", 2, 2),
    ], ids=["table-write", "mfz", "reset", "arm-terminator"])
    def test_portless_zolc_access_inside_a_fused_region(
            self, source, fault_slot, term_slot):
        """On a machine without a ZOLC, a port access that a fused
        region retires — as an interior member or as the terminator —
        raises the no-ZOLC fault at its own pc, with the members before
        it retired exactly as the stepped interpreter retires them."""
        from repro.cpu import SimulationError

        sims = {}
        for leg in ("step", "auto"):
            sim = sims[leg] = Simulator(assemble(source))
            with pytest.raises(SimulationError, match="without a ZOLC"):
                _run_leg(sim, leg)
        auto, slow = sims["auto"], sims["step"]
        assert _region_spans(auto.program) == [(0, term_slot)]
        assert slow.state.pc == slow.program.text_base + 4 * fault_slot
        assert slow.stats.instructions == fault_slot
        assert _state_tuple(auto) == _state_tuple(slow)


class TestTracedEngine:
    """The trace-batched run loop: equivalence, caches, faults.

    Bulk equivalence coverage for ``engine="auto"`` lives in the
    generated suite (``tests/test_engine_fuzz.py``); these tests pin the
    deterministic corners — watchdog-exact batching, fault
    reconciliation inside a fused region, re-arm invalidation and the
    two cache layers.
    """

    @pytest.mark.usefixtures("eager_fusion")
    def test_traced_matches_step_on_rearm_programs(self):
        for source in (REARM_SRC, REINVOKE_SRC):
            traced = _zolc_sim(source)
            traced.run(max_steps=10_000)
            slow = _zolc_sim(source)
            slow.run(max_steps=10_000, engine="step")
            assert _state_tuple(traced) == _state_tuple(slow)
            assert _controller_tuple(traced) == _controller_tuple(slow)

    def test_traced_lockstep_is_watchdog_exact(self):
        """max_steps=1 never lets a region overshoot the watchdog."""
        machine = next(m for m in ALL_MACHINES if m.name == "ZOLClite")
        prepared = machine.prepare(
            "li t0, 0\nloop: addi t0, t0, 1\nslti at, t0, 9\n"
            "bne at, zero, loop\nhalt\n")
        traced = prepared.make_simulator()
        slow = prepared.make_simulator()
        for retirement in range(200):
            if slow.state.halted:
                break
            slow.step()
            if slow.state.halted:
                traced.run(max_steps=1)
            else:
                with pytest.raises(WatchdogError):
                    traced.run(max_steps=1)
            assert _state_tuple(traced) == _state_tuple(slow), \
                f"diverged at retirement {retirement}"
        else:
            pytest.fail("program did not halt")

    @pytest.mark.usefixtures("eager_fusion")
    def test_fault_inside_fused_region_reconciles_exactly(self):
        """A mid-region memory fault retires its prefix, like the others."""
        from repro.cpu import MemoryAccessError

        source = ("li t0, 1\nli t1, 2\nadd t2, t0, t1\n"
                  "sw t2, -5(zero)\nadd t3, t0, t1\nhalt\n")
        sims = {}
        for engine in ("step", "auto"):
            sim = Simulator(assemble(source))
            with pytest.raises(MemoryAccessError):
                sim.run(engine=engine)
            sims[engine] = sim
        assert _state_tuple(sims["auto"]) == _state_tuple(sims["step"])
        assert _region_spans(sims["auto"].program) == [(0, 5)]
        # The prefix (li, li, add) retired; the faulting store did not.
        assert sims["auto"].stats.instructions == 3
        assert sims["auto"].state.regs["t2"] == 3

    def test_fault_at_a_fused_regions_first_member(self):
        """A fault at member 0 of a fused region retires none of it.

        The loop body (4, 7) fuses once hot; its ``lw`` at 0x10 then
        reads past the end of memory.  The traceback walk maps the fault
        to ordinal 0, so the region retires nothing and the post-mortem
        (pc, steps, cycles, stall, pending, per-category counts) is the
        stepped interpreter's.
        """
        from repro.cpu import MemoryAccessError

        program = assemble("li t3, 0\nli t4, 0x80000\nli t5, 4096\n"
                           "loop: lw t1, 0(t3)\nadd t2, t2, t1\n"
                           "add t3, t3, t5\nbne t3, t4, loop\nhalt\n")
        sims = {}
        for engine in ("step", "auto"):
            sims[engine] = Simulator(program)
            with pytest.raises(MemoryAccessError):
                sims[engine].run(engine=engine)
        auto, slow = sims["auto"], sims["step"]
        assert _region_spans(program) == [(4, 7)]
        assert auto.state.pc == program.text_base + 0x10
        assert auto.stats.instructions == 260
        assert auto.stats.cycles == 388
        assert auto.timing._pending_load_dest is None
        assert _state_tuple(auto) == _state_tuple(slow)

    def test_traced_fault_paths_match(self):
        source = "li t0, 5\nloop: addi t0, t0, -1\nbne t0, zero, loop\nhalt\n"
        traced = Simulator(assemble(source))
        slow = Simulator(assemble(source))
        with pytest.raises(WatchdogError):
            traced.run(max_steps=7)
        with pytest.raises(WatchdogError):
            slow.run(max_steps=7, engine="step")
        assert _state_tuple(traced) == _state_tuple(slow)

        from repro.cpu import InvalidFetchError
        traced = Simulator(assemble("j 0x200\nhalt\n"))
        with pytest.raises(InvalidFetchError):
            traced.run()

    def test_traced_requires_predecodable_program(self, monkeypatch):
        import repro.cpu.simulator as simulator_module
        from repro.cpu import SimulationError

        def boom(sim):
            raise SimulationError("no predecoder for mnemonic 'frobnicate'")

        monkeypatch.setattr(simulator_module, "predecode", boom)
        sim = Simulator(assemble("li t0, 4\nhalt\n"))
        sim.run()
        assert sim.last_engine == "step"
        assert sim._predecode_failure == \
            "no predecoder for mnemonic 'frobnicate'"
        assert sim.state.regs["t0"] == 4

    def test_region_code_cache_shared_across_simulators(self):
        """Compiled megahandler code lives in the Program's code table,
        so repeated simulations of one prepared kernel compile each
        region once — under any pipeline config, since region source
        bakes in no timing.  A trace blueprint bakes in its cycle
        counts, so another config compiles one more trace record."""
        from repro.cpu.engine.emit import codegen_records
        from repro.cpu.pipeline import PipelineConfig

        machine = next(m for m in ALL_MACHINES if m.name == "ZOLClite")
        prepared = machine.prepare(_counted_loop(50))
        first = prepared.make_simulator()
        first.run()
        table = codegen_records(prepared.program)

        def of_kind(kind):
            return {key: record for key, record in table.items()
                    if key[0] == kind}

        regions = of_kind("region")
        traces = of_kind("trace")
        assert regions                       # something was fused
        assert len(traces) == 1
        second = prepared.make_simulator()
        second.run()
        assert _state_tuple(first) == _state_tuple(second)
        stalled = PipelineConfig(load_use_stall=2)
        third = prepared.make_simulator(pipeline=stalled)
        third.run()
        for sim in (second, third):
            assert sim.trace_resident_steps > 0
        # No recompilation: every region record object is reused.
        assert of_kind("region").keys() == regions.keys()
        for span, record in regions.items():
            assert table[span] is record
        new_traces = of_kind("trace").keys() - traces.keys()
        assert [key[-1] for key in new_traces] == [stalled]
        for key, record in traces.items():
            assert table[key] is record

    def test_region_tables_cached_by_plan_content(self, monkeypatch):
        """Three arms of identical tables build one plan table (plus the
        unarmed one): the region slicing and the watch arrays are built
        once, and a port swap clears every plan table."""
        built = []
        real = traced_module._compile_watch_arrays
        monkeypatch.setattr(
            traced_module, "_compile_watch_arrays",
            lambda plan, n, base: built.append(plan.key) or real(
                plan, n, base))
        sim = _zolc_sim(REINVOKE_SRC)
        sim.run(max_steps=10_000)
        # One unarmed table (key None) + one table for the repeatedly
        # re-armed plan — not one per arm.
        assert sim.zolc.arm_count == 3
        assert None in sim._plan_tables
        plan_keys = [k for k in sim._plan_tables if k is not None]
        assert len(plan_keys) == 1
        # Every re-arm resolved the cached table's watch arrays.
        assert built == plan_keys
        assert sim._plan_tables[plan_keys[0]].next_watch is not None
        sim.zolc = None
        sim._ensure_predecoded()
        assert sim._plan_tables == {}


class TestGeneratedCodeLifetime:
    """Bound generated code holds no reference cycle: a finished
    simulator, its fused regions and its traces are freed by reference
    counting alone, memory included."""

    @pytest.mark.parametrize("machine_name, kernel_name, resident", [
        ("XRdefault", "vec_sum", False),
        ("ZOLCfull", "me_fss", True),
        ("uZOLC", "conv2d", False),
    ])
    def test_deleted_simulator_frees_its_memory(self, machine_name,
                                                kernel_name, resident):
        import gc
        import weakref

        from repro.eval.machines import machine_registry
        from repro.workloads.suite import registry

        machine = machine_registry().get(machine_name)
        prepared = machine.prepare(registry().get(kernel_name).source)
        gc.disable()
        try:
            for _ in range(3):
                sim = prepared.make_simulator()
                sim.run()
                assert _region_spans(prepared.program)
                assert (sim.trace_resident_steps > 0) == resident
                memory = weakref.ref(sim.memory)
                del sim
                assert memory() is None
        finally:
            gc.enable()


def _region_spans(program):
    """The (start, term) spans of the program's fused-region records."""
    from repro.cpu.engine.emit import codegen_records

    return sorted(key[1:3] for key in codegen_records(program)
                  if key[0] == "region")


def _counted_loop(trips):
    return (f"li t0, 0\nloop: addi t0, t0, 1\naddi t1, t1, 3\n"
            f"add t2, t2, t1\nslti at, t0, {trips}\n"
            f"bne at, zero, loop\nhalt\n")


class TestTieredRegions:
    """Tiered region compilation: a megahandler is fused once hot.

    Every region start counts its entries beside the region table.  The
    region is fused when the count reaches ``HOT_THRESHOLD`` (the
    constant that also gates trace promotion), or on first entry when
    the Program already holds its code; until then its slots run on
    the single-slot path.
    """

    @pytest.mark.parametrize("trips, spans", [
        (HOT_THRESHOLD - 1, []),
        (HOT_THRESHOLD, [(1, 5)]),
        (50, [(1, 5)]),
    ])
    def test_region_fuses_once_hot(self, trips, spans):
        program = assemble(_counted_loop(trips))
        traced = Simulator(program)
        traced.run()
        slow = Simulator(program)
        slow.run(engine="step")
        assert _state_tuple(traced) == _state_tuple(slow)
        # The entry block (slot 0) runs once and is never fused.
        assert _region_spans(program) == spans

    @pytest.mark.parametrize("trips", [HOT_THRESHOLD - 1, 50])
    def test_zolc_loop_fuses_and_chains_once_hot(self, trips):
        from repro.cpu.engine.emit import codegen_records

        machine = next(m for m in ALL_MACHINES if m.name == "ZOLClite")
        prepared = machine.prepare(_counted_loop(trips))
        assert prepared.transformed_loops == 1
        traced = prepared.make_simulator()
        traced.run()
        slow = prepared.make_simulator()
        slow.run(engine="step")
        assert _state_tuple(traced) == _state_tuple(slow)
        assert _controller_tuple(traced) == _controller_tuple(slow)
        kinds = sorted(kind for kind, *_rest
                       in codegen_records(prepared.program))
        if trips < HOT_THRESHOLD:
            assert kinds == []
            assert traced.chain_resident_steps == 0
        else:
            assert kinds == ["region", "trace"]
            assert traced.chain_resident_steps > 0

    def test_cached_region_code_fuses_on_first_entry(self):
        from repro.cpu.engine import TraceRegion
        from repro.cpu.engine.traced import _region_record

        program = assemble("li t0, 1\nli t1, 2\nadd t2, t0, t1\n"
                           "sub t3, t2, t0\nhalt\n")
        cold = Simulator(program)
        cold.run()
        table = cold._plan_tables[None]
        term = table.regions[0]
        assert term.__class__ is int and table.heat[0] == 1
        assert _region_spans(program) == []
        _region_record(program, 0, term)
        warm = Simulator(program)
        warm.run()
        table = warm._plan_tables[None]
        assert isinstance(table.regions[0], TraceRegion)
        assert table.heat[0] == 0
        assert _state_tuple(warm) == _state_tuple(cold)

    @pytest.mark.parametrize("eager", [False, True])
    def test_side_entry_matches_step(self, eager, request):
        """A ZOLCfull side entry, fired from a fused region terminator
        (eager) or from the single-slot path (tiered)."""
        from repro.core.config import ZOLC_FULL
        from repro.transform.zolc_rewrite import rewrite_for_zolc
        from repro.workloads.kernels.synthetic import multi_entry_kernel

        if eager:
            request.getfixturevalue("eager_fusion")
        kernel = multi_entry_kernel(use_side_entry=True)
        result = rewrite_for_zolc(kernel.source, ZOLC_FULL)
        sims = {}
        for engine in ("step", "auto"):
            sims[engine] = result.make_simulator()
            sims[engine].run(engine=engine)
        kernel.check(sims["auto"])
        assert sims["auto"].zolc.entry_events >= 1
        assert _state_tuple(sims["auto"]) == _state_tuple(sims["step"])
        assert _controller_tuple(sims["auto"]) \
            == _controller_tuple(sims["step"])

    def test_fault_in_unfused_region_post_mortems_like_step(self):
        from repro.cpu import MemoryAccessError

        program = assemble("li t0, 1\nli t1, 2\nadd t2, t0, t1\n"
                           "sw t2, -5(zero)\nadd t3, t0, t1\nhalt\n")
        sims = {}
        for engine in ("step", "auto"):
            sims[engine] = Simulator(program)
            with pytest.raises(MemoryAccessError):
                sims[engine].run(engine=engine)
        assert _region_spans(program) == []
        assert _state_tuple(sims["auto"]) == _state_tuple(sims["step"])
        assert sims["auto"].stats.instructions == 3

    def test_fault_in_unfused_zolc_region_post_mortems_like_step(self):
        """The loop faults on its 4th iteration, before it is hot."""
        from repro.cpu import MemoryAccessError

        machine = next(m for m in ALL_MACHINES if m.name == "ZOLClite")
        prepared = machine.prepare(
            "li t0, 1\nloop: sll t2, t0, 16\nlw t3, 0(t2)\n"
            "add s0, s0, t3\naddi t0, t0, 1\nslti at, t0, 20\n"
            "bne at, zero, loop\nhalt\n")
        assert prepared.transformed_loops == 1
        sims = {}
        for engine in ("step", "auto"):
            sims[engine] = prepared.make_simulator()
            with pytest.raises(MemoryAccessError):
                sims[engine].run(engine=engine)
        assert _region_spans(prepared.program) == []
        assert _state_tuple(sims["auto"]) == _state_tuple(sims["step"])
        assert _controller_tuple(sims["auto"]) \
            == _controller_tuple(sims["step"])


class TestLoopResident:
    """The fire→re-entry trace: engagement, exactness, fault paths.

    A loop whose whole body is straight-line code executes iteration
    batches inside a zero-guard trace (trace.py `_compile_trace`);
    these tests pin that the trace actually engages on the canonical
    shape, and that watchdog budgets, faults and counters stay
    bit-identical to the per-instruction engines — batching must never
    be observable.
    """

    # A straight-line body of >= 2 instructions with an up-count latch:
    # the transform converts it, and every trigger fire loops back to
    # the body entry.
    LOOP_SRC = """
        .data
scratch: .word 0, 0, 0, 0
        .text
main:
        li   s0, 0
        la   t8, scratch
        li   t0, 0
loop:
        add  s0, s0, t0
        sw   s0, 0(t8)
        addi t0, t0, 1
        slti at, t0, 9
        bne  at, zero, loop
        halt
"""

    def _prepared(self):
        machine = next(m for m in ALL_MACHINES if m.name == "ZOLClite")
        prepared = machine.prepare(self.LOOP_SRC)
        assert prepared.transformed_loops >= 1
        return prepared

    def test_chain_engages_and_matches_step(self):
        prepared = self._prepared()
        traced = prepared.make_simulator()
        traced.run()
        traces = [t for table in traced._plan_tables.values()
                  if table.traces is not None
                  for t in table.traces.slots if t is not None]
        assert [len(t.outcomes) for t in traces] == [1], \
            "the canonical loop-back did not go resident as one " \
            "zero-guard trace"
        assert traced.chain_resident_steps > 0
        slow = prepared.make_simulator()
        slow.run(engine="step")
        assert _state_tuple(traced) == _state_tuple(slow)
        assert _controller_tuple(traced) == _controller_tuple(slow)

    def test_chain_respects_every_watchdog_budget(self):
        """Cutting the run at every step count mid-chain stays exact."""
        self._assert_every_budget_exact()

    @pytest.mark.usefixtures("eager_fusion")
    def test_eager_trace_respects_every_watchdog_budget(self):
        """Resident from the second iteration, every budget cut lands
        mid-driver — and stays exact."""
        self._assert_every_budget_exact()

    def _assert_every_budget_exact(self):
        prepared = self._prepared()
        for budget in range(1, 60):
            traced = prepared.make_simulator()
            slow = prepared.make_simulator()
            outcomes = []
            for sim, engine in ((traced, "auto"), (slow, "step")):
                try:
                    sim.run(max_steps=budget, engine=engine)
                    outcomes.append("halt")
                except WatchdogError:
                    outcomes.append("watchdog")
            assert outcomes[0] == outcomes[1], f"budget {budget}"
            assert _state_tuple(traced) == _state_tuple(slow), \
                f"diverged at budget {budget}"
            assert _controller_tuple(traced) == _controller_tuple(slow), \
                f"controller diverged at budget {budget}"

    def test_short_inner_loop_goes_resident(self):
        """A 3-trip inner loop (conv2d's shape) goes trace-resident.

        Its HOT_THRESHOLD-th loop-back is always followed by an expiry
        (the outer body has work of its own, so the expiry does not
        cascade straight back to the inner entry): the straight-line
        body must promote on that fire itself, since a recorded
        iteration would be abandoned every time.
        """
        source = """
main:
        li   s0, 0
        li   s1, 0
        li   t0, 0
outer:
        addi s1, s1, 2
        li   t1, 0
inner:
        add  s0, s0, t1
        addi s0, s0, 1
        addi t1, t1, 1
        slti at, t1, 3
        bne  at, zero, inner
        add  s1, s1, s0
        addi t0, t0, 1
        slti at, t0, 12
        bne  at, zero, outer
        halt
"""
        machine = next(m for m in ALL_MACHINES if m.name == "ZOLClite")
        prepared = machine.prepare(source)
        assert prepared.transformed_loops == 2
        traced = prepared.make_simulator()
        traced.run()
        slow = prepared.make_simulator()
        slow.run(engine="step")
        assert _state_tuple(traced) == _state_tuple(slow)
        assert _controller_tuple(traced) == _controller_tuple(slow)
        assert traced.chain_resident_steps > 0

    @pytest.mark.usefixtures("eager_fusion")
    def test_memory_fault_inside_chain_reconciles(self):
        """A store that faults mid-iteration lands on the exact state."""
        from repro.cpu import MemoryAccessError

        source = """
        .text
main:
        li   t0, 0
        lui  t8, 3              # 0x30000, memory is 0x40000 bytes
loop:
        sw   t0, 0(t8)
        addi t8, t8, 16384      # walks off the end mid-run
        addi t0, t0, 1
        slti at, t0, 12
        bne  at, zero, loop
        halt
"""
        machine = next(m for m in ALL_MACHINES if m.name == "ZOLClite")
        sims = {}
        for leg in ("step", "auto", "cold"):
            prepared = machine.prepare(source)      # a Program per leg
            assert prepared.transformed_loops >= 1
            sim = sims[leg] = prepared.make_simulator()
            with pytest.raises(MemoryAccessError):
                _run_leg(sim, leg)
        for leg in ("cold", "auto"):
            assert _state_tuple(sims[leg]) == _state_tuple(sims["step"])
            assert _controller_tuple(sims[leg]) == \
                _controller_tuple(sims["step"])
        # The fault struck inside the resident driver, not before it —
        # and, on the cold leg, on the per-slot path.
        assert sims["auto"].chain_resident_steps > 0
        assert sims["cold"].chain_resident_steps == 0

    @pytest.mark.usefixtures("eager_fusion")
    def test_fire_fault_inside_chain_reconciles(self):
        """A controller fault raised by a chained fire stays exact.

        Rewriting the armed loop's trigger tables is not expressible
        mid-trace (no mtz retires inside one), so fault injection
        monkeypatches the decision path instead: the Nth task switch
        raises, in every engine, and the post-mortem states must agree.
        """
        from repro.cpu.exceptions import ZolcFaultError

        sims = {}
        for leg in ("step", "auto", "cold"):
            sim = sims[leg] = self._prepared().make_simulator()
            controller = sim.zolc
            real_decide = controller.unit.decide
            calls = []

            def exploding(loop_id, depth=0, _real=real_decide,
                          _calls=calls):
                _calls.append(loop_id)
                if len(_calls) == 5:
                    raise ZolcFaultError("injected mid-run fault")
                return _real(loop_id, depth)

            controller.unit.decide = exploding
            controller._decide = exploding
            with pytest.raises(ZolcFaultError):
                _run_leg(sim, leg)
        for leg in ("cold", "auto"):
            assert _state_tuple(sims[leg]) == _state_tuple(sims["step"])
        # The fault struck inside the resident driver, not before it —
        # and, on the cold leg, on the per-slot path.
        assert sims["auto"].chain_resident_steps > 0
        assert sims["cold"].chain_resident_steps == 0


@pytest.mark.usefixtures("eager_fusion")
class TestInlinedMemory:
    """Byte/half/word access semantics of the fused-region codegen.

    The run loop generates bounds-checked loads/stores against the
    raw memory buffer; these pin the sign-extension identities and the
    fault paths (misalignment, out-of-range) against the stepped
    interpreter, and against the handler closures of the cold per-slot
    path.  The programs run once, so ``eager_fusion`` fuses them.
    """

    def _agree(self, source, fault=None):
        sims = {}
        for leg in ("step", "auto", "cold"):
            sim = sims[leg] = Simulator(assemble(source))
            if fault is None:
                _run_leg(sim, leg)
            else:
                with pytest.raises(fault):
                    _run_leg(sim, leg)
        assert _region_spans(sims["auto"].program) != []
        assert _region_spans(sims["cold"].program) == []
        for leg in ("cold", "auto"):
            assert _state_tuple(sims[leg]) == _state_tuple(sims["step"]), \
                f"{leg} diverged"
        return sims["auto"]

    def test_signed_and_unsigned_subword_loads(self):
        traced = self._agree("""
        .data
bytes:  .word 0x80FF7F01
        .text
main:
        la   t8, bytes
        lb   t0, 3(t8)          # 0x80 -> 0xFFFFFF80
        lbu  t1, 3(t8)          # 0x80
        lb   t2, 1(t8)          # 0x7F stays positive... (0xFF at 1)
        lbu  t3, 1(t8)
        lh   s0, 2(t8)          # 0x80FF -> sign-extended
        lhu  s1, 2(t8)
        lh   s2, 0(t8)          # 0x7F01 positive
        sb   t0, 4(t8)
        sh   s0, 6(t8)
        halt
""")
        regs = traced.state.regs
        assert regs["t0"] == 0xFFFFFF80
        assert regs["t1"] == 0x80
        assert regs["s0"] == 0xFFFF80FF
        assert regs["s1"] == 0x80FF
        assert regs["s2"] == 0x7F01

    def test_misaligned_half_load_faults_identically(self):
        from repro.cpu import MemoryAccessError

        self._agree("""
main:
        li   t0, 3
        add  t1, t0, t0
        lh   t2, 0(t0)          # misaligned halfword
        halt
""", fault=MemoryAccessError)

    def test_out_of_range_store_faults_identically(self):
        from repro.cpu import MemoryAccessError

        self._agree("""
main:
        lui  t0, 16             # 0x100000, past 256 KiB
        li   t1, 7
        sw   t1, 0(t0)
        halt
""", fault=MemoryAccessError)

    def test_rt_zero_load_still_faults(self):
        from repro.cpu import MemoryAccessError

        self._agree("""
main:
        lui  t0, 16
        li   t1, 1
        lw   zero, 0(t0)        # discarded value, real fault
        halt
""", fault=MemoryAccessError)
