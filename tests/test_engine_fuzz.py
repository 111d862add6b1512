"""Cross-engine differential fuzzing: step vs fast vs traced vs auto.

The execution engines promise bit-identical retirement: same final
registers, memory, cycles, stats and controller counters for any
program on any machine under any pipeline timing.  ``tests/test_engine.
py`` pins that invariant on the hand-written suite; this module pins it
on *generated* programs (:mod:`repro.synth.strategies`): random structured
loop nests — in the shapes the ZOLC transform drives in hardware,
including multi-nest programs that re-arm single-shot controllers
mid-run — and random straight-line ALU programs, each crossed with
generated machines and pipeline timings.

The sweep is 4-way: the three explicit engines plus ``auto``, which
resolves to the loop-resident traced tier (fire→re-entry traces +
inlined memory access), so every generated ZOLC loop also exercises
the resident dispatch against the per-instruction oracles.

The traced tier fuses a region only once it is hot, and promotes a
loop to a resident trace only at its ``HOT_THRESHOLD``-th loop-back;
short generated programs rarely get there, so the traced leg runs a
second time with both thresholds patched to 1: every region is fused
on first entry, every loop promotes on its first loop-back, and the
megahandlers and trace drivers stay under the fuzz.

Any divergence fails with the generating source attached, so a
counterexample is directly replayable.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cpu import Simulator
from repro.cpu.engine import trace, traced

from repro.synth.strategies import (
    alu_instructions,
    controller_tuple,
    loop_nest_kernels,
    machines,
    memory_image,
    pipeline_configs,
    reg_seeds,
    render_alu_program,
    state_tuple,
)

ENGINES = ("step", "fast", "traced", "auto")

MAX_STEPS = 200_000


def _observe(sim):
    return (state_tuple(sim), memory_image(sim), controller_tuple(sim))


def _assert_engines_agree(make_simulator, source):
    observations = {}
    for engine in ENGINES:
        sim = make_simulator()
        sim.run(max_steps=MAX_STEPS, engine=engine)
        if engine == "auto":
            # `auto` is the loop-resident traced tier.
            assert sim.last_engine == "traced", sim.last_engine
        observations[engine] = _observe(sim)
    with mock.patch.object(traced, "HOT_THRESHOLD", 1), \
            mock.patch.object(trace, "HOT_THRESHOLD", 1):
        sim = make_simulator()
        sim.run(max_steps=MAX_STEPS, engine="traced")
        observations["traced (eager fusion)"] = _observe(sim)
    for engine in observations:
        assert observations[engine] == observations["step"], \
            f"{engine} diverged from step for program:\n{source}"


class TestLoopNestKernels:
    @settings(max_examples=30, deadline=None)
    @given(source=loop_nest_kernels(), machine=machines(),
           pipeline=pipeline_configs())
    def test_engines_bit_identical(self, source, machine, pipeline):
        """Generated kernels × machines × pipelines: zero divergence."""
        prepared = machine.prepare(source)
        _assert_engines_agree(
            lambda: prepared.make_simulator(pipeline=pipeline), source)

    @settings(max_examples=12, deadline=None)
    @given(source=loop_nest_kernels(max_nests=2), machine=machines(),
           pipeline=pipeline_configs())
    def test_deep_nests_with_rearm(self, source, machine, pipeline):
        """Multi-nest programs: single-shot controllers re-arm mid-run.

        Also asserts the run actually drove the controller when the
        transform converted loops, so this suite cannot silently decay
        into testing untransformed code.
        """
        prepared = machine.prepare(source)
        sim = prepared.make_simulator(pipeline=pipeline)
        sim.run(max_steps=MAX_STEPS, engine="traced")
        if prepared.transformed_loops and sim.zolc is not None:
            assert getattr(sim.zolc, "arm_count", 0) >= 1
        _assert_engines_agree(
            lambda: prepared.make_simulator(pipeline=pipeline), source)


class TestAluPrograms:
    @settings(max_examples=60, deadline=None)
    @given(spec=st.lists(alu_instructions(), min_size=1, max_size=24),
           seeds=reg_seeds, pipeline=pipeline_configs())
    def test_engines_bit_identical(self, spec, seeds, pipeline):
        source = render_alu_program(spec, seeds)
        program = assemble(source)
        _assert_engines_agree(
            lambda: Simulator(program, pipeline=pipeline), source)


class TestRearmDeterministic:
    """A pinned two-nest program so mid-run re-arm coverage does not
    depend on what Hypothesis happens to generate."""

    # Two sequential innermost loops of 8 trips each: uZOLC (single
    # loop, single-shot, >= 7 trips to amortise init) converts both and
    # must re-arm between them.
    SOURCE = """
        .data
scratch: .word 0, 0, 0, 0
        .text
main:
        li   s0, 3
        li   s1, 5
        la   t8, scratch
        li   t0, 0
first:
        add  s0, s0, t0
        addi t0, t0, 1
        slti at, t0, 8
        bne  at, zero, first
        sw   s0, 0(t8)
        li   t0, 0
second:
        add  s1, s1, t0
        sw   s1, 4(t8)
        addi t0, t0, 1
        slti at, t0, 8
        bne  at, zero, second
        halt
"""

    def test_single_shot_rearms_and_engines_agree(self):
        from repro.eval.machines import M_UZOLC

        prepared = M_UZOLC.prepare(self.SOURCE)
        assert prepared.transformed_loops >= 2
        sims = {}
        for engine in ENGINES:
            sim = prepared.make_simulator()
            sim.run(max_steps=MAX_STEPS, engine=engine)
            sims[engine] = sim
        # uZOLC is single-shot: the second nest forces a fresh arm.
        assert sims["traced"].zolc.arm_count >= 2
        for engine in ("fast", "traced"):
            assert _observe(sims[engine]) == _observe(sims["step"])
