"""Cross-tier differential fuzzing: step vs auto, hot, eager and cold.

The two engines promise bit-identical retirement: same final
registers, memory, cycles, stats and controller counters for any
program on any machine under any pipeline timing.  ``tests/test_engine.
py`` pins that invariant on the hand-written suite; this module pins it
on *generated* programs (:mod:`repro.synth.strategies`): random structured
loop nests — in the shapes the ZOLC transform drives in hardware,
including multi-nest programs that re-arm single-shot controllers
mid-run — and random straight-line ALU programs, each crossed with
generated machines and pipeline timings.

``auto`` is one run loop with an internal tiering policy, so the sweep
runs it under three policies against the ``step`` oracle:

* as shipped — a region fuses once hot, a loop promotes to a resident
  trace at its ``HOT_THRESHOLD``-th loop-back;
* eager — both thresholds patched to 1, so every region fuses on first
  entry and every loop promotes on its first loop-back, keeping the
  megahandlers and trace drivers under the fuzz even on short
  programs;
* cold — both thresholds patched out of reach on a Program of its own
  (code cached on a Program fuses on first entry whatever the
  threshold), so nothing fuses, nothing promotes and every instruction
  retires through the per-slot path.  The leg asserts it stayed cold.

Any divergence fails with the generating source attached, so a
counterexample is directly replayable.
"""

import sys
from functools import partial
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cpu import Simulator
from repro.cpu.engine import trace, traced
from repro.cpu.engine.emit import codegen_records

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

MAX_STEPS = 200_000


def _observe(sim):
    return (state_tuple(sim), memory_image(sim), controller_tuple(sim))


def _nest_factory(machine, source, pipeline=None):
    """A simulator factory over a fresh preparation of ``source``."""
    prepared = machine.prepare(source)
    return lambda: prepared.make_simulator(pipeline=pipeline)


def _alu_factory(source, pipeline):
    """A simulator factory over a fresh assembly of ``source``."""
    program = assemble(source)
    return lambda: Simulator(program, pipeline=pipeline)


def _run(sim, engine="auto", threshold=None):
    """Run ``sim``; ``threshold`` patches both tiering thresholds
    (region fusion and trace promotion) for the run."""
    if threshold is None:
        sim.run(max_steps=MAX_STEPS, engine=engine)
    else:
        with mock.patch.object(traced, "HOT_THRESHOLD", threshold), \
                mock.patch.object(trace, "HOT_THRESHOLD", threshold):
            sim.run(max_steps=MAX_STEPS, engine=engine)
    return sim


def _assert_engines_agree(prepare, source):
    """``prepare()`` builds a fresh Program and returns its simulator
    factory; the cold leg needs a Program no other leg has fused."""
    make_simulator = prepare()
    observations = {"step": _observe(_run(make_simulator(), "step"))}
    sim = _run(make_simulator())
    # `auto` takes the run loop: every generated port exposes a plan.
    assert sim.last_engine == "traced", sim.last_engine
    observations["auto"] = _observe(sim)
    observations["auto (eager fusion)"] = _observe(
        _run(make_simulator(), threshold=1))
    cold = _run(prepare()(), threshold=sys.maxsize)
    assert cold.last_engine == "traced", cold.last_engine
    assert cold.trace_resident_steps == 0
    assert not codegen_records(cold.program), "a cold region fused"
    observations["auto (cold)"] = _observe(cold)
    for engine in observations:
        assert observations[engine] == observations["step"], \
            f"{engine} diverged from step for program:\n{source}"


class TestLoopNestKernels:
    @settings(max_examples=30, deadline=None)
    @given(source=loop_nest_kernels(), machine=machines(),
           pipeline=pipeline_configs())
    def test_engines_bit_identical(self, source, machine, pipeline):
        """Generated kernels × machines × pipelines: zero divergence."""
        _assert_engines_agree(
            partial(_nest_factory, machine, source, pipeline), source)

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
        sim = _run(prepared.make_simulator(pipeline=pipeline))
        if prepared.transformed_loops and sim.zolc is not None:
            assert getattr(sim.zolc, "arm_count", 0) >= 1
        _assert_engines_agree(
            partial(_nest_factory, machine, source, pipeline), source)


class TestAluPrograms:
    @settings(max_examples=60, deadline=None)
    @given(spec=st.lists(alu_instructions(), min_size=1, max_size=24),
           seeds=reg_seeds, pipeline=pipeline_configs())
    def test_engines_bit_identical(self, spec, seeds, pipeline):
        source = render_alu_program(spec, seeds)
        _assert_engines_agree(
            partial(_alu_factory, source, pipeline), source)


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
        sim = _run(prepared.make_simulator())
        # uZOLC is single-shot: the second nest forces a fresh arm.
        assert sim.zolc.arm_count >= 2
        _assert_engines_agree(
            partial(_nest_factory, M_UZOLC, self.SOURCE), self.SOURCE)
