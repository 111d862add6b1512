"""Deterministic tests for the guard-based trace JIT.

The 4-way fuzz (``test_engine_fuzz.py``) samples branchy loop bodies at
random; this module pins the specific trace-JIT behaviours with
hand-written kernels whose control flow is known exactly:

* trace formation and loop residency on a branchy body,
* guard side exits leaving architectural state exactly where the
  per-slot engines would,
* bridge traces spliced for a hot opposite side,
* fault reconciliation when a trace body faults mid-run,
* the region-only tier (``resident=False``) staying bit-identical too.
"""

import pytest

from repro.eval.machines import M_UZOLC, M_ZOLC_FULL, M_ZOLC_LITE

from repro.synth.strategies import controller_tuple, memory_image, state_tuple

MAX_STEPS = 200_000

ZOLC_MACHINES = (M_UZOLC, M_ZOLC_LITE, M_ZOLC_FULL)


def _observe(sim):
    return (state_tuple(sim), memory_image(sim), controller_tuple(sim))


def _run(prepared, engine="auto"):
    sim = prepared.make_simulator()
    if engine == "auto":
        sim.run(max_steps=MAX_STEPS)
    elif engine == "nojit":
        from repro.cpu.engine import run_traced

        predecoded = sim._ensure_predecoded()
        run_traced(sim, MAX_STEPS, predecoded, resident=False)
    else:
        sim.run(max_steps=MAX_STEPS, engine=engine)
    return sim


def _traces(sim):
    """Every instantiated Trace across the simulator's JIT tables."""
    out = []
    for table in sim._trace_jit_cache.values():
        out += [t for t in table.slots if t is not None]
    return out


#: Branchy counted loop in the canonical up_count_slt shape: the body
#: skips an accumulate every 8th iteration, so the trace guard fails
#: (side-exits) 8 times in 64 trips — over the bridge threshold, so the
#: cold side gets its own spliced path.
BRANCHY = """
        .data
scratch: .word 0, 0, 0, 0, 0, 0, 0, 0
        .text
main:
        li   s0, 0
        li   s1, 7
        la   t8, scratch
        li   t0, 0
loop:
        andi at, t0, 7
        bne  at, zero, skip
        addi s0, s0, 5
        sw   s0, 4(t8)
skip:
        add  s0, s0, t0
        lw   s2, 0(t8)
        addi s2, s2, 1
        sw   s2, 0(t8)
        addi t0, t0, 1
        slti at, t0, 64
        bne  at, zero, loop
        sw   s0, 0(t8)
        halt
"""

#: A guard that stays hot for 50 iterations, then diverges for the
#: tail: the first side exit happens deep into loop residency.
LATE_DIVERGE = """
        .data
scratch: .word 0, 0, 0, 0
        .text
main:
        li   s0, 0
        la   t8, scratch
        li   t0, 0
loop:
        slti at, t0, 50
        beq  at, zero, tail
        addi s0, s0, 2
        beq  zero, zero, cont
tail:
        addi s0, s0, 9
        sw   s0, 0(t8)
cont:
        addi t0, t0, 1
        slti at, t0, 64
        bne  at, zero, loop
        halt
"""

#: The hot path loads through an address that leaves the memory image
#: at iteration 17 (``t0 & 48`` turns non-zero at 16, shifted out of
#: range), long after the trace went hot and loop-resident.
FAULTING = """
        .data
scratch: .word 0, 0, 0, 0
        .text
main:
        li   s0, 0
        la   t8, scratch
        li   t0, 0
loop:
        andi at, t0, 7
        beq  at, zero, rare
        andi s2, t0, 48
        sll  s2, s2, 24
        add  s2, s2, t8
        lw   s3, 0(s2)
        add  s0, s0, s3
        beq  zero, zero, cont
rare:
        addi s0, s0, 3
cont:
        addi t0, t0, 1
        slti at, t0, 64
        bne  at, zero, loop
        halt
"""


class TestTraceFormation:
    @pytest.mark.parametrize("machine", ZOLC_MACHINES,
                             ids=lambda m: m.name)
    def test_branchy_body_goes_trace_resident(self, machine):
        """The branchy loop runs inside traces, bit-identical to step."""
        prepared = machine.prepare(BRANCHY)
        assert prepared.transformed_loops >= 1
        jit = _run(prepared)
        step = _run(prepared, engine="step")
        assert _observe(jit) == _observe(step)
        assert jit.trace_resident_steps > 0
        assert jit.chain_resident_steps > 0

    @pytest.mark.parametrize("machine", ZOLC_MACHINES,
                             ids=lambda m: m.name)
    def test_nojit_tier_stays_bit_identical(self, machine):
        """The region-only tier (no resident traces) is still exact."""
        prepared = machine.prepare(BRANCHY)
        nojit = _run(prepared, engine="nojit")
        step = _run(prepared, engine="step")
        assert _observe(nojit) == _observe(step)

    def test_trace_records_guards_for_auditing(self):
        """Every trace codegen record carries its guard positions."""
        from repro.cpu.engine.emit import codegen_records

        prepared = M_ZOLC_LITE.prepare(BRANCHY)
        sim = _run(prepared)
        records = [r for r in codegen_records(sim.program).values()
                   if r.kind == "trace"]
        assert records, "no trace codegen records filed"
        assert all(r.guards for r in records)


class TestGuardSideExits:
    @pytest.mark.parametrize("machine", ZOLC_MACHINES,
                             ids=lambda m: m.name)
    def test_late_divergence_is_exact(self, machine):
        """A guard failing after 50 resident iterations stays exact.

        The side exit must hand per-slot dispatch the same pc, pending
        load and cycle count the stepped oracle reaches, or the tail
        iterations disagree — the assertion covers registers, memory,
        cycles, stats and controller counters at once.
        """
        prepared = machine.prepare(LATE_DIVERGE)
        jit = _run(prepared)
        step = _run(prepared, engine="step")
        assert _observe(jit) == _observe(step)

    def test_bridge_trace_spliced_for_hot_opposite_side(self):
        """The every-8th cold side is hot enough to earn a bridge.

        After the run, the entry's Trace must cover more than one path
        (the original hot path plus at least one spliced bridge).
        """
        prepared = M_ZOLC_LITE.prepare(BRANCHY)
        sim = _run(prepared)
        traces = _traces(sim)
        assert traces, "no trace was promoted"
        assert any(len(t.paths) > 1 for t in traces), (
            "no bridge was spliced: paths per trace = "
            f"{[len(t.paths) for t in traces]}")


class TestMidTraceFaults:
    @pytest.mark.parametrize("machine", ZOLC_MACHINES,
                             ids=lambda m: m.name)
    def test_fault_inside_hot_trace_reconciles(self, machine):
        """A load fault mid-trace post-mortems exactly like step.

        The faulting iteration's prefix must retire (registers, cycles,
        stats), the pc must land on the faulting member, and both
        engines must raise the same exception type.
        """
        prepared = machine.prepare(FAULTING)
        outcomes = {}
        for engine in ("step", "auto"):
            sim = prepared.make_simulator()
            try:
                if engine == "auto":
                    sim.run(max_steps=MAX_STEPS)
                else:
                    sim.run(max_steps=MAX_STEPS, engine=engine)
            except Exception as exc:
                outcomes[engine] = (type(exc).__name__, _observe(sim))
            else:
                pytest.fail(f"{engine} did not fault")
        assert outcomes["auto"] == outcomes["step"]
