"""Fused ZOLC preheaders: table writes inside regions, against ``step``.

Only an ``mtz`` to ``CTRL_ARM`` or ``CTRL_RESET`` ends a straight-line
span, so a ``reset … writes … arm`` preheader runs as one fused region
and table writes retire inside regions through per-selector writers.
These tests pin the corners of that rule against the stepped oracle:
faults raised by a write in the middle of a fused preheader, a bound
reload (table writes while armed) inside a region, and a loop body
holding a table write, which must stay off the trace tier.
"""

import pytest

from repro.asm import assemble
from repro.core import ZolcController
from repro.core.config import ZOLC_LITE
from repro.cpu import Simulator, ZolcFaultError
from repro.cpu.engine.emit import codegen_records
from repro.synth.observe import observe


def _zolc_sim(program):
    sim = Simulator(program, zolc=ZolcController(ZOLC_LITE))
    sim.zolc.attach(sim.state.regs)
    return sim


def _spans(program, kind):
    return sorted((key[1], key[2]) for key in codegen_records(program)
                  if key[0] == kind)


def _trace_tables(sim):
    """The trace tables of the simulator's armed plan states."""
    return [table.traces for table in sim._plan_tables.values()
            if table.traces is not None]


def _assert_same_run(auto, step):
    """pc, steps, cycles, stall, per-category retired counts, and the
    full differential record."""
    assert auto.state.pc == step.state.pc
    assert auto.stats.instructions == step.stats.instructions
    assert auto.stats.cycles == step.stats.cycles
    assert auto.stats.stall_cycles == step.stats.stall_cycles
    assert auto.stats.by_category == step.stats.by_category
    assert auto.stats.zolc_init_instructions \
        == step.stats.zolc_init_instructions
    assert observe(auto) == observe(step)


def _preheader(fields, trigger="after"):
    """A ``reset … writes … arm`` stream programming loop 0."""
    lines = ["mtz  zero, 1"]                       # CTRL_RESET
    for selector, value in fields:
        lines += [f"ori  at, zero, {value}", f"mtz  at, {selector}"]
    lines += [f"ori  at, zero, %lo({trigger})",
              "mtz  at, 261",                      # TRIGGER_PC
              "addi at, zero, 1", "mtz  at, 0"]    # CTRL_ARM
    return "\n".join("        " + line for line in lines)


#: Loop 0 as a 4-trip loop indexed by t0, body ``body``.
LOOP0 = ((256, 4), (257, 0), (258, 1), (259, 8), (260, "%lo(body)"),
         (262, 0xFFFF), (263, 1))


def _faulting_program(selector):
    """Arm and run loop 0, then re-arm it through a preheader whose
    middle write targets ``selector``.  The second preheader starts
    while the port is armed, so its region was sliced under the plan
    and its reset sits inside it."""
    bad = LOOP0[:3] + ((selector, 7),) + LOOP0[3:]
    return assemble(f"""
        .text
main:
{_preheader(LOOP0)}
body:
        add  s0, s0, t0
after:
        addi s1, s1, 1
{_preheader(bad)}
        halt
""")


class TestFaultInsideFusedPreheader:
    @pytest.mark.usefixtures("eager_fusion")
    @pytest.mark.parametrize("selector, message", [
        (2, "CTRL_STATUS is read-only"),
        (0x3000, "outside the tables"),
    ])
    def test_fault_matches_step(self, selector, message):
        program = _faulting_program(selector)
        runs = {}
        for engine in ("step", "auto"):
            sim = _zolc_sim(program)
            with pytest.raises(ZolcFaultError, match=message):
                sim.run(max_steps=10_000, engine=engine)
            runs[engine] = sim
        _assert_same_run(runs["auto"], runs["step"])
        # The faulting write sits in a fused region that starts before
        # the second preheader's reset and ends at its arm.
        fault_slot = (runs["step"].state.pc - program.text_base) >> 2
        reset_slot = next(i for i, inst in enumerate(program.instructions)
                          if i > 0 and inst.mnemonic == "mtz"
                          and inst.imm == 1)
        assert any(start < reset_slot < fault_slot < term
                   for start, term in _spans(program, "region"))
        # The first loop ran; the second arm never retired.
        assert runs["auto"].zolc.arm_count == 1
        assert runs["auto"].state.regs["s0"] == 0 + 1 + 2 + 3


#: Loop 0 runs armed, then a reset with no arm after it: the loop body
#: runs twice more on an unarmed port, passing its old trigger address
#: without a fire.
RESET_ONLY_SRC = f"""
        .text
main:
{_preheader(LOOP0)}
body:
        add  s0, s0, t0
after:
        addi s1, s1, 1
        mtz  zero, 1            # CTRL_RESET, no arm follows
        addi s2, s2, 1
        slti at, s1, 3
        bne  at, zero, body
        halt
"""


class TestResetWithoutArm:
    @pytest.mark.parametrize("eager", [False, True])
    def test_reset_ends_its_region_and_drops_the_plan(self, eager,
                                                      request):
        if eager:
            request.getfixturevalue("eager_fusion")
        program = assemble(RESET_ONLY_SRC)
        step = _zolc_sim(program)
        step.run(max_steps=10_000, engine="step")
        auto = _zolc_sim(program)
        auto.run(max_steps=10_000)
        _assert_same_run(auto, step)
        assert auto.zolc.task_switches == 4
        assert auto.state.regs["s1"] == 3
        reset = next(i for i, inst in enumerate(program.instructions)
                     if i > 0 and inst.mnemonic == "mtz" and inst.imm == 1)
        assert all(not start <= reset < term
                   for start, term in _spans(program, "region"))


#: Loop 0 armed once; every pass of the software loop ``outer``
#: reloads its bounds with table writes while it stays armed (the
#: bound-reload idiom), reads one back, and seeds the index itself.
BOUND_RELOAD_SRC = f"""
        .text
main:
{_preheader(LOOP0)}
        addi s2, zero, 12
outer:
        addi at, s2, 1
        mtz  at, 256            # TRIPS = s2 + 1
        sll  at, s2, 4
        mtz  at, 257            # INITIAL = 16 * s2
        add  t0, at, zero
        mfz  t1, 256
        add  s1, s1, t1
body:
        add  s0, s0, t0
        addi s3, s3, 1
after:
        addi s2, s2, -1
        bne  s2, zero, outer
        halt
"""


class TestBoundReloadInsideRegion:
    @pytest.mark.parametrize("eager", [False, True])
    def test_reload_stream_matches_step(self, eager, request):
        if eager:
            request.getfixturevalue("eager_fusion")
        program = assemble(BOUND_RELOAD_SRC)
        step = _zolc_sim(program)
        step.run(max_steps=100_000, engine="step")
        auto = _zolc_sim(program)
        auto.run(max_steps=100_000)
        _assert_same_run(auto, step)
        assert auto.zolc.arm_count == 1
        # Reloaded trips 13, 12, ..., 2 were read back by mfz.
        assert auto.state.regs["s1"] == sum(range(2, 14))
        assert auto.state.regs["s3"] == sum(range(2, 14))
        # The reload stream retired inside one fused region that runs
        # from ``outer`` to the body's last member before the trigger.
        outer = (program.symbols["outer"] - program.text_base) >> 2
        reload = [i for i in range(outer, outer + 6)
                  if program.instructions[i].mnemonic in ("mtz", "mfz")]
        assert len(reload) == 3
        assert any(start <= outer and term > reload[-1]
                   for start, term in _spans(program, "region"))


#: A hot armed loop whose body writes a table field every iteration.
MTZ_BODY_SRC = f"""
        .text
main:
{_preheader(((256, 40),) + LOOP0[1:])}
body:
        add  s0, s0, t0
        {{body_write}}
        addi s1, s1, 3
after:
        halt
"""


TABLE_WRITE = "mtz  s0, 272       # loop 1 TRIPS"


class TestTableWriteKeepsLoopOffTraces:
    """The trace tier still refuses any ``mtz``/``mfz`` in a loop body
    even though the region tier now fuses table writes: the candidate
    scan rejects the loop, and the path replay rejects the write should
    a candidate get through."""

    def _run(self, body_write):
        program = assemble(MTZ_BODY_SRC.format(body_write=body_write))
        step = _zolc_sim(program)
        step.run(max_steps=10_000, engine="step")
        auto = _zolc_sim(program)
        auto.run(max_steps=10_000)
        _assert_same_run(auto, step)
        return program, auto

    def test_body_with_a_table_write_never_becomes_a_trace(self):
        program, auto = self._run(TABLE_WRITE)
        assert auto.stats.instructions > 40 * 3
        assert _spans(program, "trace") == []
        assert auto.trace_resident_steps == 0
        # Not even a candidate under the armed plan.
        tables = _trace_tables(auto)
        assert tables
        assert all(not table.cands for table in tables)
        # The body still fuses: the write retires inside its region.
        body = (program.symbols["body"] - program.text_base) >> 2
        assert (body, body + 2) in _spans(program, "region")

    def test_forced_candidate_still_never_compiles(self, monkeypatch):
        from repro.cpu.engine import trace as trace_module

        program = assemble(MTZ_BODY_SRC.format(body_write=TABLE_WRITE))
        base = program.text_base
        body, after = program.symbols["body"], program.symbols["after"]
        row = (0, (body - base) >> 2, body, after)
        monkeypatch.setattr(trace_module, "_candidate_geometry",
                            lambda *args: (row,))
        step = _zolc_sim(program)
        step.run(max_steps=10_000, engine="step")
        auto = _zolc_sim(program)
        auto.run(max_steps=10_000)
        _assert_same_run(auto, step)
        assert any(table.cands for table in _trace_tables(auto))
        assert _spans(program, "trace") == []
        assert auto.trace_resident_steps == 0

    def test_same_body_without_the_write_goes_resident(self):
        program, auto = self._run("addi s2, s0, 0")
        assert _spans(program, "trace") != []
        assert auto.trace_resident_steps > 0
