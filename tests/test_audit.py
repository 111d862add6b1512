"""The generated-code auditor, including the tampering corpus.

The negative tests corrupt one compiled artifact each — a register
index in the emitted source (AU001), an addressing displacement
(AU002), a predecoded per-op timing constant (AU003), a fault line map
(AU004), a trace guard table or its baked step constants (AU005), a
zero-guard trace's registers or displacements (AU001/AU002) — and
assert the auditor reports it under the documented rule id.  Tampering
works because the code caches never re-record on a hit, so a corrupted
record survives a fresh ``audit_codegen`` pass.
"""

import pytest

from repro.asm import assemble
from repro.cpu.analysis import audit_codegen, source_touches
from repro.cpu.analysis.audit import (
    audit_trace_record,
    expected_touches,
    span_starts,
)
from repro.cpu.analysis.verify import (
    VerifyContext,
    trace_candidate_bodies,
)
from repro.cpu.engine.emit import codegen_records
from repro.cpu.ir import build_ir, straightline_terms
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.simulator import Simulator
from repro.eval.check import check_kernel, static_plan
from repro.eval.machines import machine_registry
from repro.workloads.suite import registry

STRAIGHTLINE = """
    li   t0, 5
    addi t1, t0, 2
    lw   t2, 0(a0)
    sw   t2, 4(a0)
    halt
"""


def _sim(source):
    return Simulator(assemble(source))


def _audited(sim, **kwargs):
    return audit_codegen(sim, **kwargs)


def _errors(findings):
    return [d for d in findings if d.severity == "error"]


def _first_region_key(program):
    keys = [k for k in codegen_records(program) if k[0] == "region"]
    assert keys
    return keys[0]


class TestSourceTouches:
    def test_reads_writes_and_offsets(self):
        src = ("_g[9] = (_g[8] + 2) & 0xFFFFFFFF\n"
               "_a = (_g[4] + 12) & 0xFFFFF\n"
               "_v = _m[_a]\n")
        touches = source_touches(src)
        assert touches.reg_reads == {8, 4}
        assert touches.reg_writes == {9}
        assert touches.mem_offsets == [12]

    def test_dynamic_subscripts_skipped(self):
        touches = source_touches("_g[_r] = 0\n_x = _g[_r]\n")
        assert touches.reg_reads == set()
        assert touches.reg_writes == set()


class TestPositive:
    def test_straightline_program_audits_clean(self):
        findings = _audited(_sim(STRAIGHTLINE))
        assert _errors(findings) == []

    @pytest.mark.parametrize("machine_name",
                             ["XRdefault", "ZOLClite", "ZOLCfull"])
    def test_vec_sum_audits_clean(self, machine_name):
        machine = machine_registry().get(machine_name)
        findings = check_kernel(registry().get("vec_sum"), machine,
                                audit=True)
        assert _errors(findings) == []

    def test_expected_touches_dead_write_rule(self):
        # A non-memory op writing only r0 emits nothing, so the IR
        # expectation must drop its reads too.
        ir = build_ir(assemble("add zero, t0, t1\nhalt\n"))
        expect = expected_touches(ir[:1], "trace", ())
        assert expect.reg_reads == set()
        assert expect.reg_writes == set()


def _force_regions(sim):
    """Audit once (must be clean) and return the program."""
    findings = _audited(sim)
    assert _errors(findings) == []
    return sim.program


class TestTampering:
    def test_tampered_register_reported_au001(self):
        sim = _sim(STRAIGHTLINE)
        program = _force_regions(sim)
        key = _first_region_key(program)
        records = codegen_records(program)
        record = records[key]
        touched = source_touches(record.source)
        victim = min(touched.reg_reads)
        records[key] = record._replace(
            source=record.source.replace(f"_g[{victim}]", "_g[30]"))
        findings = _audited(sim)
        assert any(d.rule == "AU001" for d in _errors(findings))

    def test_tampered_offset_reported_au002(self):
        sim = _sim(STRAIGHTLINE)
        program = _force_regions(sim)
        records = codegen_records(program)
        for key, record in records.items():
            if "+ 4)" in record.source:
                records[key] = record._replace(
                    source=record.source.replace("+ 4)", "+ 8)"))
                break
        else:
            pytest.fail("no record with the expected displacement")
        findings = _audited(sim)
        assert any(d.rule == "AU002" for d in _errors(findings))

    def test_tampered_timing_reported_au003(self):
        sim = _sim(STRAIGHTLINE)
        program = _force_regions(sim)
        predecoded = sim._ensure_predecoded()
        fn, base_cycles, uses, load_dest, taken = predecoded.ops[0]
        predecoded.ops[0] = (fn, base_cycles + 3, uses, load_dest,
                             taken)
        findings = _audited(sim)
        assert any(d.rule == "AU003" and "static timing" in d.message
                   for d in _errors(findings))

    def test_tampered_line_map_reported_au004(self):
        sim = _sim(STRAIGHTLINE)
        program = _force_regions(sim)
        key = _first_region_key(program)
        records = codegen_records(program)
        record = records[key]
        records[key] = record._replace(
            line_member=record.line_member[:-1])
        findings = _audited(sim)
        assert any(d.rule == "AU004" for d in _errors(findings))


def _trace_audit(kernel_name="me_fss", machine_name="ZOLClite"):
    """Audit one branchy kernel's traces; returns the working state."""
    machine = machine_registry().get(machine_name)
    prepared = machine.prepare(registry().get(kernel_name).source)
    program = prepared.program
    ir = build_ir(program)
    base = program.text_base
    plan = static_plan(prepared)
    ctx = VerifyContext(ir=ir, base=base,
                        entry_pc=program.entry_point(), plan=plan)
    rows = [(start, tslot, lp.loop_id)
            for start, tslot, lp in trace_candidate_bodies(ctx)]
    sim = prepared.make_simulator()
    findings = audit_codegen(sim, watched=plan.watched_next_pcs(),
                             traces=rows)
    return program, ir, base, rows, findings


def _trace_record(program, start, loop_id):
    """The (single-pipeline) audit record of one loop's trace."""
    return next((record for key, record
                 in codegen_records(program).items()
                 if key[0] == "trace" and record.start == start
                 and record.loop_id == loop_id), None)


class TestTraceAudit:
    def test_branchy_kernel_traces_audit_clean(self):
        program, _ir, _base, rows, findings = _trace_audit()
        assert rows, "me_fss has no multi-region watched body"
        assert _errors(findings) == []
        kinds = {k[0] for k in codegen_records(program)}
        assert kinds == {"region", "trace"}, (
            "the audit warm-up run promoted no trace")

    def test_check_kernel_audits_branchy_kernel_clean(self):
        machine = machine_registry().get("ZOLCfull")
        findings = check_kernel(registry().get("me_fss"), machine,
                                audit=True)
        assert _errors(findings) == []

    def test_tampered_guard_slot_reported_au005(self):
        program, ir, base, rows, findings = _trace_audit()
        assert _errors(findings) == []
        for start, tslot, loop_id in rows:
            record = _trace_record(program, start, loop_id)
            if record is None:
                continue
            # Point the first guard at the entry slot, which the
            # candidate geometry guarantees is not a branch.
            lineno, _slot, hot = record.guards[0]
            bent = ((lineno, start, hot),) + record.guards[1:]
            findings = audit_trace_record(
                record._replace(guards=bent), ir, base,
                base + 4 * tslot)
            assert any(d.rule == "AU005" for d in _errors(findings))
            return
        pytest.fail("no trace record to tamper with")

    def test_tampered_step_constant_reported_au005(self):
        import re

        program, ir, base, rows, findings = _trace_audit()
        assert _errors(findings) == []
        for start, tslot, loop_id in rows:
            record = _trace_record(program, start, loop_id)
            if record is None:
                continue
            source, hits = re.subn(
                r"_steps \+= (\d+)",
                lambda m: f"_steps += {int(m.group(1)) + 1}",
                record.source, count=1)
            assert hits == 1, "trace source bakes no step constant"
            findings = audit_trace_record(
                record._replace(source=source), ir, base,
                base + 4 * tslot)
            assert any(d.rule == "AU005" for d in _errors(findings))
            return
        pytest.fail("no trace record to tamper with")


class TestSpanCover:
    def test_span_starts_partition_watched_text(self):
        program = assemble(STRAIGHTLINE)
        ir = build_ir(program)
        base = program.text_base
        watched = frozenset({base + 8})
        terms = straightline_terms(ir, base, watched)
        starts = span_starts(ir, base, watched, terms)
        assert starts[0] == 0
        assert base + 4 * starts[1] == base + 8  # watch splits here


#: A straight-line ZOLC loop: its body runs as a zero-guard trace.
STRAIGHT_LOOP = """
        .data
scratch: .word 0, 0, 0, 0
        .text
main:
        li   s0, 0
        la   t8, scratch
        li   t0, 0
loop:
        add  s0, s0, t0
        sw   s0, 8(t8)
        addi t0, t0, 1
        slti at, t0, 40
        bne  at, zero, loop
        halt
"""


def _zero_guard_audit():
    """Audit a straight-line loop; returns the sim and its trace key."""
    machine = machine_registry().get("ZOLClite")
    prepared = machine.prepare(STRAIGHT_LOOP)
    program = prepared.program
    plan = static_plan(prepared)
    ctx = VerifyContext(ir=build_ir(program), base=program.text_base,
                        entry_pc=program.entry_point(), plan=plan)
    rows = [(start, tslot, lp.loop_id)
            for start, tslot, lp in trace_candidate_bodies(ctx)]
    sim = prepared.make_simulator()
    kwargs = {"watched": plan.watched_next_pcs(), "traces": rows}
    assert _errors(audit_codegen(sim, **kwargs)) == []
    keys = [k for k, r in codegen_records(program).items()
            if k[0] == "trace" and not r.guards]
    assert len(keys) == 1, "the straight-line loop has no zero-guard trace"
    return sim, kwargs, keys[0]


class TestZeroGuardTraceAudit:
    """AU001/AU002 hold zero-guard traces to the IR of their one path,
    every member through the interior templates."""

    def test_tampered_register_reported_au001(self):
        sim, kwargs, key = _zero_guard_audit()
        records = codegen_records(sim.program)
        record = records[key]
        victim = min(source_touches(record.source).reg_reads)
        records[key] = record._replace(
            source=record.source.replace(f"_g[{victim}]", "_g[30]"))
        findings = audit_codegen(sim, **kwargs)
        assert any(d.rule == "AU001" and "trace" in d.message
                   for d in _errors(findings))

    def test_tampered_offset_reported_au002(self):
        sim, kwargs, key = _zero_guard_audit()
        records = codegen_records(sim.program)
        record = records[key]
        assert "+ 8)" in record.source
        records[key] = record._replace(
            source=record.source.replace("+ 8)", "+ 12)"))
        findings = audit_codegen(sim, **kwargs)
        assert any(d.rule == "AU002" and "trace" in d.message
                   for d in _errors(findings))


class TestTraceRecordsPerPipeline:
    """A trace record is keyed like its blueprint: one program run at
    two pipeline configs keeps (and audits) one record per config."""

    def _audit_at(self, prepared, kwargs, pipeline):
        sim = prepared.make_simulator(pipeline=pipeline)
        return sim, audit_codegen(sim, **kwargs)

    def test_each_pipeline_audits_its_own_blueprint(self):
        machine = machine_registry().get("ZOLClite")
        prepared = machine.prepare(registry().get("me_fss").source)
        program = prepared.program
        plan = static_plan(prepared)
        ctx = VerifyContext(ir=build_ir(program), base=program.text_base,
                            entry_pc=program.entry_point(), plan=plan)
        rows = [(start, tslot, lp.loop_id)
                for start, tslot, lp in trace_candidate_bodies(ctx)]
        kwargs = {"watched": plan.watched_next_pcs(), "traces": rows}
        stalled = PipelineConfig(load_use_stall=2)
        sims = {}
        for pipeline in (None, stalled):
            sim, findings = self._audit_at(prepared, kwargs, pipeline)
            assert _errors(findings) == []
            sims[pipeline] = sim
        records = codegen_records(program)
        blueprints = program.__dict__["_trace_jit_code"]
        trace_keys = [k for k in records if k[0] == "trace"]
        assert len(trace_keys) == len(blueprints)
        assert {k[1:] for k in trace_keys} == set(blueprints)
        assert {k[-1] for k in trace_keys} \
            == {sims[None].timing.config, stalled}
        # Tamper with the stalled config's records only: its simulator
        # reports them, the default one still audits clean.
        bent = 0
        for key in trace_keys:
            record = records[key]
            if key[-1] == stalled and record.guards:
                lineno, _slot, hot = record.guards[0]
                records[key] = record._replace(
                    guards=((lineno, record.start, hot),)
                    + record.guards[1:])
                bent += 1
        assert bent, "me_fss compiled no guarded trace"
        assert _errors(audit_codegen(sims[None], **kwargs)) == []
        assert any(d.rule == "AU005"
                   for d in _errors(audit_codegen(sims[stalled], **kwargs)))
