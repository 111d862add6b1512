"""The static verifier: positive sweep plus a seeded negative corpus.

The negative tests corrupt exactly one verifier input each — a span
slicing extended across a watch address, or a slicer that lets an arm
sit inside a span (ZV001), a malformed watch
(ZV002), a tampered span table that forces an illegal zero-guard trace
(ZV003),
an index-register write inside a watched body (ZV004), an undeclared
side entry (ZV005) — and assert the documented rule id fires.
"""

import pytest

from repro.asm import assemble
from repro.cpu.analysis import (
    RULES,
    SEVERITIES,
    Diagnostic,
    StaticZolcPlan,
    VerifyContext,
    WatchedLoop,
    trace_candidate_bodies,
    verify_program,
)
from repro.cpu.ir import ZOLC_ARM, build_ir, straightline_terms
from repro.eval.check import check_kernel, run_check, static_plan
from repro.eval.machines import machine_registry
from repro.isa.registers import register_index
from repro.workloads.suite import registry

T3 = register_index("t3")

#: A transformed-shape loop: the latch is gone, the body falls
#: straight through the trigger address.
PLAIN_LOOP = """
body:
    addi t0, t0, 1
    addi t1, t1, 1
trigger:
    addi t2, t2, 1
    halt
"""


#: A re-arm preheader: reset, table writes, arm, then more straight
#: code holding a table write.
PREHEADER = """
    mtz  zero, 1
    addi at, zero, 3
    mtz  at, 256
    addi at, zero, 1
    mtz  at, 0
    addi t0, zero, 2
    mtz  t0, 257
    addi t1, zero, 1
    halt
"""


def _context(source, plan, terms=None):
    program = assemble(source)
    ir = build_ir(program)
    assert ir is not None
    return program, VerifyContext(ir=ir, base=program.text_base,
                                  entry_pc=program.entry_point(),
                                  plan=plan, terms=terms)


def _plan(program, index_reg=T3, entry_pcs=(), exit_pcs=(),
          has_entry_record=False):
    sym = program.symbols
    loop = WatchedLoop(loop_id=0, group=0, index_reg=index_reg,
                       body_pc=sym["body"],
                       trigger_pc=sym["trigger"],
                       span_end=sym["trigger"],
                       has_entry_record=has_entry_record)
    return StaticZolcPlan(loops=(loop,), entry_pcs=entry_pcs,
                          exit_pcs=exit_pcs)


def _verify(program, plan, terms=None):
    ir = build_ir(program)
    assert ir is not None
    return verify_program(ir, program.text_base,
                          entry_pc=program.entry_point(), plan=plan,
                          terms=terms)


def _errors(findings):
    return [d for d in findings if d.severity == "error"]


class TestDiagnostic:
    def test_rule_catalogue_is_complete(self):
        assert set(RULES) == {"ZV001", "ZV002", "ZV003", "ZV004",
                              "ZV005", "ZV006", "AU001", "AU002",
                              "AU003", "AU004", "AU005"}
        assert SEVERITIES == ("error", "warning", "info")

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("ZZ999", "error", "nope")
        with pytest.raises(ValueError):
            Diagnostic("ZV001", "fatal", "nope")

    def test_to_dict_and_tagged(self):
        diag = Diagnostic("ZV004", "error", "msg", pc_lo=4, pc_hi=8)
        tagged = diag.tagged("vec_sum", "ZOLCfull")
        assert tagged.to_dict() == {
            "rule": "ZV004", "severity": "error", "message": "msg",
            "pc_lo": 4, "pc_hi": 8,
            "kernel": "vec_sum", "machine": "ZOLCfull"}


class TestPositive:
    def test_plain_loop_is_clean(self):
        program = assemble(PLAIN_LOOP)
        findings = _verify(program, _plan(program))
        assert _errors(findings) == []

    @pytest.mark.parametrize("kernel", ["vec_sum", "fir", "matmul"])
    def test_suite_kernels_verify_clean(self, kernel):
        for machine in machine_registry().all():
            findings = check_kernel(registry().get(kernel), machine)
            assert _errors(findings) == [], (kernel, machine.name)

    def test_run_check_report_shape(self):
        report = run_check(["vec_sum"], ["ZOLCfull"])
        assert report.errors == 0
        payload = report.to_dict()
        assert payload["kernels"] == ["vec_sum"]
        assert payload["machines"] == ["ZOLCfull"]
        assert payload["checked"] == 1
        assert not payload["audited"]

    def test_static_plan_resolves_labels(self):
        machine = machine_registry().get("ZOLCfull")
        prepared = machine.prepare(registry().get("vec_sum").source)
        plan = static_plan(prepared)
        assert plan is not None and plan.loops
        sym = prepared.program.symbols
        for lp in plan.loops:
            assert lp.body_pc in sym.values()
        assert plan.watched_next_pcs()

    def test_no_controller_means_no_plan(self):
        machine = machine_registry().get("XRdefault")
        prepared = machine.prepare(registry().get("vec_sum").source)
        assert static_plan(prepared) is None


class TestZV001:
    def test_span_crossing_a_watch_address(self):
        # Tampered slicing: a single span claims to run from the body
        # straight across the trigger watch — the verifier must reject
        # the crossing even though each instruction is individually
        # plain.
        program = assemble(PLAIN_LOOP)
        tampered = [3, 1, 3, 3]
        findings = _verify(program, _plan(program), terms=tampered)
        hits = [d for d in _errors(findings) if d.rule == "ZV001"]
        assert hits, findings
        assert any("watch address" in d.message for d in hits)

    def test_degenerate_terminator(self):
        program = assemble(PLAIN_LOOP)
        tampered = [0, 1, 3, 2]
        findings = _verify(program, _plan(program), terms=tampered)
        hits = [d for d in _errors(findings) if d.rule == "ZV001"]
        assert any("degenerate" in d.message for d in hits)

    def test_fused_preheader_is_clean(self):
        # reset … writes … arm is one span, and the table write after
        # the arm sits inside the next one.
        program = assemble(PREHEADER)
        ir = build_ir(program)
        terms = straightline_terms(ir, program.text_base, frozenset())
        assert terms[0] == 4
        assert terms[5] == 8
        assert _errors(_verify(program, None)) == []

    def test_slicer_letting_an_arm_inside_a_span(self, monkeypatch):
        # Mutate the slicer the verifier re-proves: it treats the arm
        # as a table write, so the arm sits inside a span.
        import repro.cpu.analysis.verify as verify_module

        real = verify_module.straightline_terms

        def arm_blind(ops, base, watched):
            return real([op._replace(zolc_ctrl=None)
                         if op.zolc_ctrl == ZOLC_ARM else op
                         for op in ops], base, watched)

        monkeypatch.setattr(verify_module, "straightline_terms", arm_blind)
        program = assemble(PREHEADER)
        hits = [d for d in _errors(_verify(program, None))
                if d.rule == "ZV001"]
        assert any("interior boundary: mtz CTRL_ARM" in d.message
                   for d in hits), hits

    def test_carver_not_cutting_after_an_arm(self, monkeypatch):
        # Mutate the CFG carver instead: the span that ends at the arm
        # now ends inside a basic block.
        import repro.cpu.analysis.cfg as cfg_module

        real = cfg_module.span_breaks

        def arm_blind(ops, base, watched):
            return [None if op.zolc_ctrl == ZOLC_ARM else reason
                    for op, reason in zip(ops, real(ops, base, watched))]

        monkeypatch.setattr(cfg_module, "span_breaks", arm_blind)
        program = assemble(PREHEADER)
        hits = [d for d in _errors(_verify(program, None))
                if d.rule == "ZV001"]
        assert any("ends inside a basic block" in d.message
                   for d in hits), hits


class TestZV002:
    def test_misaligned_trigger(self):
        program = assemble(PLAIN_LOOP)
        sym = program.symbols
        plan = StaticZolcPlan(loops=(WatchedLoop(
            loop_id=0, group=0, index_reg=T3, body_pc=sym["body"],
            trigger_pc=sym["trigger"] + 2,
            span_end=sym["trigger"]),))
        findings = _verify(program, plan)
        assert any(d.rule == "ZV002" and "word-aligned" in d.message
                   for d in _errors(findings))

    def test_watch_outside_text(self):
        program = assemble(PLAIN_LOOP)
        plan = StaticZolcPlan(loops=(WatchedLoop(
            loop_id=0, group=0, index_reg=T3, body_pc=0x10000,
            trigger_pc=None, span_end=None),))
        findings = _verify(program, plan)
        assert any(d.rule == "ZV002" and "outside" in d.message
                   for d in _errors(findings))

    def test_exit_watch_on_non_branch(self):
        program = assemble(PLAIN_LOOP)
        plan = _plan(program,
                     exit_pcs=(program.symbols["body"],))
        findings = _verify(program, plan)
        assert any(d.rule == "ZV002"
                   and "does not sit on a branch" in d.message
                   for d in _errors(findings))


class TestZV003:
    def test_plain_body_is_a_chain_candidate(self):
        # A straight-line body is a trace candidate ZV003 re-proves
        # (the zero-guard shape), so it gets no info finding.
        program = assemble(PLAIN_LOOP)
        plan = _plan(program)
        _, ctx = _context(PLAIN_LOOP, plan)
        assert trace_candidate_bodies(ctx) == [(0, 2, plan.loops[0])]
        findings = _verify(program, plan)
        assert [d for d in findings if d.rule == "ZV003"] == []

    def test_branch_terminated_body_never_chains(self):
        # The terminator reaches the trigger only on the not-taken
        # path, so the body needs a guard: it is no zero-guard trace.
        source = """
body:
    addi t0, t0, 1
    bne  t0, t1, body
trigger:
    addi t2, t2, 1
    halt
"""
        program = assemble(source)
        findings = _verify(program, _plan(program))
        assert _errors(findings) == []
        assert any(d.rule == "ZV003" and d.severity == "info"
                   for d in findings)

    @pytest.mark.parametrize("write", ["mtz  t0, 272", "mfz  t0, 272"])
    def test_body_with_a_table_access_stays_on_the_region_tier(
            self, write):
        # A table write or read no longer ends a span, so the body is
        # one span ending right before the trigger.  The trace tier
        # rejects it and the region tier runs it: info, not an error.
        source = f"""
body:
    addi t0, t0, 1
    {write}
    addi t1, t1, 1
trigger:
    addi t2, t2, 1
    halt
"""
        program = assemble(source)
        plan = _plan(program)
        _, ctx = _context(source, plan)
        assert straightline_terms(ctx.ir, program.text_base,
                                  plan.watched_next_pcs())[0] == 2
        findings = _verify(program, plan)
        assert _errors(findings) == []
        assert any(d.rule == "ZV003" and d.severity == "info"
                   and "region tier" in d.message for d in findings)

    def test_transfer_terminated_body_is_flagged(self):
        # A straight-line body that jumps away right before its
        # trigger never falls into it: condition 3 must fire.
        source = """
body:
    addi t0, t0, 1
    j    body
trigger:
    addi t2, t2, 1
    halt
"""
        program = assemble(source)
        findings = _verify(program, _plan(program))
        assert any(d.rule == "ZV003" and "condition 3" in d.message
                   for d in _errors(findings))

    def test_watch_inside_a_forced_chain(self):
        # Corrupt the span table so the straight-line body covers an
        # entry watch: condition 2 must fire.
        source = """
body:
    addi t0, t0, 1
    addi t1, t1, 1
inside:
    addi t2, t2, 1
trigger:
    addi t3, t3, 1
    halt
"""
        program = assemble(source)
        plan = StaticZolcPlan(
            loops=_plan(program, index_reg=register_index("t4")).loops,
            entry_pcs=(program.symbols["inside"],))
        tampered = [2, 1, 2, 4, 4]
        findings = _verify(program, plan, terms=tampered)
        assert any(d.rule == "ZV003" and "condition 2" in d.message
                   for d in _errors(findings))


class TestZV004:
    def test_index_register_write_in_watched_body(self):
        source = """
body:
    addi t3, t3, 1
    addi t1, t1, 1
trigger:
    addi t2, t2, 1
    halt
"""
        program = assemble(source)
        findings = _verify(program, _plan(program, index_reg=T3))
        hits = [d for d in _errors(findings) if d.rule == "ZV004"]
        assert len(hits) == 1
        assert "t3" in hits[0].message
        assert hits[0].pc_lo == program.symbols["body"]

    def test_clean_body_passes(self):
        program = assemble(PLAIN_LOOP)
        findings = _verify(program, _plan(program, index_reg=T3))
        assert [d for d in findings if d.rule == "ZV004"] == []


class TestZV005:
    SIDE_ENTRY = """
    beq  t0, zero, inside
body:
    addi t0, t0, 1
inside:
    addi t1, t1, 1
trigger:
    addi t2, t2, 1
    halt
"""

    def test_undeclared_side_entry_warns(self):
        program = assemble(self.SIDE_ENTRY)
        findings = _verify(program, _plan(program))
        hits = [d for d in findings
                if d.rule == "ZV005" and d.severity == "warning"]
        assert len(hits) == 1
        assert "side entry" in hits[0].message

    def test_entry_record_silences_the_warning(self):
        program = assemble(self.SIDE_ENTRY)
        plan = _plan(program, has_entry_record=True,
                     entry_pcs=(program.symbols["inside"],))
        findings = _verify(program, plan)
        assert [d for d in findings if d.rule == "ZV005"] == []
