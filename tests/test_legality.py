"""Unit tests for legality checking and region planning."""

from repro.asm import assemble
from repro.cfg import build_cfg, find_loops
from repro.core.config import UZOLC, ZOLC_FULL, ZOLC_LITE, ZolcConfig
from repro.transform.legality import plan_transform
from repro.transform.patterns import match_all_loops


def plan_for(source, config):
    program = assemble(source)
    cfg = build_cfg(program)
    forest = find_loops(cfg)
    patterns, failures = match_all_loops(program, cfg, forest)
    return plan_transform(program, cfg, forest, patterns, failures, config), \
        forest


PERFECT_NEST = """
main:   li   t0, 4
outer:  li   t1, 4
inner:  add  s0, s0, t1
        addi t1, t1, -1
        bne  t1, zero, inner
        addi t0, t0, -1
        bne  t0, zero, outer
        halt
"""

NON_PERFECT = """
main:   li   t0, 4
outer:  li   t1, 4
inner:  add  s0, s0, t1
        addi t1, t1, -1
        bne  t1, zero, inner
        add  s1, s1, s0
        addi t0, t0, -1
        bne  t0, zero, outer
        halt
"""

MULTI_EXIT = """
main:   li   t0, 8
loop:   add  s0, s0, t0
        beq  s0, s1, escape
        addi t0, t0, -1
        bne  t0, zero, loop
        halt
escape: halt
"""


class TestGrouping:
    def test_nest_forms_one_group(self):
        plan, forest = plan_for(PERFECT_NEST, ZOLC_LITE)
        assert len(plan.groups) == 1
        assert len(plan.groups[0].loops) == 2

    def test_zolc_ids_sequential(self):
        plan, _ = plan_for(PERFECT_NEST, ZOLC_LITE)
        ids = sorted(p.zolc_id for p in plan.groups[0].loops)
        assert ids == [0, 1]

    def test_parent_links(self):
        plan, forest = plan_for(PERFECT_NEST, ZOLC_LITE)
        outer = next(p for p in plan.groups[0].loops
                     if forest.loops[p.forest_id].depth == 1)
        inner = next(p for p in plan.groups[0].loops
                     if forest.loops[p.forest_id].depth == 2)
        assert inner.parent_forest_id == outer.forest_id
        assert outer.parent_forest_id is None

    def test_siblings_form_separate_groups(self):
        source = """
main:   li   t0, 3
a:      add  s0, s0, t0
        addi t0, t0, -1
        bne  t0, zero, a
        li   t1, 3
b:      add  s0, s0, t1
        addi t1, t1, -1
        bne  t1, zero, b
        halt
"""
        plan, _ = plan_for(source, ZOLC_LITE)
        assert len(plan.groups) == 2


class TestCascade:
    def test_perfect_nest_cascades(self):
        plan, forest = plan_for(PERFECT_NEST, ZOLC_LITE)
        inner = next(p for p in plan.groups[0].loops
                     if forest.loops[p.forest_id].depth == 2)
        assert inner.cascade

    def test_non_perfect_does_not_cascade(self):
        plan, forest = plan_for(NON_PERFECT, ZOLC_LITE)
        inner = next(p for p in plan.groups[0].loops
                     if forest.loops[p.forest_id].depth == 2)
        assert not inner.cascade


class TestConfigRestrictions:
    def test_uzolc_innermost_only(self):
        # Inner trips large enough to amortise per-entry initialization.
        source = PERFECT_NEST.replace("li   t1, 4", "li   t1, 16")
        plan, forest = plan_for(source, UZOLC)
        assert len(plan.groups) == 1
        planned = plan.groups[0].loops[0]
        assert forest.loops[planned.forest_id].depth == 2
        assert any("single" in reason for reason in plan.rejected.values())

    def test_lite_rejects_multi_exit(self):
        plan, _ = plan_for(MULTI_EXIT, ZOLC_LITE)
        assert not plan.groups
        assert any("multi-exit" in r or "exit" in r
                   for r in plan.rejected.values())

    def test_full_accepts_multi_exit(self):
        plan, _ = plan_for(MULTI_EXIT, ZOLC_FULL)
        assert len(plan.groups) == 1

    def test_capacity_sheds_shallowest(self):
        from repro.workloads.kernels.synthetic import nest_kernel
        kernel = nest_kernel(depth=4, trips=2, body_ops=1)
        tiny = ZolcConfig("tiny2", max_loops=2, max_task_entries=32,
                          entries_per_loop=1, multi_entry_exit=False)
        plan, forest = plan_for(kernel.source, tiny)
        assert len(plan.groups) == 1
        depths = sorted(forest.loops[p.forest_id].depth
                        for p in plan.groups[0].loops)
        assert depths == [3, 4]  # deepest kept
        assert sum("shed" in r for r in plan.rejected.values()) == 2


class TestRegSourceScopes:
    def test_bound_written_in_ancestor_rejected_for_lite(self):
        source = """
main:   li   s6, 4
        li   t0, 3
outer:  move t1, s6
inner:  add  s0, s0, t1
        addi t1, t1, -1
        bne  t1, zero, inner
        addi s6, s6, 1
        addi t0, t0, -1
        bne  t0, zero, outer
        halt
"""
        plan, forest = plan_for(source, ZOLC_LITE)
        rejected_inner = [r for fid, r in plan.rejected.items()
                          if forest.loops[fid].depth == 2]
        assert rejected_inner and "rewritten" in rejected_inner[0]

    def test_same_loop_allowed_for_uzolc(self):
        source = """
main:   li   s6, 4
        li   t0, 3
outer:  move t1, s6
inner:  add  s0, s0, t1
        addi t1, t1, -1
        bne  t1, zero, inner
        addi s6, s6, 1
        addi t0, t0, -1
        bne  t0, zero, outer
        halt
"""
        plan, forest = plan_for(source, UZOLC)
        # uZOLC re-arms per entry, so the varying bound is fine.
        assert len(plan.groups) == 1
        planned = plan.groups[0].loops[0]
        assert forest.loops[planned.forest_id].depth == 2


class TestIndexConflicts:
    def test_shared_index_register_in_nest_rejected(self):
        source = """
main:   li   t0, 4
outer:  add  s0, s0, t0
        li   t0, 4
inner:  add  s0, s0, t0
        addi t0, t0, -1
        bne  t0, zero, inner
        addi t0, t0, -1
        bne  t0, zero, outer
        halt
"""
        # Outer and inner share t0; the pattern matcher may reject this
        # outright, but if both match, legality must not plan both.
        plan, forest = plan_for(source, ZOLC_LITE)
        nested_pairs = 0
        for group in plan.groups:
            regs = [p.pattern.index_reg for p in group.loops]
            nested_pairs += len(regs) - len(set(regs))
        assert nested_pairs == 0


class TestProfitability:
    def test_uzolc_skips_unprofitable_short_loops(self):
        source = PERFECT_NEST  # inner loop: only 4 trips
        plan, _ = plan_for(source, UZOLC)
        assert not plan.groups
        assert any("amortise" in r for r in plan.rejected.values())

    def test_lite_keeps_short_loops(self):
        # One-shot init outside the nest: no per-entry cost to amortise.
        plan, _ = plan_for(PERFECT_NEST, ZOLC_LITE)
        assert len(plan.groups) == 1

    def test_uzolc_keeps_register_trip_loops(self):
        source = """
main:   move t0, s7
loop:   add  s0, s0, t0
        addi t0, t0, -1
        bne  t0, zero, loop
        halt
"""
        plan, _ = plan_for(source, UZOLC)
        # Unknown trip count: assumed profitable.
        assert len(plan.groups) == 1


# An inner-loop `break` that lands on the outer loop's latch means
# "continue the outer loop".  In BREAK_TO_LATCH the inner loop cascades
# into the outer one (nothing survives between the two latches); the
# non-cascade variant keeps one instruction there.
BREAK_TO_LATCH = """
main:   li   s0, 0
        li   s1, 2
        li   t0, 0
outer:  li   t1, 0
inner:  addi s0, s0, 1
        beq  t1, s1, brk
        addi t1, t1, 1
        slti at, t1, 5
        bne  at, zero, inner
brk:    addi t0, t0, 1
        slti at, t0, 4
        bne  at, zero, outer
        halt
"""

BREAK_TO_LATCH_NO_CASCADE = BREAK_TO_LATCH.replace(
    "brk:    addi t0", "        addi s0, s0, 100\nbrk:    addi t0")


class TestBreakToOuterLatch:
    """ZOLCfull declines an outer loop whose deleted latch is the target
    of a selected inner loop's exit branch."""

    def test_outer_loop_declined(self):
        for source in (BREAK_TO_LATCH, BREAK_TO_LATCH_NO_CASCADE):
            plan, forest = plan_for(source, ZOLC_FULL)
            kept = [forest.loops[p.forest_id].depth
                    for p in plan.all_planned()]
            assert kept == [2]
            assert any("targets the deleted latch" in reason
                       for reason in plan.rejected.values())

    def test_zolcfull_matches_xrdefault(self):
        from repro.eval.machines import ALL_MACHINES

        machines = {m.name: m for m in ALL_MACHINES}
        for source in (BREAK_TO_LATCH, BREAK_TO_LATCH_NO_CASCADE):
            results = {}
            for name in ("XRdefault", "ZOLCfull"):
                sim = machines[name].prepare(source).make_simulator()
                sim.run(engine="step")
                results[name] = sim.state.regs["s0"]
            assert results["ZOLCfull"] == results["XRdefault"]

    def test_lite_keeps_the_outer_loop(self):
        # ZOLClite rejects the inner loop for its exit, so the outer
        # latch is no exit target and stays eligible.
        plan, forest = plan_for(BREAK_TO_LATCH, ZOLC_LITE)
        kept = [forest.loops[p.forest_id].depth for p in plan.all_planned()]
        assert kept == [1]
