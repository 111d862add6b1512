"""Unit tests for natural-loop detection and the nesting forest."""

from repro.asm import assemble
from repro.cfg import build_cfg, find_loops
from repro.core.config import ZOLC_FULL
from repro.cpu.analysis import build_cfg as build_ir_cfg, natural_loops
from repro.cpu.ir import build_ir
from repro.cpu.simulator import run_program
from repro.transform.zolc_rewrite import rewrite_for_zolc

SINGLE = """
main:   li   t0, 4
loop:   addi t0, t0, -1
        bne  t0, zero, loop
        halt
"""

NESTED3 = """
main:   li   t0, 2
l0:     li   t1, 2
l1:     li   t2, 2
l2:     addi t2, t2, -1
        bne  t2, zero, l2
        addi t1, t1, -1
        bne  t1, zero, l1
        addi t0, t0, -1
        bne  t0, zero, l0
        halt
"""

SIBLINGS = """
main:   li   t0, 3
a:      addi t0, t0, -1
        bne  t0, zero, a
        li   t1, 3
b:      addi t1, t1, -1
        bne  t1, zero, b
        halt
"""

MULTI_EXIT = """
main:   li   t0, 8
loop:   addi t0, t0, -1
        beq  t0, t1, escape
        bne  t0, zero, loop
after:  halt
escape: halt
"""


class TestDetection:
    def test_single_loop_found(self):
        forest = find_loops(build_cfg(assemble(SINGLE)))
        assert len(forest.loops) == 1
        assert forest.loops[0].depth == 1

    def test_header_and_latch(self):
        cfg = build_cfg(assemble(SINGLE))
        forest = find_loops(cfg)
        loop = forest.loops[0]
        assert cfg.pc_of(cfg.blocks[loop.header].start) == 4
        assert loop.latches == [loop.header]  # single-block loop

    def test_three_level_nest(self):
        forest = find_loops(build_cfg(assemble(NESTED3)))
        assert len(forest.loops) == 3
        assert sorted(lp.depth for lp in forest.loops) == [1, 2, 3]

    def test_nest_parentage(self):
        forest = find_loops(build_cfg(assemble(NESTED3)))
        by_depth = {lp.depth: lp for lp in forest.loops}
        assert by_depth[3].parent == by_depth[2].id
        assert by_depth[2].parent == by_depth[1].id
        assert by_depth[1].parent is None

    def test_innermost_flag(self):
        forest = find_loops(build_cfg(assemble(NESTED3)))
        innermost = [lp for lp in forest.loops if lp.is_innermost()]
        assert len(innermost) == 1
        assert innermost[0].depth == 3

    def test_siblings_independent(self):
        forest = find_loops(build_cfg(assemble(SIBLINGS)))
        assert len(forest.loops) == 2
        assert all(lp.parent is None for lp in forest.loops)

    def test_loops_ordered_by_address(self):
        cfg = build_cfg(assemble(SIBLINGS))
        forest = find_loops(cfg)
        headers = [cfg.blocks[lp.header].start for lp in forest.loops]
        assert headers == sorted(headers)

    def test_no_loops_in_straight_line(self):
        forest = find_loops(build_cfg(assemble("nop\nnop\nhalt\n")))
        assert forest.loops == []
        assert forest.max_depth() == 0


class TestQueries:
    def test_innermost_loop_of_block(self):
        cfg = build_cfg(assemble(NESTED3))
        forest = find_loops(cfg)
        inner_block = cfg.block_at(12).bid  # the l2 header block
        loop = forest.innermost_loop_of(inner_block)
        assert loop is not None and loop.depth == 3

    def test_loop_of_address(self):
        # An address's loop is the innermost loop of its block.
        cfg = build_cfg(assemble(NESTED3))
        forest = find_loops(cfg)
        assert forest.innermost_loop_of(cfg.block_at(12).bid).depth == 3
        assert forest.innermost_loop_of(cfg.block_at(0).bid) is None

    def test_roots(self):
        forest = find_loops(build_cfg(assemble(NESTED3)))
        assert len(forest.roots()) == 1
        assert forest.roots()[0].depth == 1

    def test_descendants_and_ancestors(self):
        forest = find_loops(build_cfg(assemble(NESTED3)))
        root = forest.roots()[0]
        descendants = forest.descendants(root)
        assert len(descendants) == 2
        deepest = max(forest.loops, key=lambda lp: lp.depth)
        ancestors = forest.ancestors(deepest)
        assert [a.depth for a in ancestors] == [2, 1]

    def test_max_depth(self):
        assert find_loops(build_cfg(assemble(NESTED3))).max_depth() == 3


class TestExits:
    def test_single_exit(self):
        forest = find_loops(build_cfg(assemble(SINGLE)))
        loop = forest.loops[0]
        assert len(loop.exit_edges) == 1
        assert not loop.is_multi_exit()

    def test_multi_exit_detected(self):
        forest = find_loops(build_cfg(assemble(MULTI_EXIT)))
        loop = forest.loops[0]
        assert loop.is_multi_exit()
        assert len({dst for _, dst in loop.exit_edges}) == 2

    def test_contains_address(self):
        # A loop contains an address when it holds the address's block.
        cfg = build_cfg(assemble(SINGLE))
        forest = find_loops(cfg)
        loop = forest.loops[0]
        assert cfg.block_at(4).bid in loop.blocks
        assert cfg.block_at(0).bid not in loop.blocks


class TestIrreducible:
    def test_side_entry_into_the_body_stays_in_software(self):
        source = """
main:   bne  t0, zero, side
        li   t1, 3
loop:   addi t1, t1, -1
        nop
body:   bne  t1, zero, loop
        halt
side:   j    body
"""
        program = assemble(source)
        # `side` jumps past the header into the body, so the header
        # does not dominate the latch: no back edge, so no natural
        # loop on either front, no pattern, and the ZOLC drives nothing.
        assert find_loops(build_cfg(program)).loops == []
        ir = build_ir(program)
        assert natural_loops(build_ir_cfg(ir, program.text_base,
                                          program.entry_point())) == ()
        result = rewrite_for_zolc(source, ZOLC_FULL)
        assert result.transformed_loop_count == 0
        sim = result.make_simulator()
        sim.run()
        baseline = run_program(program)
        assert sim.state.regs["t1"] == baseline.state.regs["t1"] == 0
