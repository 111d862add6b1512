"""Block carving, edges and traversals of the control-flow graph core.

One graph type, one block carver and one set of traversals
(:mod:`repro.cpu.analysis.cfg`) serve two fronts: the Instruction front
(:func:`repro.cfg.build_cfg`, over an assembled program before the ZOLC
transform) and the IR front (:func:`repro.cpu.analysis.build_cfg`, over
the engine IR after it).  Every case here runs on both fronts except
the ``jal`` convention, which differs on purpose: a call falls through
on the Instruction front and follows its target on the IR front
(``tests/test_analysis_cfg.py`` pins the IR side, with the other
IR-only leaders and edges).  Dominators are in
``tests/test_dominators.py``; natural loops in
``tests/test_analysis_cfg.py``.
"""

import pytest

from repro.asm import assemble
from repro.asm.assembler import Program
from repro.cfg import build_cfg, find_loops
from repro.cpu.analysis import (
    build_cfg as build_ir_cfg,
    dominators,
    natural_loops,
    reverse_postorder,
)
from repro.cpu.ir import build_ir
from repro.synth import FAMILY_NAMES, generate, parse_selector
from repro.workloads.suite import registry

SIMPLE_LOOP = """
main:   li   t0, 4
loop:   addi t0, t0, -1
        bne  t0, zero, loop
        halt
"""

DIAMOND = """
main:   beq  t0, zero, right
left:   addi t1, zero, 1
        j    join
right:  addi t1, zero, 2
join:   halt
"""


class TestBlocks:
    def test_simple_loop_blocks(self, cfg_fronts):
        for cfg in cfg_fronts(SIMPLE_LOOP):
            # main / loop / halt
            assert len(cfg.blocks) == 3

    def test_block_boundaries_at_targets(self, cfg_fronts):
        for cfg in cfg_fronts(SIMPLE_LOOP):
            assert [cfg.pc_of(b.start) for b in cfg.blocks] == [0, 4, 12]
            assert cfg.is_leader(4)           # branch target `loop`
            assert cfg.is_leader(12)          # fall-through after bne
            assert not cfg.is_leader(8)

    def test_block_at_address(self, cfg_fronts):
        for cfg in cfg_fronts(SIMPLE_LOOP):
            assert cfg.pc_of(cfg.block_at(8).start) == 4

    def test_terminator(self, cfg_fronts):
        program = assemble(SIMPLE_LOOP)
        for cfg in cfg_fronts(SIMPLE_LOOP):
            assert program.instructions[cfg.block_at(4).end].mnemonic \
                == "bne"

    def test_end_address(self, cfg_fronts):
        for cfg in cfg_fronts(SIMPLE_LOOP):
            block = cfg.block_at(4)
            assert cfg.pc_of(block.end) == 8
            assert (block.start, block.end) == (1, 2)


class TestEdges:
    def test_loop_edges(self, cfg_fronts):
        for cfg in cfg_fronts(SIMPLE_LOOP):
            loop_block = cfg.block_at(4)
            halt_block = cfg.block_at(12)
            assert loop_block.succs == (loop_block.bid, halt_block.bid)
            assert loop_block.bid in loop_block.preds   # the back edge

    def test_diamond_edges(self, cfg_fronts):
        for cfg in cfg_fronts(DIAMOND):
            entry = cfg.block_at(0)
            left = cfg.block_at(4)
            right = cfg.block_at(12)
            join = cfg.block_at(16)
            assert entry.succs == (left.bid, right.bid)
            assert left.succs == (join.bid,)    # `j`: the target only
            assert right.succs == (join.bid,)
            assert join.preds == (left.bid, right.bid)

    def test_halt_has_no_successors(self, cfg_fronts):
        for cfg in cfg_fronts(SIMPLE_LOOP):
            assert cfg.block_at(12).succs == ()
            assert not cfg.block_at(12).has_indirect

    def test_jr_has_no_static_successors(self, cfg_fronts):
        for cfg in cfg_fronts("jr ra\nhalt\n"):
            assert cfg.block_at(0).succs == ()
            assert cfg.block_at(0).has_indirect

    def test_jal_falls_through(self):
        # Instruction front: a call returns, so its block's successor
        # is the return point (callees are analysed separately).
        cfg = build_cfg(assemble("jal sub\nhalt\nsub: jr ra\n"))
        assert cfg.block_at(0).succs == (cfg.block_at(4).bid,)


class TestTraversals:
    def test_reachable_ids(self, cfg_fronts):
        for cfg in cfg_fronts(DIAMOND):
            assert sorted(reverse_postorder(cfg)) == [0, 1, 2, 3]

    def test_unreachable_excluded(self, cfg_fronts):
        for cfg in cfg_fronts("j end\ndead: nop\nend: halt\n"):
            dead_id = cfg.block_at(4).bid
            assert dead_id not in reverse_postorder(cfg)
            assert dominators(cfg)[dead_id] is None

    def test_reverse_postorder_entry_first(self, cfg_fronts):
        for cfg in cfg_fronts(DIAMOND):
            assert reverse_postorder(cfg)[0] == cfg.entry

    def test_reverse_postorder_respects_dependencies(self, cfg_fronts):
        for cfg in cfg_fronts(DIAMOND):
            rpo = reverse_postorder(cfg)
            join = cfg.block_at(16).bid
            left = cfg.block_at(4).bid
            assert rpo.index(left) < rpo.index(join)


class TestEdgeCases:
    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            build_cfg(Program(instructions=[]))

    def test_entry_at_main(self, cfg_fronts):
        for cfg in cfg_fronts("nop\nmain: halt\n"):
            assert cfg.blocks[cfg.entry].start == 1


def _sources(selector):
    if selector.startswith("synth:"):
        return [kernel.source for kernel in generate(parse_selector(selector))]
    return [registry().get(selector).source]


@pytest.mark.parametrize(
    "selector", [*registry().names(),
                 *(f"synth:{family}:0:8" for family in FAMILY_NAMES)])
def test_fronts_agree_on_untransformed_programs(selector):
    """Before the transform, both fronts see the same graph.

    No untransformed kernel has an ``mtz``/``mfz`` or a ``jal``, and
    nothing is watched yet, so the two fronts' leader and successor
    rules coincide: identical blocks, edges, entry, dominators and
    natural loops.
    """
    for source in _sources(selector):
        program = assemble(source)
        ir = build_ir(program)
        before = build_cfg(program)
        after = build_ir_cfg(ir, program.text_base, program.entry_point())
        assert before == after
        assert dominators(before) == dominators(after)
        assert natural_loops(before) == natural_loops(after)
        forest = find_loops(before)
        assert [(lp.header, lp.blocks) for lp in forest.loops] == [
            (lp.header, lp.body) for lp in natural_loops(after)]
