"""CFG construction, dominators and natural loops on the graph core.

The core (:mod:`repro.cpu.analysis.cfg`) is shared by the Instruction
front and the IR front; the ``cfg_fronts`` fixture runs a case on both.
What only the post-transform IR front does (forced watch leaders,
trigger redirects, a ``jal`` that follows its target) is pinned on the
IR front alone.
"""

import pytest

from repro.asm import assemble
from repro.cfg import build_cfg as build_instruction_cfg
from repro.cpu.analysis import (
    build_cfg,
    dominates,
    dominators,
    natural_loops,
    reverse_postorder,
)
from repro.cpu.ir import build_ir

LOOP_SOURCE = """
    li   t0, 0
    li   t1, 4
loop:
    addi t0, t0, 1
    bne  t0, t1, loop
    halt
"""

DIAMOND_SOURCE = """
    li   t0, 1
    beq  t0, zero, left
    addi t1, t1, 1
    j    join
left:
    addi t2, t2, 1
join:
    halt
"""

NESTED_SOURCE = """
main:   li   t0, 3
outer:  li   t1, 3
inner:  addi t1, t1, -1
        bne  t1, zero, inner
        addi t0, t0, -1
        bne  t0, zero, outer
        halt
"""


def _cfg(source, **kwargs):
    """The IR-front CFG of ``source``."""
    program = assemble(source)
    ir = build_ir(program)
    assert ir is not None
    return program, ir, build_cfg(ir, program.text_base,
                                  program.entry_point(), **kwargs)


class TestBlocks:
    def test_branch_targets_and_falls_are_leaders(self, cfg_fronts):
        base = assemble(LOOP_SOURCE).text_base
        for cfg in cfg_fronts(LOOP_SOURCE):
            # Blocks: [li, li], [addi, bne], [halt].
            assert [(b.start, b.end) for b in cfg.blocks] == [
                (0, 1), (2, 3), (4, 4)]
            assert cfg.is_leader(base)
            assert cfg.is_leader(base + 8)       # branch target `loop`
            assert cfg.is_leader(base + 16)      # fall-through after bne
            assert not cfg.is_leader(base + 4)

    def test_every_slot_maps_to_its_block(self, cfg_fronts):
        for cfg in cfg_fronts(LOOP_SOURCE):
            for slot, bid in enumerate(cfg.block_of_slot):
                block = cfg.blocks[bid]
                assert block.bid == bid
                assert block.start <= slot <= block.end

    def test_branch_block_has_taken_and_fallthrough_edges(self, cfg_fronts):
        for cfg in cfg_fronts(LOOP_SOURCE):
            loop_block = cfg.blocks[1]
            assert set(loop_block.succs) == {1, 2}   # itself + halt block
            assert 1 in cfg.blocks[1].preds          # the back edge
            assert cfg.blocks[2].succs == ()         # halt: no successors

    def test_jump_has_target_only(self, cfg_fronts):
        symbols = assemble(DIAMOND_SOURCE).symbols
        for cfg in cfg_fronts(DIAMOND_SOURCE):
            j_block = cfg.block_at(symbols["left"] - 4)
            assert j_block is not None
            join = cfg.block_at(symbols["join"])
            assert j_block.succs == (join.bid,)

    def test_jal_follows_the_target_only(self):
        # IR front: the retired stream goes to the callee (the
        # Instruction front falls through instead:
        # tests/test_cfg_graph.py TestEdges.test_jal_falls_through).
        _, _, cfg = _cfg("jal sub\nhalt\nsub: jr ra\n")
        assert cfg.block_at(0).succs == (cfg.block_at(8).bid,)

    def test_watch_pcs_become_leaders(self):
        program, ir, _ = _cfg(LOOP_SOURCE)
        base = program.text_base
        cfg = build_cfg(ir, base, watch_pcs=[base + 12])
        assert cfg.is_leader(base + 12)
        assert not build_instruction_cfg(program).is_leader(base + 12)

    def test_only_span_breaking_port_accesses_end_blocks(self):
        # The arm ends a block; the reset that runs on into it, the
        # table write and the mfz do not (IR-front span breaks).
        _, _, cfg = _cfg("mtz zero, 1\nmtz t0, 256\nmfz t1, 256\n"
                         "mtz t0, 0\naddi t2, t2, 1\nmtz t0, 257\n"
                         "halt\n")
        assert [(b.start, b.end) for b in cfg.blocks] == [(0, 3), (4, 6)]

    def test_indirect_jump_flagged(self, cfg_fronts):
        for cfg in cfg_fronts("jr ra\nhalt\n"):
            assert cfg.blocks[0].has_indirect
            assert cfg.blocks[0].succs == ()

    def test_out_of_text_lookups_return_none(self, cfg_fronts):
        base = assemble(LOOP_SOURCE).text_base
        for cfg in cfg_fronts(LOOP_SOURCE):
            assert cfg.slot_of(base - 4) is None
            assert cfg.slot_of(base + 2) is None      # misaligned
            assert cfg.slot_of(base + 20) is None     # one past the text
            assert cfg.block_at(0xFFFF0000) is None
            assert not cfg.is_leader(base + 20)

    def test_empty_ir_rejected(self):
        with pytest.raises(ValueError):
            build_cfg((), 0)


class TestDominators:
    def test_diamond(self, cfg_fronts):
        symbols = assemble(DIAMOND_SOURCE).symbols
        for cfg in cfg_fronts(DIAMOND_SOURCE):
            idom = dominators(cfg)
            entry = cfg.entry
            join = cfg.block_at(symbols["join"])
            left = cfg.block_at(symbols["left"])
            # The entry dominates everything; neither arm dominates join.
            assert idom[entry] == entry
            assert dominates(idom, entry, join.bid)
            assert not dominates(idom, left.bid, join.bid)
            assert idom[join.bid] == entry

    def test_rpo_starts_at_entry(self, cfg_fronts):
        for cfg in cfg_fronts(DIAMOND_SOURCE):
            assert reverse_postorder(cfg)[0] == cfg.entry


class TestNaturalLoops:
    def test_branch_back_edge_found(self, cfg_fronts):
        loop_pc = assemble(LOOP_SOURCE).symbols["loop"]
        for cfg in cfg_fronts(LOOP_SOURCE):
            loops = natural_loops(cfg)
            assert len(loops) == 1
            header = cfg.block_at(loop_pc)
            assert loops[0].header == header.bid
            assert loops[0].body == frozenset({header.bid})
            assert loops[0].back_edges == ((header.bid, header.bid),)

    def test_nested_bodies(self, cfg_fronts):
        for cfg in cfg_fronts(NESTED_SOURCE):
            outer, inner = natural_loops(cfg)
            assert inner.body < outer.body
            assert cfg.block_at(24).bid not in outer.body   # the halt

    def test_straightline_has_no_loops(self, cfg_fronts):
        for cfg in cfg_fronts("li t0, 1\nhalt\n"):
            assert natural_loops(cfg) == ()

    def test_trigger_edge_recovers_the_zolc_loop(self):
        # Post-transform body: the latch branch is deleted, so the
        # text falls straight through the trigger — without the
        # controller's redirect edge there is no loop at all.
        source = """
            li   t0, 0
body:
            addi t0, t0, 1
            addi t1, t1, 1
trigger:
            halt
        """
        program = assemble(source)
        ir = build_ir(program)
        base = program.text_base
        body = program.symbols["body"]
        trigger = program.symbols["trigger"]
        bare = build_cfg(ir, base, watch_pcs=[trigger, body])
        assert natural_loops(bare) == ()
        cfg = build_cfg(ir, base, watch_pcs=[trigger, body],
                        trigger_edges={trigger: body})
        loops = natural_loops(cfg)
        assert len(loops) == 1
        header = cfg.block_at(body)
        assert loops[0].header == header.bid
