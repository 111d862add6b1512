"""Dominators of the graph core, on both fronts."""

import pytest

from repro.cpu.analysis import dominates, dominators, reverse_postorder
from repro.transform.zolc_rewrite import _dominator_chain

DIAMOND = """
main:   beq  t0, zero, right
left:   addi t1, zero, 1
        j    join
right:  addi t1, zero, 2
join:   halt
"""

NESTED = """
main:   li   t0, 3
outer:  li   t1, 3
inner:  addi t1, t1, -1
        bne  t1, zero, inner
        addi t0, t0, -1
        bne  t0, zero, outer
        halt
"""


@pytest.fixture
def diamonds(cfg_fronts):
    """``(cfg, idom)`` of the diamond, from each front."""
    return [(cfg, dominators(cfg)) for cfg in cfg_fronts(DIAMOND)]


@pytest.fixture
def nests(cfg_fronts):
    """``(cfg, idom)`` of the two-level nest, from each front."""
    return [(cfg, dominators(cfg)) for cfg in cfg_fronts(NESTED)]


def _id(cfg, address):
    return cfg.block_at(address).bid


class TestDiamond:
    def test_entry_dominates_all(self, diamonds):
        for cfg, idom in diamonds:
            assert idom[cfg.entry] == cfg.entry
            for block_id in reverse_postorder(cfg):
                assert dominates(idom, cfg.entry, block_id)

    def test_branches_do_not_dominate_join(self, diamonds):
        for cfg, idom in diamonds:
            assert not dominates(idom, _id(cfg, 4), _id(cfg, 16))
            assert not dominates(idom, _id(cfg, 12), _id(cfg, 16))

    def test_join_idom_is_entry(self, diamonds):
        for cfg, idom in diamonds:
            assert idom[_id(cfg, 16)] == cfg.entry

    def test_self_domination(self, diamonds):
        for cfg, idom in diamonds:
            assert dominates(idom, _id(cfg, 4), _id(cfg, 4))

    def test_dominator_chain(self, diamonds):
        # The chain the ZOLC rewrite walks to place its init sequence.
        for cfg, idom in diamonds:
            chain = _dominator_chain(cfg, idom, _id(cfg, 16))
            assert chain == [_id(cfg, 16), cfg.entry]


class TestNestedLoops:
    def test_outer_header_dominates_inner(self, nests):
        for cfg, idom in nests:
            outer, inner = _id(cfg, 4), _id(cfg, 8)
            assert dominates(idom, outer, inner)
            assert not dominates(idom, inner, outer)

    def test_inner_header_dominates_latch(self, nests):
        for cfg, idom in nests:
            inner = _id(cfg, 8)
            # inner header == inner latch block here (single-block loop)
            assert dominates(idom, inner, inner)

    def test_inner_does_not_dominate_outer_latch(self, nests):
        for cfg, idom in nests:
            inner, outer_latch = _id(cfg, 8), _id(cfg, 16)
            # The outer latch is only reachable through inner, which is
            # fine: inner DOES dominate it in this layout.
            assert dominates(idom, inner, outer_latch)
