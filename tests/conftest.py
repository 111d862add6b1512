"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.workloads.suite import figure2_kernels, registry


@pytest.fixture
def eager_fusion(monkeypatch):
    """Fuse every traced region on its first entry, promote every trace
    on its first loop-back.

    The traced tier fuses a region only once it is hot, and promotes a
    loop to a resident trace only at its ``trace.HOT_THRESHOLD``-th
    loop-back fire.  Tests that pin fused-region and resident-trace
    corners on programs too short to get hot patch both thresholds to
    1, so they keep exercising the megahandlers and trace drivers.
    """
    from repro.cpu.engine import trace, traced

    monkeypatch.setattr(traced, "HOT_THRESHOLD", 1)
    monkeypatch.setattr(trace, "HOT_THRESHOLD", 1)


@pytest.fixture(scope="session")
def cfg_fronts():
    """``cfg_fronts(source)``: the CFG of ``source`` from each front.

    One graph core (:mod:`repro.cpu.analysis.cfg`) serves two fronts:
    the Instruction front (:func:`repro.cfg.build_cfg`, over an
    assembled program before the ZOLC transform) and the IR front
    (:func:`repro.cpu.analysis.build_cfg`, over the engine IR after
    it).  Graph cases that apply to both fronts run on both.
    """
    from repro.asm import assemble
    from repro.cfg import build_cfg
    from repro.cpu.analysis import build_cfg as build_ir_cfg
    from repro.cpu.ir import build_ir

    def fronts(source):
        program = assemble(source)
        ir = build_ir(program)
        assert ir is not None
        return [build_cfg(program),
                build_ir_cfg(ir, program.text_base, program.entry_point())]

    return fronts


@pytest.fixture(scope="session")
def kernel_registry():
    """The benchmark registry (built once per session)."""
    return registry()


@pytest.fixture(scope="session")
def fig2_kernels():
    """The 12 Figure 2 benchmarks."""
    return figure2_kernels()


NESTED_SUM_SRC = """
        .data
result: .word 0
        .text
main:
        li   s0, 0
        li   t0, 0
outer:
        li   t1, 0
inner:
        mul  t2, t0, t1
        add  s0, s0, t2
        addi t1, t1, 1
        slti at, t1, 12
        bne  at, zero, inner
        addi t0, t0, 1
        slti at, t0, 8
        bne  at, zero, outer
        la   t3, result
        sw   s0, 0(t3)
        halt
"""

NESTED_SUM_EXPECTED = sum(i * j for i in range(8) for j in range(12))


@pytest.fixture()
def nested_sum_source():
    """A canonical two-level up-counting nest used across transform tests."""
    return NESTED_SUM_SRC


@pytest.fixture()
def nested_sum_expected():
    return NESTED_SUM_EXPECTED
