"""A5 — how much of the gain requires the *zero-cycle* task switch?

The paper's central claim is that task switching costs nothing (vs the
DSP56300's 5-cycle overhead "applied even to the innermost loops", §1).
This ablation re-runs a subset of Figure 2 with a hypothetical slower
controller (1, 2, 5 cycles per task switch) and shows the gain eroding —
at 5 cycles per switch (the DSP56300 point) tight loops lose most of
the benefit, quantifying why the zero-overhead property matters.
"""

from __future__ import annotations

import pytest

from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import M_ZOLC_LITE, XR_DEFAULT
from repro.eval.metrics import improvement_percent
from repro.eval.runner import run_kernel
from repro.experiments.config import RunConfig

SUBSET = ("vec_sum", "dot_product", "crc32", "matmul")
SWITCH_COSTS = (0, 1, 2, 5)


@pytest.mark.repro
def test_switch_cost_sweep(benchmark, reg):
    def sweep():
        table = {}
        for cost in SWITCH_COSTS:
            pipeline = PipelineConfig(zolc_switch_cycles=cost)
            per_kernel = {}
            for name in SUBSET:
                kernel = reg.get(name)
                config = RunConfig(pipeline=pipeline)
                base = run_kernel(kernel, XR_DEFAULT, config)
                zolc = run_kernel(kernel, M_ZOLC_LITE, config)
                per_kernel[name] = improvement_percent(zolc.cycles,
                                                       base.cycles)
            table[cost] = per_kernel
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nZOLC improvement vs task-switch cost (cycles/switch):")
    print(f"{'kernel':<12} " + " ".join(f"{c:>7}c" for c in SWITCH_COSTS))
    for name in SUBSET:
        row = " ".join(f"{table[c][name]:>7.1f}%" for c in SWITCH_COSTS)
        print(f"{name:<12} {row}")
    averages = {c: sum(table[c].values()) / len(SUBSET)
                for c in SWITCH_COSTS}
    for cost, avg in averages.items():
        benchmark.extra_info[f"switch_{cost}c_avg_pct"] = round(avg, 1)
    values = [averages[c] for c in SWITCH_COSTS]
    # Strictly eroding with switch cost...
    assert all(b < a for a, b in zip(values, values[1:]))
    # ...and a 5-cycle controller (the DSP56300 point) loses most of the
    # zero-overhead controller's advantage on tight loops.
    assert averages[5] < averages[0] / 2
