"""A3 — branch-penalty sensitivity.

The ZOLC's gain comes from removing instructions *and* taken-branch
flushes; the deeper the branch resolution, the larger the gain.  This
sweep re-runs a representative subset of Figure 2 under taken-branch
penalties 0..3 and checks the trend, establishing that the paper's
result shape is robust to the main free parameter of our XiRisc
substitute (DESIGN.md §3).
"""

from __future__ import annotations

import pytest

from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import M_ZOLC_LITE, XR_DEFAULT
from repro.eval.metrics import improvement_percent
from repro.eval.runner import run_kernel
from repro.experiments.config import RunConfig

SUBSET = ("vec_sum", "matmul", "crc32", "me_tss")
PENALTIES = (0, 1, 2, 3)


@pytest.mark.repro
def test_branch_penalty_sweep(benchmark, reg):
    def sweep():
        table = {}
        for penalty in PENALTIES:
            pipeline = PipelineConfig(branch_penalty=penalty,
                                      jump_register_penalty=penalty)
            improvements = []
            for name in SUBSET:
                kernel = reg.get(name)
                config = RunConfig(pipeline=pipeline)
                base = run_kernel(kernel, XR_DEFAULT, config)
                zolc = run_kernel(kernel, M_ZOLC_LITE, config)
                improvements.append(
                    improvement_percent(zolc.cycles, base.cycles))
            table[penalty] = sum(improvements) / len(improvements)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nZOLC average improvement vs taken-branch penalty:")
    for penalty, improvement in table.items():
        print(f"  penalty {penalty}: {improvement:5.1f} %")
        benchmark.extra_info[f"penalty_{penalty}_avg_pct"] = round(
            improvement, 1)
    values = [table[p] for p in PENALTIES]
    # Monotone: deeper pipelines benefit more from zero-overhead looping.
    assert all(b > a for a, b in zip(values, values[1:]))
    # Even a zero-penalty machine still gains (instructions removed).
    assert values[0] > 10.0
