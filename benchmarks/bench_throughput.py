"""Simulator throughput: simulated instructions per second.

Two benchmarks, both with preparation hoisted out of the timed region
so the numbers track the *execution engine* and not the assembler or
transform front end:

* ``test_fast_engine_throughput`` — the traced tier over the Figure 2
  suite (every kernel on all three Figure 2 machines), with fast-engine
  and stepped-interpreter reference runs recording the plain / fast /
  traced engine matrix;
* ``test_zolc_fast_path_throughput`` — every Figure 2 kernel plus
  ``viterbi`` on the three ZOLC machines, benchmarking the
  **loop-resident** traced tier (every hot ZOLC loop runs as a
  fire→re-entry trace, straight-line bodies as zero-guard traces —
  the ``auto`` default) against four references on identical work:
  the region tier without resident traces, the compiled-plan fast
  path, the legacy per-retirement ``on_retire`` fast loop (a shim port
  that hides ``zolc_plan``) and the unpredecoded stepped interpreter —
  the five recorded engine columns, plus per-kernel residency.  Four
  regression gates fail CI: the compiled-plan fast path must stay >=
  1.5x the stepped interpreter, the region tier must stay ahead of
  the fast path it batches over, the loop-resident tier must not fall
  behind the region tier, and on the branchy kernels the loop-resident
  tier must stay >= 1.25x the region tier (best-of-3 per column; the
  branchy kernels are where guarded traces act).  In smoke mode every
  reference column is timed best-of-3 too, so one scheduler hiccup
  on a small CI host cannot fail the trajectory gate.

Where the numbers land depends on the invocation (see
``benchmarks/conftest.py``): smoke runs write
``BENCH_throughput.smoke.json``, full runs write
``BENCH_throughput.local.json``, and only a full run with
``--write-root`` refreshes the committed ``BENCH_throughput.json``
perf-trajectory record.

Run with::

    pytest benchmarks/bench_throughput.py --benchmark-only -s

Set ``BENCH_SMOKE=1`` for the single-round smoke mode CI uses; add
``--write-root`` (full runs only) to refresh the committed baseline.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cpu.engine import run_traced
from repro.cpu.simulator import DEFAULT_MAX_STEPS
from repro.eval.machines import (
    FIGURE2_MACHINES,
    M_UZOLC,
    M_ZOLC_FULL,
    M_ZOLC_LITE,
)
from repro.workloads.suite import FIGURE2_BENCHMARKS

REPO_ROOT = Path(__file__).resolve().parent.parent

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ROUNDS = 1 if SMOKE else 3
WARMUP_ROUNDS = 0 if SMOKE else 1

ZOLC_MACHINES = (M_UZOLC, M_ZOLC_LITE, M_ZOLC_FULL)

# The ZOLC bench matrix: the Figure 2 suite plus ``viterbi`` — a
# branchy-body kernel outside the paper's figure set, included so the
# trace-JIT coverage claim is measured on it without touching the
# FIGURE2_BENCHMARKS paper fact.
ZOLC_BENCH_KERNELS = FIGURE2_BENCHMARKS + ("viterbi",)

# The subset whose watched bodies contain forward branches — the trace
# JIT's target set within the bench matrix.  The JIT acceptance gate is
# measured here: the remaining kernels have no trace candidates and run
# identical code with the JIT on or off, so a suite-wide ratio would
# dilute toward 1.0 and measure mostly scheduler noise.
BRANCHY_BENCH_KERNELS = ("me_fss", "me_tss", "viterbi")

_RESULTS: dict[str, dict] = {}


def _bench_json_path(config) -> Path:
    """Resolve the output file for this invocation (see conftest)."""
    if SMOKE:
        return REPO_ROOT / "BENCH_throughput.smoke.json"
    if config.getoption("--write-root"):
        return REPO_ROOT / "BENCH_throughput.json"
    return REPO_ROOT / "BENCH_throughput.local.json"


@pytest.fixture(scope="module", autouse=True)
def bench_json_writer(request):
    """Collects every benchmark's numbers and writes the bench JSON.

    Merges into the existing file rather than replacing it, so a
    filtered run (``-k zolc``) updates only its own section instead of
    silently dropping the other benchmarks' recorded history.
    """
    yield _RESULTS
    if _RESULTS:
        bench_json = _bench_json_path(request.config)
        payload: dict = {}
        if bench_json.exists():
            try:
                payload = json.loads(bench_json.read_text())
            except (OSError, json.JSONDecodeError):
                payload = {}
        payload["generated_by"] = "benchmarks/bench_throughput.py"
        payload["smoke"] = SMOKE
        payload.update(_RESULTS)
        bench_json.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="module")
def prepared_suite(request):
    reg = request.getfixturevalue("reg")
    return [(machine.prepare(reg.get(name).source))
            for name in FIGURE2_BENCHMARKS
            for machine in FIGURE2_MACHINES]


@pytest.fixture(scope="module")
def prepared_zolc_suite(request):
    reg = request.getfixturevalue("reg")
    return [(machine.prepare(reg.get(name).source))
            for name in ZOLC_BENCH_KERNELS
            for machine in ZOLC_MACHINES]


def _simulate_all(prepared, engine, planless=False, resident=True):
    from repro.cpu import PlanlessZolcPort

    total = 0
    for kernel in prepared:
        simulator = kernel.make_simulator()
        if planless and simulator.zolc is not None:
            simulator.zolc = PlanlessZolcPort(simulator.zolc)
        if engine == "traced" and not resident:
            # The region tier without resident traces: internal API,
            # reached through the benchmark only.
            predecoded = simulator._ensure_predecoded()
            run_traced(simulator, DEFAULT_MAX_STEPS, predecoded,
                       resident=False)
        else:
            simulator.run(engine=engine)
        total += simulator.stats.instructions
    return total


def _timed(prepared, engine, planless=False, resident=True):
    t0 = time.perf_counter()
    total = _simulate_all(prepared, engine, planless=planless,
                          resident=resident)
    return total, time.perf_counter() - t0


def _references(prepared, columns):
    """Time reference columns: one pass each, best-of-3 in smoke mode.

    ``columns`` maps a column name to its ``_timed`` keyword arguments;
    returns name -> ``(total, elapsed)``.  A smoke run times every
    column once, so on a small shared host one scheduler hiccup — or a
    slow stretch of the host — in a reference column can swing a
    recorded ratio past the trajectory gate's tolerance.  Smoke mode
    therefore takes each column's minimum over three rounds, the
    columns interleaved within a round so every column samples the
    same stretch of host time.
    """
    best: dict[str, tuple[int, float]] = {}
    for _ in range(3 if SMOKE else 1):
        for name, kwargs in columns.items():
            total, elapsed = _timed(prepared, **kwargs)
            if name not in best or elapsed < best[name][1]:
                best[name] = (total, elapsed)
    return best


def _zolc_residency(prepared):
    """Per-kernel residency on the default traced tier.

    The fraction of retired instructions executed inside a compiled
    (loop-resident) trace, per (kernel, machine) cell of the ZOLC bench
    matrix.  Every trace is loop-resident, so the ``trace`` and
    ``chain`` shares are equal.
    """
    residency: dict[str, dict] = {}
    cells = iter(prepared)
    for name in ZOLC_BENCH_KERNELS:
        for machine in ZOLC_MACHINES:
            simulator = next(cells).make_simulator()
            simulator.run(engine="traced")
            total = simulator.stats.instructions or 1
            residency[f"{name}@{machine.name}"] = {
                "instructions": simulator.stats.instructions,
                "trace_residency":
                    round(simulator.trace_resident_steps / total, 3),
                "chain_residency":
                    round(simulator.chain_resident_steps / total, 3),
            }
    return residency


@pytest.mark.repro
def test_fast_engine_throughput(benchmark, prepared_suite):
    """Steps/second of the traced tier across the Figure 2 suite.

    The forced warmup round compiles each program's region code (cached
    on the Program), so the measured rounds reflect steady state.
    """
    total = benchmark.pedantic(_simulate_all,
                               args=(prepared_suite, "traced"),
                               rounds=ROUNDS, iterations=1,
                               warmup_rounds=max(WARMUP_ROUNDS, 1))
    mean = benchmark.stats.stats.mean
    traced_ips = round(total / mean)
    benchmark.extra_info["simulated_instructions"] = total
    benchmark.extra_info["instructions_per_second"] = traced_ips

    # Reference runs of the fast engine and the stepped interpreter on
    # the same work: the recorded plain / fast / traced matrix.
    refs = _references(prepared_suite, {"fast": {"engine": "fast"},
                                        "step": {"engine": "step"}})
    fast_total, fast_elapsed = refs["fast"]
    step_total, step_elapsed = refs["step"]
    assert fast_total == step_total == total  # same retirement stream
    fast_ips = round(fast_total / fast_elapsed)
    stepped_ips = round(step_total / step_elapsed)
    fast_speedup = step_elapsed / fast_elapsed
    traced_speedup = (step_elapsed / mean) if mean else float("inf")
    benchmark.extra_info["fast_instructions_per_second"] = fast_ips
    benchmark.extra_info["stepped_instructions_per_second"] = stepped_ips
    benchmark.extra_info["speedup_vs_step_engine"] = round(traced_speedup, 2)
    _RESULTS["figure2"] = {
        "machines": [m.name for m in FIGURE2_MACHINES],
        "simulated_instructions": total,
        "fast_instructions_per_second": fast_ips,
        "stepped_instructions_per_second": stepped_ips,
        "traced_instructions_per_second": traced_ips,
        "fast_speedup_vs_step": round(fast_speedup, 2),
        "traced_speedup_vs_fast": round(fast_ips and traced_ips / fast_ips,
                                        2),
    }
    # Loose floor: the predecoded engine must clearly beat the stepped
    # interpreter even on a noisy, loaded CI box.
    assert fast_speedup > 1.5


@pytest.mark.repro
def test_zolc_fast_path_throughput(benchmark, prepared_zolc_suite):
    """Steps/second on the ZOLC machines: loop-resident tier vs the rest.

    Benchmarks the loop-resident traced tier (the ``auto`` default) and
    records five engine columns over identical work — loop-resident,
    the region tier without resident traces, the compiled-plan fast
    path, the legacy per-retirement fast loop, and the unpredecoded
    stepped interpreter.  Four CI regression gates: the plan fast path
    must stay >= 1.5x the stepped interpreter, the region tier must not
    fall behind the fast path it batches over, the loop-resident tier
    must not fall behind the region tier, and on the branchy kernels
    the loop-resident tier must stay >= 1.25x the region tier
    (best-of-3 per column).  Per-kernel residency is recorded alongside
    the columns.
    """
    # Always warm up the traced benchmark (even in smoke mode): the
    # first pass compiles each program's region and trace code, which
    # is cached on the Program and amortised across every later
    # simulation — the steady state is what the gate measures.
    total = benchmark.pedantic(_simulate_all,
                               args=(prepared_zolc_suite, "traced"),
                               rounds=ROUNDS, iterations=1,
                               warmup_rounds=max(WARMUP_ROUNDS, 1))
    mean = benchmark.stats.stats.mean
    resident_ips = round(total / mean)

    refs = _references(prepared_zolc_suite, {
        "region": {"engine": "traced", "resident": False},
        "plan": {"engine": "fast"},
        "legacy": {"engine": "fast", "planless": True},
        "step": {"engine": "step"}})
    traced_total, traced_elapsed = refs["region"]
    plan_total, plan_elapsed = refs["plan"]
    legacy_total, legacy_elapsed = refs["legacy"]
    step_total, step_elapsed = refs["step"]
    assert traced_total == plan_total == legacy_total == step_total \
        == total

    traced_ips = round(traced_total / traced_elapsed)
    plan_ips = round(plan_total / plan_elapsed)
    legacy_ips = round(legacy_total / legacy_elapsed)
    stepped_ips = round(step_total / step_elapsed)
    plan_vs_step = step_elapsed / plan_elapsed
    traced_vs_plan = plan_elapsed / traced_elapsed
    resident_vs_step = (step_elapsed / mean) if mean else float("inf")
    resident_vs_traced = (traced_elapsed / mean) if mean else float("inf")

    # The trace gate, measured on the branchy subset where guarded
    # traces act (identical work and hardware in both columns, so the
    # ratio is box-independent).  Best-of-3 on each column keeps one
    # scheduler hiccup from failing the gate.
    branchy = [p for name, p in
               zip([n for n in ZOLC_BENCH_KERNELS
                    for _ in ZOLC_MACHINES], prepared_zolc_suite)
               if name in BRANCHY_BENCH_KERNELS]
    _timed(branchy, "traced")  # warm the region/trace code caches
    jit_elapsed = min(_timed(branchy, "traced")[1] for _ in range(3))
    branchy_nojit = min(_timed(branchy, "traced", resident=False)[1]
                        for _ in range(3))
    jit_vs_nojit = (branchy_nojit / jit_elapsed) if jit_elapsed \
        else float("inf")

    benchmark.extra_info["simulated_instructions"] = total
    benchmark.extra_info["loop_resident_instructions_per_second"] = \
        resident_ips
    benchmark.extra_info["traced_instructions_per_second"] = traced_ips
    benchmark.extra_info["plan_instructions_per_second"] = plan_ips
    benchmark.extra_info["legacy_fast_instructions_per_second"] = legacy_ips
    benchmark.extra_info["stepped_instructions_per_second"] = stepped_ips
    benchmark.extra_info["loop_resident_speedup_vs_step"] = \
        round(resident_vs_step, 2)
    benchmark.extra_info["loop_resident_speedup_vs_traced"] = \
        round(resident_vs_traced, 2)
    _RESULTS["zolc"] = {
        "machines": [m.name for m in ZOLC_MACHINES],
        "kernels": list(ZOLC_BENCH_KERNELS),
        "simulated_instructions": total,
        "loop_resident_instructions_per_second": resident_ips,
        "traced_instructions_per_second": traced_ips,
        "plan_instructions_per_second": plan_ips,
        "legacy_fast_instructions_per_second": legacy_ips,
        "stepped_instructions_per_second": stepped_ips,
        "plan_speedup_vs_step": round(plan_vs_step, 2),
        "plan_speedup_vs_legacy_fast": round(legacy_elapsed / plan_elapsed,
                                             2),
        "traced_speedup_vs_plan_fast": round(traced_vs_plan, 2),
        "loop_resident_speedup_vs_step": round(resident_vs_step, 2),
        "loop_resident_speedup_vs_traced": round(resident_vs_traced, 2),
        "trace_jit_gate_kernels": list(BRANCHY_BENCH_KERNELS),
        "trace_jit_speedup_vs_nojit": round(jit_vs_nojit, 2),
        "residency": _zolc_residency(prepared_zolc_suite),
    }
    # The ZOLC fast path must stay well ahead of the unpredecoded
    # stepped interpreter (>= 1.5x steps/sec, the acceptance floor; the
    # measured ratio on an idle host is > 3x).
    assert plan_vs_step > 1.5, (
        f"ZOLC compiled-plan fast path is only {plan_vs_step:.2f}x the "
        f"unpredecoded engine")
    # The region tier must keep paying for itself over the fast path it
    # batches.  Generous noise headroom: smoke mode measures a single
    # round, and the gate exists to catch a real regression that drops
    # batching back to per-retirement speed.
    assert traced_vs_plan > 0.9, (
        f"region tier is only {traced_vs_plan:.2f}x the compiled-plan "
        f"fast path")
    # And the loop-resident tier must never fall behind the region tier
    # it keeps loops out of.  The steady-state ratio on an idle host is
    # ~1.2x suite-wide, so this floor is set with generous jitter
    # headroom for the smoke comparison of two back-to-back traced runs
    # — it exists to catch a trace regression that makes residency a
    # real loss, not to police noise.
    assert resident_vs_traced > 0.8, (
        f"loop-resident tier is only {resident_vs_traced:.2f}x the "
        f"unchained region tier")
    # The guarded-trace acceptance gate: on the branchy kernels the
    # loop-resident tier must run >= 1.25x the region tier on identical
    # work (the measured steady-state ratio on an idle host is ~1.5-
    # 1.7x).  Comparing two in-run columns keeps the gate
    # box-independent.
    assert jit_vs_nojit > 1.25, (
        f"loop-resident tier is only {jit_vs_nojit:.2f}x the region "
        f"tier on the branchy kernels")
