"""Simulator throughput: simulated instructions per second.

Three benchmarks, all with preparation hoisted out of the timed region
so the numbers track the *execution engine* and not the assembler or
transform front end:

* ``test_figure2_throughput`` — the ``auto`` run loop over the Figure 2
  suite (every kernel on all three Figure 2 machines) against the
  stepped interpreter on identical work.  Gate: ``auto`` must stay
  > 4.2x the stepped interpreter;
* ``test_zolc_throughput`` — every Figure 2 kernel plus ``viterbi`` on
  the three ZOLC machines, benchmarking the ``auto`` run loop (every
  hot ZOLC loop runs as a loop-resident fire→re-entry trace,
  straight-line bodies as zero-guard traces) against two references on
  identical work: its region tier alone (``run_traced(...,
  resident=False)``) and the stepped interpreter — the three recorded
  engine columns, plus per-kernel residency.  Three regression gates
  fail CI: the region tier must stay > 3.5x the stepped interpreter,
  the loop-resident tier must not fall behind the region tier, and on
  the branchy kernels the loop-resident tier must stay >= 1.25x the
  region tier (best-of-3 per column; the branchy kernels are where
  guarded traces act).  Every reference column is timed best-of-3
  too, so one scheduler hiccup on a small CI host cannot fail the
  trajectory gate;
* ``test_uzolc_host_time`` — the warm Figure 2 suite on all five
  machines on ``auto`` (one kernel front per machine, so no Program is
  shared between them), recording each machine's host time.  uZOLC
  re-arms its tables before every loop, so its host time tracks how
  cheaply the engine retires a ``reset … writes … arm`` preheader.
  Gates: uZOLC's summed host time stays at or below
  :data:`UZOLC_HOST_TIME_LIMIT` times XRdefault's, and ZOLClite's and
  ZOLCfull's each at or below :data:`ZOLC_HOST_TIME_LIMIT` times
  XRdefault's, which holds only while their task-end decisions run
  compiled (best-of-5 per column, in-run).

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
    ALL_MACHINES,
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

# uZOLC's summed Figure 2 host time may be at most this many times
# XRdefault's.  A fused re-arm preheader measures about 1.5-1.7x on a
# 2-core host; with every table write ending a region it was about
# 1.9-2.1x.
UZOLC_HOST_TIME_LIMIT = 1.8

# ZOLClite's and ZOLCfull's summed Figure 2 host time may each be at
# most this many times XRdefault's.  With the task-selection unit
# compiled at arm time they measure about 1.06-1.17x on a 2-core host;
# with it interpreted on every fire they measured 1.26-1.32x.
ZOLC_HOST_TIME_LIMIT = 1.25

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


def _simulate_all(prepared, engine="auto", resident=True):
    total = 0
    for kernel in prepared:
        simulator = kernel.make_simulator()
        if not resident:
            # The region tier without resident traces: internal API,
            # reached through the benchmark only.
            predecoded = simulator._ensure_predecoded()
            run_traced(simulator, DEFAULT_MAX_STEPS, predecoded,
                       resident=False)
        else:
            simulator.run(engine=engine)
        total += simulator.stats.instructions
    return total


def _timed(prepared, engine="auto", resident=True):
    t0 = time.perf_counter()
    total = _simulate_all(prepared, engine, resident=resident)
    return total, time.perf_counter() - t0


def _references(columns, rounds=3):
    """Time reference columns, best-of-``rounds`` (default 3).

    ``columns`` maps a column name to ``(prepared, kwargs)``: the
    prepared kernels it runs and its ``_timed`` keyword arguments;
    returns name -> ``(total, elapsed)``.  On a small shared host one
    scheduler hiccup — or a slow stretch of the host — in a single pass
    of a reference column can swing a recorded ratio past the
    trajectory gate's tolerance, so each column's minimum over three
    rounds is taken, the columns interleaved within a round so every
    column samples the same stretch of host time.  Full runs measure
    the same way, so the committed baseline and the smoke runs gated
    against it agree on method.
    """
    best: dict[str, tuple[int, float]] = {}
    for _ in range(rounds):
        for name, (prepared, kwargs) in columns.items():
            total, elapsed = _timed(prepared, **kwargs)
            if name not in best or elapsed < best[name][1]:
                best[name] = (total, elapsed)
    return best


def _zolc_residency(prepared):
    """Per-kernel residency on the default ``auto`` engine.

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
            simulator.run()
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
def test_figure2_throughput(benchmark, prepared_suite):
    """Steps/second of the ``auto`` run loop across the Figure 2 suite.

    The forced warmup round compiles each program's region code (cached
    on the Program), so the measured rounds reflect steady state.
    """
    total = benchmark.pedantic(_simulate_all, args=(prepared_suite,),
                               rounds=ROUNDS, iterations=1,
                               warmup_rounds=max(WARMUP_ROUNDS, 1))
    mean = benchmark.stats.stats.mean
    traced_ips = round(total / mean)
    benchmark.extra_info["simulated_instructions"] = total
    benchmark.extra_info["instructions_per_second"] = traced_ips

    # Reference run of the stepped interpreter on the same work.
    step_total, step_elapsed = _references(
        {"step": (prepared_suite, {"engine": "step"})})["step"]
    assert step_total == total  # same retirement stream
    stepped_ips = round(step_total / step_elapsed)
    traced_speedup = (step_elapsed / mean) if mean else float("inf")
    benchmark.extra_info["stepped_instructions_per_second"] = stepped_ips
    benchmark.extra_info["speedup_vs_step_engine"] = round(traced_speedup, 2)
    _RESULTS["figure2"] = {
        "machines": [m.name for m in FIGURE2_MACHINES],
        "simulated_instructions": total,
        "stepped_instructions_per_second": stepped_ips,
        "traced_instructions_per_second": traced_ips,
        "traced_speedup_vs_step": round(traced_speedup, 2),
    }
    # The run loop must clearly beat the stepped interpreter even on a
    # noisy, loaded CI box: 1.5x (the old predecoded-loop floor) times
    # the recorded 2.81x of the traced tier over that loop.
    assert traced_speedup > 4.2, (
        f"auto run loop is only {traced_speedup:.2f}x the stepped "
        f"interpreter")


@pytest.mark.repro
def test_zolc_throughput(benchmark, prepared_zolc_suite):
    """Steps/second on the ZOLC machines: loop-resident tier vs the rest.

    Benchmarks the ``auto`` run loop (loop-resident) and records three
    engine columns over identical work — loop-resident, the region tier
    without resident traces, and the stepped interpreter.  Three CI
    regression gates: the region tier must stay > 3.5x the stepped
    interpreter, the loop-resident tier must not fall behind the region
    tier, and on the branchy kernels the loop-resident tier must stay
    >= 1.25x the region tier (best-of-3 per column).  Per-kernel
    residency is recorded alongside the columns.
    """
    # Always warm up the benchmark (even in smoke mode): the first pass
    # compiles each program's region and trace code, which is cached on
    # the Program and amortised across every later simulation — the
    # steady state is what the gate measures.
    total = benchmark.pedantic(_simulate_all, args=(prepared_zolc_suite,),
                               rounds=ROUNDS, iterations=1,
                               warmup_rounds=max(WARMUP_ROUNDS, 1))
    mean = benchmark.stats.stats.mean
    resident_ips = round(total / mean)

    refs = _references({
        "region": (prepared_zolc_suite, {"resident": False}),
        "step": (prepared_zolc_suite, {"engine": "step"})})
    traced_total, traced_elapsed = refs["region"]
    step_total, step_elapsed = refs["step"]
    assert traced_total == step_total == total

    traced_ips = round(traced_total / traced_elapsed)
    stepped_ips = round(step_total / step_elapsed)
    traced_vs_step = step_elapsed / traced_elapsed
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
    _timed(branchy)  # warm the region/trace code caches
    jit_elapsed = min(_timed(branchy)[1] for _ in range(3))
    branchy_nojit = min(_timed(branchy, resident=False)[1]
                        for _ in range(3))
    jit_vs_nojit = (branchy_nojit / jit_elapsed) if jit_elapsed \
        else float("inf")

    benchmark.extra_info["simulated_instructions"] = total
    benchmark.extra_info["loop_resident_instructions_per_second"] = \
        resident_ips
    benchmark.extra_info["traced_instructions_per_second"] = traced_ips
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
        "stepped_instructions_per_second": stepped_ips,
        "traced_speedup_vs_step": round(traced_vs_step, 2),
        "loop_resident_speedup_vs_step": round(resident_vs_step, 2),
        "loop_resident_speedup_vs_traced": round(resident_vs_traced, 2),
        "trace_jit_gate_kernels": list(BRANCHY_BENCH_KERNELS),
        "trace_jit_speedup_vs_nojit": round(jit_vs_nojit, 2),
        "residency": _zolc_residency(prepared_zolc_suite),
    }
    # The region tier must stay well ahead of the unpredecoded stepped
    # interpreter: 0.9 times the recorded 3.91x of the compiled-plan
    # per-slot loop it batches over (the old floor on that loop was
    # 1.5x, and the region tier had to keep 0.9x of it).
    assert traced_vs_step > 3.5, (
        f"region tier is only {traced_vs_step:.2f}x the stepped "
        f"interpreter")
    # And the loop-resident tier must never fall behind the region tier
    # it keeps loops out of.  The steady-state ratio on an idle host is
    # ~1.2x suite-wide, so this floor is set with generous jitter
    # headroom for the smoke comparison of two back-to-back runs — it
    # exists to catch a trace regression that makes residency a real
    # loss, not to police noise.
    assert resident_vs_traced > 0.8, (
        f"loop-resident tier is only {resident_vs_traced:.2f}x the "
        f"region tier")
    # The guarded-trace acceptance gate: on the branchy kernels the
    # loop-resident tier must run >= 1.25x the region tier on identical
    # work (the measured steady-state ratio on an idle host is ~1.5-
    # 1.7x).  Comparing two in-run columns keeps the gate
    # box-independent.
    assert jit_vs_nojit > 1.25, (
        f"loop-resident tier is only {jit_vs_nojit:.2f}x the region "
        f"tier on the branchy kernels")


@pytest.mark.repro
def test_uzolc_host_time(benchmark, reg):
    """Every machine's warm host time over the Figure 2 suite.

    Benchmarks uZOLC's ``auto`` column, then times one column per
    machine best-of-5, interleaved, after a warm-up pass of each,
    records every column's minimum and gates the uZOLC/XRdefault,
    ZOLClite/XRdefault and ZOLCfull/XRdefault ratios.  Each machine prepares every kernel from its own front, so
    the columns share no Program and no compiled code.
    """
    prepared = {machine.name: [machine.prepare(reg.get(name).source)
                               for name in FIGURE2_BENCHMARKS]
                for machine in ALL_MACHINES}
    total = benchmark.pedantic(_simulate_all, args=(prepared["uZOLC"],),
                               rounds=ROUNDS, iterations=1,
                               warmup_rounds=max(WARMUP_ROUNDS, 1))
    for name, kernels in prepared.items():
        if name != "uZOLC":
            _timed(kernels)  # warm this machine's code caches
    # Best-of-5: the three ratio gates share one XRdefault column, and
    # a slow stretch of a shared host can cover a column's three
    # rounds.
    best = _references({name: (kernels, {})
                        for name, kernels in prepared.items()}, rounds=5)
    xr_total, xr_elapsed = best["XRdefault"]
    uzolc_total, uzolc_elapsed = best["uZOLC"]
    assert uzolc_total == total
    ratio = uzolc_elapsed / xr_elapsed
    benchmark.extra_info["simulated_instructions"] = total
    benchmark.extra_info["uzolc_to_xrdefault_host_time"] = round(ratio, 3)
    _RESULTS["uzolc_host_time"] = {
        "kernels": list(FIGURE2_BENCHMARKS),
        "xrdefault_instructions": xr_total,
        "uzolc_instructions": uzolc_total,
        "xrdefault_host_ms": round(1000 * xr_elapsed, 1),
        "uzolc_host_ms": round(1000 * uzolc_elapsed, 1),
        "uzolc_to_xrdefault_host_time": round(ratio, 3),
        "host_ms": {name: round(1000 * elapsed, 1)
                    for name, (_total, elapsed) in best.items()},
        "instructions": {name: machine_total
                         for name, (machine_total, _elapsed)
                         in best.items()},
    }
    assert ratio <= UZOLC_HOST_TIME_LIMIT, (
        f"uZOLC takes {ratio:.2f}x XRdefault's host time over the "
        f"Figure 2 suite (limit {UZOLC_HOST_TIME_LIMIT}x)")
    for name in ("ZOLClite", "ZOLCfull"):
        zolc_ratio = best[name][1] / xr_elapsed
        assert zolc_ratio <= ZOLC_HOST_TIME_LIMIT, (
            f"{name} takes {zolc_ratio:.2f}x XRdefault's host time over "
            f"the Figure 2 suite (limit {ZOLC_HOST_TIME_LIMIT}x)")
