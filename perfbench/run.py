"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced and
scaled to the reference host speed (see ``hostspeed.py``).
``--trace 1`` runs a traced phase and then an untraced one, and prints
the per-layer metrics plus the tracing overhead; the spans are written
to ``.perfbench/spans-<workload>-<seed>.jsonl``.  The last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A JSON line before it records the seed, commit, Python version, nproc
and a digest of every distinct simulated record, so two commits can be
compared exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cold_plan", "warm_sweep", "service_replay")

#: Set-ups per run; the first is the run's own, the rest run in fresh
#: interpreters, and ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: End-to-end metrics: name -> unit (BENCHMARK.json holds the bounds).
END_TO_END = {
    "cells_per_s": "1/s",
    "cell_p50_ms": "ms",
    "cell_p98_ms": "ms",
    "sim_minstr_per_s": "Minstr/s",
    "plan_p50_ms": "ms",
    "plan_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_ok_share": "ratio",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "asm.calls": "count",
    "asm.self_s": "s",
    "transform.calls": "count",
    "transform.self_s": "s",
    "cpu.ir.self_s": "s",
    "eval.prepare_per_cell": "1/cell",
    "cpu.engine.compile_calls": "count",
    "cpu.engine.compile_s": "s",
    "cpu.engine.run_self_s": "s",
    "cpu.engine.minstr_per_s": "Minstr/s",
    "cpu.engine.runs_traced": "count",
    "cpu.engine.runs_fast": "count",
    "cpu.engine.runs_step": "count",
    "cpu.engine.trace_resident_share": "ratio",
    "cpu.engine.chain_resident_share": "ratio",
    "workloads.check_s": "s",
    "experiments.store.saves": "count",
    "experiments.store.save_s": "s",
    "experiments.store.loads": "count",
    "experiments.store.load_s": "s",
    "experiments.store.hit_ratio": "ratio",
    "experiments.runner.plan_s": "s",
    "experiments.runner.cell_keys_per_cell": "1/cell",
    "experiments.runner.cells_simulated": "count",
    "service.jobs.fingerprint_s": "s",
    "service.client.submit_ms": "ms",
    "service.jobs.queue_ms": "ms",
    "service.client.stream_ms": "ms",
    "service.client.result_ms": "ms",
    "trace.overhead_cells_per_s": "1/s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def end_to_end(phase, setup_samples: list[float],
               failed: int) -> dict[str, float]:
    from perfbench.stats import band_percentile

    return {
        "cells_per_s": phase.cells_per_s(),
        "cell_p50_ms": band_percentile(phase.cell_gaps, 50) * 1e3,
        "cell_p98_ms": band_percentile(phase.cell_gaps, 98) * 1e3,
        "sim_minstr_per_s": phase.instructions_per_s() / 1e6,
        "plan_p50_ms": band_percentile(phase.plan_latencies, 50) * 1e3,
        "plan_p90_ms": band_percentile(phase.plan_latencies, 90) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": phase.rss_mb,
        "cells_ok_share": 1.0 - _ratio(failed, phase.cells),
    }


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    totals = tracer.totals()

    def total(name: str, kind: str) -> float:
        return totals[name][kind] if name in totals else 0

    runs = sum(tracer.engines.values())
    run_self = total("cpu.engine.run", "self")
    loads = total("experiments.store.load", "calls")
    return {
        "asm.calls": total("asm", "calls"),
        "asm.self_s": total("asm", "self"),
        "transform.calls": total("transform", "calls"),
        "transform.self_s": total("transform", "self"),
        "cpu.ir.self_s": total("cpu.ir", "self"),
        "eval.prepare_per_cell": _ratio(total("eval.prepare", "calls"), runs),
        "cpu.engine.compile_calls": total("cpu.engine.compile", "calls"),
        "cpu.engine.compile_s": total("cpu.engine.compile", "duration"),
        "cpu.engine.run_self_s": run_self,
        "cpu.engine.minstr_per_s": _ratio(tracer.instructions, run_self) / 1e6,
        "cpu.engine.runs_traced": tracer.engines["traced"],
        "cpu.engine.runs_fast": tracer.engines["fast"],
        "cpu.engine.runs_step": tracer.engines["step"],
        "cpu.engine.trace_resident_share": _ratio(tracer.trace_resident,
                                                  tracer.instructions),
        "cpu.engine.chain_resident_share": _ratio(tracer.chain_resident,
                                                  tracer.instructions),
        "workloads.check_s": total("workloads.check", "self"),
        "experiments.store.saves": total("experiments.store.save", "calls"),
        "experiments.store.save_s": total("experiments.store.save", "self"),
        "experiments.store.loads": loads,
        "experiments.store.load_s": total("experiments.store.load", "self"),
        "experiments.store.hit_ratio": _ratio(tracer.store_hits, loads),
        "experiments.runner.plan_s": total("experiments.runner.plan",
                                           "duration"),
        "experiments.runner.cell_keys_per_cell": _ratio(
            tracer.counts["experiments.runner.cell_key"], traced.cells),
        "experiments.runner.cells_simulated": traced.simulated,
        "service.jobs.fingerprint_s": total("service.jobs.fingerprint",
                                            "duration"),
        "service.client.submit_ms": _median_ms(traced.client.get("submit")),
        "service.jobs.queue_ms": _median_ms(traced.client.get("queue")),
        "service.client.stream_ms": _median_ms(traced.client.get("stream")),
        "service.client.result_ms": _median_ms(traced.client.get("result")),
        "trace.overhead_cells_per_s": (untraced.cells_per_s()
                                       - traced.cells_per_s()),
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _setup_in_child(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, as the run's own was timed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: {ROOT} holds no repro sources and golden "
              "fixtures; run it from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads
    from perfbench.hostspeed import setup_scale
    from perfbench.stats import metric, result_line
    from perfbench.tracer import Tracer

    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = Tracer() if args.trace else None
    try:
        workload.setup()
        setup_raw_s = time.perf_counter() - started
        setup_factor = setup_scale()
        setup_s = setup_raw_s * setup_factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            with tracer.installed():
                traced = workload.run_phase(args.seconds, tracer)
        phase = workload.run_phase(args.seconds)
    finally:
        workload.close()
    setup_samples = [setup_s]
    if tracer is None:
        setup_samples += [_setup_in_child(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    checked, mismatched, records_digest = workload.check()
    leftover = len(workloads.live_children())

    phases = [phase] if tracer is None else [traced, phase]
    attempted = sum(p.cells for p in phases)
    failed = sum(p.failed for p in phases) + mismatched
    correct = failed == 0 and leftover == 0
    if tracer is None:
        values = end_to_end(phase, setup_samples, failed)
        units = END_TO_END
    else:
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        values = per_layer(tracer, traced, phase)
        units = PER_LAYER
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "src_sha256": _source_digest(),
        "python": platform.python_version(), "nproc": _nproc(),
        "records_digest": records_digest, "records_checked": checked,
        "mismatched": mismatched, "leftover_children": leftover,
        "plans": sum(p.plans for p in phases),
        "cells": attempted, "setup_samples_s": setup_samples,
        "setup_raw_s": setup_raw_s, "setup_scale": setup_factor,
        "host_scale": statistics.median(phase.scales),
        "wall_s": phase.wall_s,
    }
    if tracer is not None:
        meta["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(meta, sort_keys=True))
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(result_line(correct, attempted, failed,
                      {name: metric(value, units[name])
                       for name, value in values.items()}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
