"""Per-kernel loop residency report.

Runs each requested kernel on every ZOLC machine under the default
``auto`` engine and reports the fraction of retired instructions executed
inside a compiled, loop-resident trace — the coverage counter behind
the claim that hot ZOLC loops, straight-line and branchy, run their
fire → re-entry cycle inside generated code (DESIGN.md §12).  Every
trace is loop-resident, so the ``trace`` and ``chain`` columns are
equal; both stay for their readers.  The CI ``check`` job runs
``python -m repro.eval.residency --require-nonzero`` over the branchy
kernel set and over ``-k @all`` and uploads the JSON as an artifact;
the same numbers ride the committed bench record
(``BENCH_throughput.json``, ``zolc.residency``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.eval.machines import kernel_front, machine_registry
from repro.workloads.suite import registry

#: Kernels whose watched loop bodies contain forward branches — the
#: trace JIT's target set and the default report scope.
BRANCHY_KERNELS = ("me_fss", "me_tss", "vecmax_early", "viterbi",
                   "bubble_sort")

#: The three ZOLC machine variants of the bench matrix.
ZOLC_MACHINE_NAMES = ("uZOLC", "ZOLClite", "ZOLCfull")


def residency_report(kernel_names: tuple[str, ...] = BRANCHY_KERNELS,
                     machine_names: tuple[str, ...] = ZOLC_MACHINE_NAMES,
                     max_steps: int = 10_000_000) -> dict[str, dict]:
    """``kernel@machine`` → instruction counts and residency shares.

    ``kernel_names`` accepts the shared selector grammar, so residency
    can be measured over synthesized corpora
    (``-k synth:branchy:0:25``) as well as suite kernels.
    """
    from repro.workloads.suite import expand_kernel_selectors

    kernels = registry()
    machines = machine_registry()
    report: dict[str, dict] = {}
    for name in expand_kernel_selectors(kernel_names):
        source = kernels.get(name).source
        for machine_name in machine_names:
            machine = machines.get(machine_name)
            # A front per machine: machines of one front can share a
            # Program, and with it compiled code, so a machine's
            # residency would depend on which machine ran before it.
            sim = machine.prepare(kernel_front(source)).make_simulator()
            sim.run(max_steps=max_steps)
            total = sim.stats.instructions or 1
            report[f"{name}@{machine_name}"] = {
                "instructions": sim.stats.instructions,
                "trace_resident_steps": sim.trace_resident_steps,
                "chain_resident_steps": sim.chain_resident_steps,
                "trace_residency":
                    round(sim.trace_resident_steps / total, 3),
                "chain_residency":
                    round(sim.chain_resident_steps / total, 3),
            }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.residency",
        description="per-kernel loop residency on the ZOLC "
                    "machines (auto engine)")
    parser.add_argument(
        "-k", "--kernel", action="append", metavar="NAME",
        help="kernel(s) to measure (repeatable; default: the branchy "
             f"set {', '.join(BRANCHY_KERNELS)})")
    parser.add_argument(
        "-o", "--out", metavar="FILE",
        help="also write the JSON report to FILE")
    parser.add_argument(
        "--require-nonzero", action="store_true",
        help="exit 1 if any kernel reports zero trace residency on "
             "every ZOLC machine (the CI coverage gate; "
             "per-kernel, not per-cell — the smaller controller "
             "variants legitimately lack the resources to transform "
             "some loops)")
    args = parser.parse_args(argv)
    names = tuple(args.kernel) if args.kernel else BRANCHY_KERNELS
    report = residency_report(names)
    payload = json.dumps(report, indent=2, sort_keys=True)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    if args.require_nonzero:
        # Derive the kernel set from the report keys: ``names`` may
        # hold group/corpus selectors, which expand inside
        # residency_report.
        measured = sorted({cell.rsplit("@", 1)[0] for cell in report})
        dead = [name for name in measured
                if not any(row["trace_resident_steps"]
                           for cell, row in report.items()
                           if cell.startswith(f"{name}@"))]
        if dead:
            print("zero trace residency on every ZOLC machine: "
                  + ", ".join(dead), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
