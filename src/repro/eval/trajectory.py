"""The benchmark trajectory gate: speedups may only drift so far down.

``BENCH_throughput.json`` at the repo root records the committed engine
throughput baseline — absolute steps/sec *and* the engine-to-engine
speedup ratios.  Absolute numbers are host-dependent and useless as a
CI gate, but the *ratios* (auto vs stepped, resident vs region tier,
…) are largely host-independent: they measure how much the engine
architecture pays for itself.  This module compares a fresh (smoke)
run's ratios against the committed baseline and fails when any
recorded speedup regressed by more than a tolerance, then appends the
run to a JSONL history file so the perf trajectory accumulates run
over run.

CLI (used by CI after the smoke benchmark)::

    python -m repro.eval.trajectory BENCH_throughput.json \\
        BENCH_throughput.smoke.json --history BENCH_history.jsonl \\
        --label ci-py3.12

Exit status 1 lists every regressed ratio; the history line is written
either way, so a regressing run is still recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

#: A baseline ratio must keep at least this fraction of its value
#: (default --tolerance 0.25: fail under 75% of the baseline).
DEFAULT_TOLERANCE = 0.25

#: Ratio keys carry this marker; everything else in a section is
#: context (machines, instruction counts, absolute steps/sec).
_SPEEDUP_MARKER = "speedup"


def speedup_keys(section: dict) -> dict[str, float]:
    """The recorded speedup ratios of one benchmark section."""
    return {key: value for key, value in section.items()
            if _SPEEDUP_MARKER in key
            and isinstance(value, (int, float))}


def compare(baseline: dict, current: dict,
            tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Every baseline speedup the current run regressed past tolerance.

    Walks each benchmark section of ``baseline`` (any dict value
    containing speedup keys); a ratio present in the baseline but
    missing from the current run is itself a failure — a silently
    dropped column must not pass the gate.  Returns human-readable
    regression messages, empty when the gate passes.
    """
    floor = 1.0 - tolerance
    problems: list[str] = []
    for section_name, section in baseline.items():
        if not isinstance(section, dict):
            continue
        recorded = speedup_keys(section)
        if not recorded:
            continue
        fresh_section = current.get(section_name)
        if not isinstance(fresh_section, dict):
            problems.append(f"{section_name}: section missing from the "
                            f"current run")
            continue
        fresh = speedup_keys(fresh_section)
        for key, value in recorded.items():
            now = fresh.get(key)
            if now is None:
                problems.append(f"{section_name}.{key}: recorded in the "
                                f"baseline but missing from the current "
                                f"run")
            elif value > 0 and now < floor * value:
                problems.append(
                    f"{section_name}.{key}: {now:.2f} is below "
                    f"{floor:.0%} of the baseline {value:.2f}")
    return problems


def history_entry(current: dict, label: str | None = None,
                  timestamp: float | None = None) -> dict:
    """One JSONL trajectory record for the current run."""
    entry: dict = {
        "timestamp": round(time.time() if timestamp is None
                           else timestamp, 3),
        "smoke": bool(current.get("smoke")),
    }
    if label:
        entry["label"] = label
    for section_name, section in current.items():
        if not isinstance(section, dict):
            continue
        for key, value in section.items():
            if isinstance(value, (int, float)) and (
                    _SPEEDUP_MARKER in key
                    or key.endswith("instructions_per_second")):
                entry[f"{section_name}.{key}"] = value
    return entry


def append_history(path: str | Path, entry: dict) -> None:
    """Append one run's entry to the JSONL trajectory file."""
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def _load(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read benchmark file "
                         f"{path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise SystemExit(f"error: {path!r} does not contain a benchmark "
                         f"record")
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.trajectory",
        description="compare a fresh benchmark run's engine speedups "
                    "against the committed baseline")
    parser.add_argument("baseline",
                        help="committed baseline (BENCH_throughput.json)")
    parser.add_argument("current",
                        help="fresh run (BENCH_throughput.smoke.json)")
    parser.add_argument("--history", metavar="FILE", default=None,
                        help="append this run to a JSONL trajectory file")
    parser.add_argument("--label", default=None,
                        help="label recorded in the history entry")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE, metavar="FRACTION",
                        help="allowed fractional regression of any "
                             "recorded speedup (default 0.25)")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")

    baseline = _load(args.baseline)
    current = _load(args.current)
    if args.history:
        append_history(args.history, history_entry(current,
                                                   label=args.label))
    problems = compare(baseline, current, tolerance=args.tolerance)
    if problems:
        print("benchmark trajectory gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    checked = sum(len(speedup_keys(section))
                  for section in baseline.values()
                  if isinstance(section, dict))
    print(f"trajectory gate ok: {checked} recorded speedups within "
          f"{args.tolerance:.0%} of the baseline")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
