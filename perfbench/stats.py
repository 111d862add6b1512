"""Percentiles, the tail-sample rule and the result-line format."""

from __future__ import annotations

import json
import re
import statistics

#: Metric names: letters, digits, ``_``, ``.`` and ``-``, starting with
#: a letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A timed phase runs until every tail percentile has at least this
#: many samples beyond it.
TAIL_SAMPLES = 10


def percentile(samples: list[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, n=100)."""
    if pct == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100)[pct - 1]


def band_percentile(samples: list[float], pct: int) -> float:
    """A smoothed ``pct``-th percentile: the mean of the samples ranked
    between the ``pct``-1 and ``pct``+1 th percentiles.

    Cell costs come in clusters (a kernel on a machine costs about the
    same every round), and where a percentile falls on the edge of a
    cluster the plain order statistic hops between the two clusters
    from run to run; the band's mean moves smoothly instead.
    """
    ordered = sorted(samples)
    low = int((pct - 1) / 100 * len(ordered))
    high = max(low + 1, int((pct + 1) / 100 * len(ordered)))
    return statistics.fmean(ordered[low:high])


def beyond(samples: list[float], pct: int) -> int:
    """How many samples lie strictly above the ``pct``-th percentile."""
    if len(samples) < 2:
        return 0
    cut = percentile(samples, pct)
    return sum(1 for value in samples if value > cut)


def tail_ok(samples: list[float], pct: int) -> bool:
    """Whether at least :data:`TAIL_SAMPLES` samples lie beyond ``pct``."""
    return beyond(samples, pct) >= TAIL_SAMPLES


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, dict]) -> str:
    """The benchmark's last stdout line: one JSON object."""
    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"bad metric name(s): {', '.join(bad)}")
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
