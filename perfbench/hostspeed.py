"""Host-speed reference: a fixed piece of interpreter work timed between plans.

The hosts this benchmark runs on are shared, and their speed moves by a
third for tens of seconds at a time as other tenants come and go; a
whole run can land in a slow stretch, so no median inside a run removes
it.  The probe below compiles and runs a small module and round-trips
a JSON document: interpreter work with a footprint like the
simulator's, but none of the repository's code.  (A tight dict and
integer loop was tried first; it slowed by 80% where the workloads
slowed by 20%, and scaled them worse than no scaling at all.)

The probe is timed before every plan, outside the plan's own timing,
and the timings of each round are scaled by ``REFERENCE_S`` over the
round's median probe time: they are reported as they would read on a
host where the probe takes ``REFERENCE_S``.  A change to the program
moves the scaled timings exactly as it moves the raw ones.
"""

from __future__ import annotations

import json
import statistics
import time

#: The probe's typical time on the 2-vCPU host the benchmark was tuned
#: on (Python 3.11), so scaled timings read close to raw ones there.
REFERENCE_S = 1.2e-3

#: Probes taken after a set-up, to scale it.
SETUP_PROBES = 15

_SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    x = [a + {i}, b * {i}]\n"
    f"    return {{'k': x, 'n': len(x)}} if a else sorted(x)\n"
    for i in range(12))

_DOCUMENT = {"records": [{"kernel": f"k{i}", "cycles": 7 * i,
                          "stats": list(range(12))} for i in range(40)]}


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes."""
    start = time.perf_counter()
    exec(compile(_SOURCE, "<probe>", "exec"), {})
    json.loads(json.dumps(_DOCUMENT))
    return time.perf_counter() - start


class HostSpeed:
    """Probe times taken through a phase, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the probe now (between plans, outside their timing)."""
        self.samples.append(probe())

    def scale(self, start: int = 0) -> float:
        """What raw timings taken since probe ``start`` are multiplied by."""
        return REFERENCE_S / statistics.median(self.samples[start:])


def setup_scale() -> float:
    """The scale for a set-up that has just finished."""
    speed = HostSpeed()
    for _ in range(SETUP_PROBES):
        speed.sample()
    return speed.scale()
