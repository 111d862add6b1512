"""Spans around the layers' public calls, recorded from outside.

The traced run patches each layer's entry points with a wrapper that
records one span (name, start, end, parent, cell) per call.  Where a
module imported a name directly, the name is patched in that module's
namespace, because patching the defining module would not reach it.
Spans stay in memory and are written out once, at the end of the run.

A layer's self time is its spans' duration minus the part of each
interval its child spans cover.  ``builtins.compile`` is counted only
while a ``Simulator.run`` span is open on the same thread, so imports
and plan parsing never count as code generation.
"""

from __future__ import annotations

import builtins
import contextlib
import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

RUN = "cpu.engine.run"
COMPILE = "cpu.engine.compile"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: str | None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = (span.end - span.start) - covered
    return out


class Tracer:
    """In-memory span recorder plus the per-run engine counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.engines: Counter[str] = Counter()
        self.instructions = 0
        self.trace_resident = 0
        self.chain_resident = 0
        self.store_hits = 0
        self._ids = itertools.count()
        self._local = threading.local()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_cell(self, cell: str | None) -> None:
        """Label the spans this thread records next with ``cell``."""
        self._local.cell = cell

    def wrap(self, name: str, fn, only_inside: str | None = None):
        """``fn`` with a span around every call.

        With ``only_inside``, calls made while no span of that name is
        open on the calling thread pass straight through.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if only_inside is not None and \
                    all(open_name != only_inside for _, open_name in stack):
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    span_id, name, start, end, parent,
                    getattr(tracer._local, "cell", None)))
        return traced

    def count(self, name: str, fn):
        """``fn`` with a call counter and no span (for very cheap calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- layer-specific wrappers ---------------------------------------

    def _wrap_run(self, run):
        traced_run = self.wrap(RUN, run)
        tracer = self

        @functools.wraps(run)
        def wrapped(sim, *args, **kwargs):
            before = sim.stats.instructions
            trace_before = sim.trace_resident_steps
            chain_before = sim.chain_resident_steps
            try:
                return traced_run(sim, *args, **kwargs)
            finally:
                tracer.engines[sim.last_engine or "none"] += 1
                tracer.instructions += sim.stats.instructions - before
                tracer.trace_resident += sim.trace_resident_steps - trace_before
                tracer.chain_resident += sim.chain_resident_steps - chain_before
        return wrapped

    def _wrap_load(self, load):
        traced_load = self.wrap("experiments.store.load", load)
        tracer = self

        @functools.wraps(load)
        def wrapped(store, key):
            record = traced_load(store, key)
            if record is not None:
                tracer.store_hits += 1
            return record
        return wrapped

    def _wrap_get(self, get):
        wrap = self.wrap

        @functools.wraps(get)
        def wrapped(registry, name):
            kernel = get(registry, name)
            return dataclasses.replace(
                kernel, check=wrap("workloads.check", kernel.check))
        return wrapped

    # -- installation --------------------------------------------------

    def _patches(self) -> list[tuple[object, str, object]]:
        from repro.cpu.engine import fast, traced
        from repro.cpu.simulator import Simulator
        from repro.eval import machines
        from repro.eval.machines import MachineSpec
        from repro.experiments import runner
        from repro.experiments.store import ResultStore
        from repro.service import jobs
        from repro.transform import hwlp_rewrite, legality, zolc_rewrite
        from repro.workloads.api import KernelRegistry

        patches = []

        def span(owner, attr, name, **options):
            patches.append((owner, attr,
                            self.wrap(name, getattr(owner, attr), **options)))

        for module in (machines, zolc_rewrite, hwlp_rewrite):
            span(module, "assemble", "asm")
        for module in (zolc_rewrite, hwlp_rewrite):
            span(module, "assemble_module", "asm")
        span(machines, "rewrite_for_zolc", "transform")
        span(machines, "rewrite_for_hwlp", "transform")
        for module in (fast, traced, legality):
            span(module, "build_ir", "cpu.ir")
        span(MachineSpec, "prepare", "eval.prepare")
        span(builtins, "compile", COMPILE, only_inside=RUN)
        span(ResultStore, "save", "experiments.store.save")
        span(runner, "_plan_cells", "experiments.runner.plan")
        span(jobs, "plan_fingerprint", "service.jobs.fingerprint")
        patches += [
            (Simulator, "run", self._wrap_run(Simulator.run)),
            (ResultStore, "load", self._wrap_load(ResultStore.load)),
            (KernelRegistry, "get", self._wrap_get(KernelRegistry.get)),
            (runner, "cell_key",
             self.count("experiments.runner.cell_key", runner.cell_key)),
        ]
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced layer for the duration of the block."""
        originals = []
        try:
            for owner, attr, wrapper in self._patches():
                originals.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``duration`` and ``self`` time."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "duration": 0.0, "self": 0.0})
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["duration"] += span.end - span.start
            entry["self"] += selfs[span.id]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")
