"""Pluggable execution backends.

A backend turns a list of :class:`Cell` descriptions into
:class:`~repro.eval.runner.RunResult` measurements, in order.  Two
implementations ship today — in-process :class:`SerialBackend` and
:class:`ProcessBackend` (a ``ProcessPoolExecutor`` fan-out) — and the
:class:`ExecutionBackend` protocol is the seam sharded or remote
execution plugs into.

The seam is *incremental*: ``run_cells`` accepts an optional
``on_result`` callback invoked exactly once per finished cell — with
the cell's index and its :class:`RunResult`, or the exception that
felled it — *before* the call returns or raises.  That is what lets
the experiment runner persist every completed cell even when a later
cell faults, and what the service layer's per-cell progress stream
consumes.  Callback order is completion order (deterministic for the
serial backend, nondeterministic under a process pool); the returned
list is always in cell order.

Machines travel inside the cell by value (specs are picklable data), so
the process backend runs *any* machine, including ad-hoc ZOLC variants
that are in no registry.  Kernels resolve by name in the worker because
golden-model checks are closures and do not pickle.

``run_experiment`` and ``run_suite`` pick a backend from their
``jobs`` choice (see :class:`~repro.experiments.config.RunConfig`); an
injected backend decides its own workers.  A directly constructed
:class:`ProcessBackend` reads ``jobs=None`` as one worker per CPU.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import MachineSpec
from repro.eval.runner import RunResult, run_prepared


@dataclass(frozen=True)
class Cell:
    """One grid cell: everything a worker needs to run it.

    ``engine`` is the simulator engine the cell runs on — a host-side
    choice that never affects the measurement (engines are
    bit-identical), so it is not part of the cell's cache identity.
    ``None`` for ``pipeline``, ``max_steps`` or ``engine`` takes
    :func:`~repro.eval.runner.run_prepared`'s default.
    """

    kernel_name: str
    machine: MachineSpec
    pipeline: PipelineConfig | None
    max_steps: int | None
    engine: str | None = "auto"


#: Per-cell completion callback: ``(index, outcome)`` where ``outcome``
#: is the cell's :class:`RunResult` or the exception that felled it.
CellCallback = Callable[[int, "RunResult | BaseException"], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can run experiment cells."""

    def run_cells(self, cells: Sequence[Cell],
                  on_result: CellCallback | None = None) -> list[RunResult]:
        """Measure every cell, returning results in cell order.

        ``on_result`` is called exactly once per finished cell, as it
        finishes; a failing cell is reported to the callback and then
        raised (after every already-finished cell has been reported).
        """
        ...


# -- per-process warm kernel cache ------------------------------------
#
# ``prepare`` (assemble + transform) is identical for every cell that
# shares a (machine, kernel source), and the generated region/trace
# code the engine tiers compile is cached *on the prepared program* —
# so memoizing the prepared kernel per process is what keeps a
# persistent pool's workers warm across jobs: the second job that
# touches a (kernel, machine) pair a worker has seen recompiles
# nothing.  The cache is bounded because a long-lived service sees
# arbitrarily many ad-hoc machine variants.
#
# The kernel's machine-independent front end (assembly, CFG, loop
# match) lives in the same FIFO, keyed without a machine, so the other
# machines of a row prepare from it.  Fronts count against the same
# budget: a round of more distinct kernels than fit still re-prepares
# (and re-analyses) every cell, so a cold round stays cold.

_PREPARE_CACHE: dict = {}
_PREPARE_CACHE_LIMIT = 128


def _cache_put(key: tuple, value) -> None:
    if len(_PREPARE_CACHE) >= _PREPARE_CACHE_LIMIT:
        _PREPARE_CACHE.pop(next(iter(_PREPARE_CACHE)))
    _PREPARE_CACHE[key] = value


def _prepare_cached(machine: MachineSpec, kernel_name: str, source: str):
    key = (machine, kernel_name, source)
    prepared = _PREPARE_CACHE.get(key)
    if prepared is None:
        front_key = (kernel_name, source)
        front = _PREPARE_CACHE.get(front_key)
        prepared = machine.prepare(source if front is None else front)
        if front is None:
            _cache_put(front_key, prepared.front)
        _cache_put(key, prepared)
    return prepared


def _run_cell(cell: Cell) -> RunResult:
    from repro.workloads.suite import registry

    kernel = registry().get(cell.kernel_name)
    prepared = _prepare_cached(cell.machine, kernel.name, kernel.source)
    return run_prepared(kernel, cell.machine.name, prepared, cell.pipeline,
                        cell.max_steps, cell.engine)


class SerialBackend:
    """Run cells one after another in the current process."""

    def run_cells(self, cells: Sequence[Cell],
                  on_result: CellCallback | None = None) -> list[RunResult]:
        results: list[RunResult] = []
        for index, cell in enumerate(cells):
            try:
                result = _run_cell(cell)
            except BaseException as exc:
                if on_result is not None:
                    on_result(index, exc)
                raise
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


class ProcessBackend:
    """Fan cells out over a process pool.

    ``jobs``: ``None``/``0`` uses one worker per CPU, ``1`` degrades to
    serial, ``n`` uses ``n`` workers.

    ``persistent=True`` keeps the pool alive across ``run_cells``
    calls (until :meth:`close`), which is what keeps worker processes
    — and their per-process prepared-kernel / generated-code caches —
    warm across service jobs: a warm worker re-simulating a known
    (kernel, machine) pair recompiles nothing.
    """

    def __init__(self, jobs: int | None = None, persistent: bool = False):
        if jobs is not None and jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs
        self.persistent = persistent
        self._pool: ProcessPoolExecutor | None = None

    def worker_count(self) -> int:
        """The effective pool size ``jobs`` resolves to."""
        if self.jobs is None or self.jobs == 0:
            return os.cpu_count() or 1
        return self.jobs

    def _get_pool(self, span: int) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = self.worker_count()
            context = None
            if self.persistent:
                # Persistent pools live inside the service process,
                # which owns live HTTP connections.  Fork-started
                # workers inherit every open fd — including in-flight
                # event-stream sockets — so a long-lived worker keeps a
                # closed connection from ever reaching EOF on the
                # client.  Spawn-started workers inherit nothing; the
                # interpreter start cost is paid once per worker for
                # the pool's whole lifetime.
                context = multiprocessing.get_context("spawn")
            else:
                workers = min(workers, span)
            self._pool = ProcessPoolExecutor(max_workers=workers,
                                             mp_context=context)
        return self._pool

    def run_cells(self, cells: Sequence[Cell],
                  on_result: CellCallback | None = None) -> list[RunResult]:
        if not self.persistent and (self.worker_count() <= 1
                                    or len(cells) <= 1):
            return SerialBackend().run_cells(cells, on_result)
        pool = self._get_pool(len(cells) or 1)
        try:
            futures = {pool.submit(_run_cell, cell): index
                       for index, cell in enumerate(cells)}
            results: list[RunResult | None] = [None] * len(cells)
            for future in as_completed(futures):
                index = futures[future]
                try:
                    result = future.result()
                except BaseException as exc:
                    # First observed failure wins: cancel what has not
                    # started, report the failing cell, raise.  Cells
                    # that already completed were reported as they
                    # landed — that is the crash-safety contract.
                    for other in futures:
                        other.cancel()
                    if on_result is not None:
                        on_result(index, exc)
                    raise
                results[index] = result
                if on_result is not None:
                    on_result(index, result)
            return results  # type: ignore[return-value]
        finally:
            if not self.persistent:
                self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent; persistent pools only grow
        again on the next ``run_cells``)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
