"""The one entry point every study goes through.

:func:`run_experiment` expands an :class:`ExperimentSpec` into its grid
cells, serves what it can from the :class:`ResultStore`, hands the rest
to an :class:`ExecutionBackend`, and returns a tidy
:class:`ExperimentResult`.  ``figure2``, the ablation sweeps, the CLI
and the ``repro serve`` service are all thin consumers of this
function.

Persistence is *incremental*: every cell is saved to the store the
moment its result arrives from the backend (via the backend's
``on_result`` seam), so a fault or Ctrl-C in cell 99 of 100 loses one
cell, not the run.  The optional ``progress`` callback receives one
event dict per planned cell — ``source`` is ``cached`` / ``simulated``
/ ``deduplicated`` / ``failed``, mirroring :class:`ExperimentResult`
sources — which is the contract the service's NDJSON event stream
forwards verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.eval.runner import RunResult
from repro.experiments.backends import (
    Cell,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
)
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore, cell_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import RunConfig

#: Per-cell progress callback; receives event dicts (see module docs).
ProgressCallback = Callable[[dict], None]


@dataclass(frozen=True)
class _PlannedCell:
    """One grid cell plus its identity columns and cache key."""

    cell: Cell
    axes: dict
    repeat: int
    key: str


def _plan_cells(spec: ExperimentSpec) -> list[_PlannedCell]:
    from repro.workloads.suite import registry

    reg = registry()
    planned: list[_PlannedCell] = []
    for kernel_name in spec.kernel_names():
        source = reg.get(kernel_name).source
        for machine in spec.machines:
            for point in spec.axis_points():
                pipeline = spec.pipeline_for(point)
                # The simulator is deterministic, so repeats share one
                # cache key: simulate once, record once per repeat.
                key = cell_key(kernel_name, source, machine, pipeline,
                               spec.max_steps)
                for repeat in range(spec.repeats):
                    cell = Cell(kernel_name=kernel_name, machine=machine,
                                pipeline=pipeline, max_steps=spec.max_steps,
                                engine=spec.engine)
                    planned.append(_PlannedCell(
                        cell=cell, axes=dict(point), repeat=repeat, key=key))
    return planned


def plan_cell_keys(spec: ExperimentSpec) -> list[str]:
    """The content-addressed store keys of every planned cell.

    The sorted, deduplicated key set identifies *what a plan measures*
    independently of host-side choices (jobs, engine), which
    is what the service's single-flight deduplication hashes.
    """
    return [item.key for item in _plan_cells(spec)]


def _record_for(planned: _PlannedCell, measurement: dict,
                spec: ExperimentSpec) -> dict:
    record = {"kernel": planned.cell.kernel_name,
              "machine": planned.cell.machine.name}
    record.update(planned.axes)
    if spec.repeats > 1:
        record["repeat"] = planned.repeat
    record.update(measurement)
    return record


def _measurement(result: RunResult) -> dict:
    """The cacheable measurement columns of one run (identity-free)."""
    record = result.record()
    record.pop("kernel")
    record.pop("machine")
    return record


def _event(planned: _PlannedCell, source: str, **extra) -> dict:
    """One progress event (the service streams these as NDJSON)."""
    event = {"event": "cell",
             "kernel": planned.cell.kernel_name,
             "machine": planned.cell.machine.name,
             "source": source,
             "key": planned.key}
    if planned.axes:
        event["axes"] = dict(planned.axes)
    event["repeat"] = planned.repeat
    event.update(extra)
    return event


def run_experiment(spec: ExperimentSpec,
                   config: "RunConfig | None" = None,
                   backend: ExecutionBackend | None = None,
                   store: ResultStore | None = None,
                   progress: ProgressCallback | None = None
                   ) -> ExperimentResult:
    """Run (or replay) every cell of ``spec``.

    Host-side choices ride in ``config`` (a
    :class:`~repro.experiments.config.RunConfig`): jobs, engine, store
    directory and cache flag, plus ``max_steps`` / ``pipeline``
    overrides folded into the spec (re-running its validation).  Every
    unset field defers to the spec's own ``jobs`` / ``engine`` keys, so
    a plan file can declare how it wants to run and a caller (e.g. the
    CLI flags) can still override it.  With no injected backend,
    ``jobs`` picks one: ``None``/``1`` runs cells in-process, ``0`` uses
    one worker per CPU, ``n`` uses ``n`` workers.  The store is the
    content-addressed result cache: cells whose key is already stored
    are *not* re-simulated, and every freshly simulated cell is
    persisted the moment it completes; no store means no caching.
    Engines are bit-identical, so the engine choice never affects cache
    identity.

    Live objects are dependency-injection parameters: a constructed
    backend instance (``backend=``, which decides its own workers), an
    open :class:`ResultStore`
    (``store=``) and the ``progress`` callback (one per-cell event
    dict as each cell resolves — cached cells first, then simulated
    cells in completion order, then deduplicated repeats).
    """
    from dataclasses import replace

    from repro.experiments.config import RunConfig

    if config is None:
        config = RunConfig()
    elif not isinstance(config, RunConfig):
        raise TypeError(f"config must be a RunConfig, "
                        f"got {type(config).__name__}")

    # Fold measurement-affecting overrides into the spec: replace()
    # re-runs __post_init__ validation, so an unknown engine fails with
    # the same message a plan file gets.
    spec_overrides = {
        name: value for name, value in (
            ("engine", config.engine),
            ("max_steps", config.max_steps),
            ("pipeline", config.pipeline))
        if value is not None and value != getattr(spec, name)}
    if spec_overrides:
        spec = replace(spec, **spec_overrides)
    if backend is None:
        jobs = config.jobs if config.jobs is not None else spec.jobs
        backend = (SerialBackend() if jobs in (None, 1)
                   else ProcessBackend(jobs=jobs))
    if config.cache is False:
        store = None
    elif store is None:
        store = config.resolved_store()

    planned = _plan_cells(spec)
    cached: dict[str, dict] = {}
    if store is not None:
        for item in planned:
            if item.key not in cached:
                measurement = store.load(item.key)
                if measurement is not None:
                    cached[item.key] = measurement

    to_run = [item for item in planned if item.key not in cached]
    # Deduplicate identical cells (repeats of a deterministic simulation
    # share one key): simulate once, record once per repeat.
    unique: dict[str, _PlannedCell] = {}
    for item in to_run:
        unique.setdefault(item.key, item)
    if progress is not None:
        for item in planned:
            if item.key in cached:
                progress(_event(item, "cached"))

    ordered = list(unique.values())
    fresh: dict[str, dict] = {}

    def _on_result(index: int, outcome: RunResult | BaseException) -> None:
        item = ordered[index]
        if isinstance(outcome, BaseException):
            if progress is not None:
                progress(_event(item, "failed", error=str(outcome)))
            return
        fresh[item.key] = _measurement(outcome)
        if store is not None:
            # Persist as results arrive: a fault in a later cell (or a
            # Ctrl-C) never discards completed measurements.
            store.save(item.key, fresh[item.key])
        if progress is not None:
            progress(_event(item, "simulated"))

    backend.run_cells([item.cell for item in ordered],
                      on_result=_on_result)

    out = ExperimentResult(name=spec.name,
                           axes=tuple(axis.name for axis in spec.sweep))
    simulated_keys = set()
    for item in planned:
        if item.key in fresh:
            source = "deduplicated" if item.key in simulated_keys \
                else "simulated"
            simulated_keys.add(item.key)
            if progress is not None and source == "deduplicated":
                progress(_event(item, "deduplicated"))
            out.add(_record_for(item, fresh[item.key], spec), source)
        else:
            out.add(_record_for(item, cached[item.key], spec), "cached")
    return out


def run_plan(path: str | Path,
             config: "RunConfig | None" = None,
             backend: ExecutionBackend | None = None,
             store: ResultStore | None = None,
             progress: ProgressCallback | None = None) -> ExperimentResult:
    """Load a plan file and run it (the ``repro experiment`` command).

    Unset ``config`` fields honour the plan's own ``jobs``, ``engine``
    and ``max_steps`` keys; set fields override the plan.
    """
    from repro.experiments.spec import load_plan

    return run_experiment(load_plan(path), config, backend=backend,
                          store=store, progress=progress)


__all__ = ["run_experiment", "run_plan", "plan_cell_keys", "SerialBackend"]
