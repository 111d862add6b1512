"""Kernel execution and measurement.

Runs a kernel on a machine configuration, *verifies the output against
the kernel's golden model* (a run whose result is wrong would make the
cycle count meaningless) and returns the measurement.

:func:`run_suite` can fan the (kernel, machine) grid out over the
experiment layer's process backend (``jobs``): every pair is an
independent simulation, so the suite is embarrassingly parallel.
Machines are plain-data
:class:`~repro.eval.machines.MachineSpec` values and ship to workers by
value, so user-defined variants parallelize like the paper machines.
Kernels still resolve *by name* from the registry (``Kernel.check``
golden models are closures and do not pickle), so ad-hoc kernels fall
back to in-process execution — with a warning, since ``jobs`` is then
ignored.  Results come back in deterministic grid order regardless of
completion order.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cpu.pipeline import PipelineConfig
from repro.cpu.simulator import DEFAULT_MAX_STEPS
from repro.cpu.tracing import Stats
from repro.eval.machines import MachineSpec
from repro.workloads.api import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import RunConfig


@dataclass
class RunResult:
    """One (kernel, machine) measurement."""

    kernel_name: str
    machine_name: str
    cycles: int
    instructions: int
    stats: Stats
    verified: bool
    transformed_loops: int
    zolc_init_instructions: int = 0
    zolc_task_switches: int = 0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def record(self) -> dict:
        """This measurement as one flat, JSON-ready record."""
        out = {
            "kernel": self.kernel_name,
            "machine": self.machine_name,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "cpi": round(self.cpi, 6),
            "verified": self.verified,
            "transformed_loops": self.transformed_loops,
            "zolc_init_instructions": self.zolc_init_instructions,
            "zolc_task_switches": self.zolc_task_switches,
        }
        if self.stats is not None:
            out["stall_cycles"] = self.stats.stall_cycles
            out["flush_cycles"] = self.stats.flush_cycles
            out["taken_branches"] = self.stats.taken_branches
        return out


@dataclass
class SuiteResult:
    """Measurements for a set of kernels across machines."""

    results: dict[tuple[str, str], RunResult] = field(default_factory=dict)

    def get(self, kernel_name: str, machine_name: str) -> RunResult:
        return self.results[(kernel_name, machine_name)]

    def add(self, result: RunResult) -> None:
        self.results[(result.kernel_name, result.machine_name)] = result

    def kernels(self) -> list[str]:
        seen: list[str] = []
        for kernel_name, _ in self.results:
            if kernel_name not in seen:
                seen.append(kernel_name)
        return seen

    def machines(self) -> list[str]:
        seen: list[str] = []
        for _, machine_name in self.results:
            if machine_name not in seen:
                seen.append(machine_name)
        return seen

    def records(self) -> list[dict]:
        """All measurements as tidy, JSON-ready records (grid order)."""
        return [result.record() for result in self.results.values()]

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps({"records": self.records()}, indent=indent)


def run_prepared(kernel: Kernel, machine_name: str, prepared,
                 pipeline: PipelineConfig | None = None,
                 max_steps: int | None = None,
                 engine: str | None = None) -> RunResult:
    """Simulate and verify one prepared kernel.

    The one body every run goes through: :func:`run_kernel` and the
    experiment backends' cells differ only in how they prepare.
    ``None`` takes the default pipeline, ``DEFAULT_MAX_STEPS`` and the
    ``"auto"`` engine.
    """
    simulator = prepared.make_simulator(pipeline=pipeline)
    simulator.run(max_steps=(DEFAULT_MAX_STEPS if max_steps is None
                             else max_steps),
                  engine=engine or "auto")
    kernel.check(simulator)  # raises KernelCheckError on mismatch
    stats = simulator.stats
    return RunResult(
        kernel_name=kernel.name,
        machine_name=machine_name,
        cycles=stats.cycles,
        instructions=stats.instructions,
        stats=stats,
        verified=True,
        transformed_loops=prepared.transformed_loops,
        zolc_init_instructions=stats.zolc_init_instructions,
        zolc_task_switches=stats.zolc_task_switches,
    )


def run_kernel(kernel: Kernel, machine: MachineSpec,
               config: "RunConfig | None" = None) -> RunResult:
    """Prepare, simulate and verify one kernel on one machine.

    Host-side choices ride in ``config`` (a
    :class:`~repro.experiments.config.RunConfig`): ``pipeline`` (timing
    parameters), ``max_steps`` (step budget, default
    ``DEFAULT_MAX_STEPS``) and ``engine`` (``"auto"``, the default
    tiered loop-resident run loop, or ``"step"``, the stepped oracle);
    engines are bit-identical, so the choice affects host time only,
    never the measurement.
    """
    from repro.experiments.config import RunConfig

    config = config or RunConfig()
    return run_prepared(kernel, machine.name, machine.prepare(kernel.source),
                        config.pipeline, config.max_steps, config.engine)


def _kernels_resolvable(kernels: list[Kernel]) -> bool:
    """Whether every kernel can be re-resolved by name in a worker."""
    from repro.workloads.suite import registry

    reg = registry()
    return all(reg.kernels.get(k.name) is k for k in kernels)


def run_suite(kernels: list[Kernel], machines: list[MachineSpec],
              config: "RunConfig | None" = None) -> SuiteResult:
    """Run every kernel on every machine.

    ``config.jobs`` selects the parallelism: ``None``/1 runs
    in-process, ``n`` uses ``n`` worker processes, ``0`` uses one per
    CPU.  Parallel runs go through
    :class:`~repro.experiments.backends.ProcessBackend`, so they share
    its per-worker prepare cache.  Machines ship to workers by value;
    kernels that are not registry members cannot be shipped and force
    a serial run (a ``RuntimeWarning`` flags the ignored jobs).
    """
    from repro.experiments.backends import Cell, ProcessBackend
    from repro.experiments.config import RunConfig

    config = config or RunConfig()
    pairs = [(kernel, machine) for kernel in kernels for machine in machines]
    suite = SuiteResult()
    backend = ProcessBackend(jobs=config.jobs)
    jobs = 1 if config.jobs is None else backend.worker_count()
    if jobs > 1 and len(pairs) > 1:
        if _kernels_resolvable(kernels):
            # Workers re-resolve the kernel by name.
            cells = [Cell(kernel_name=kernel.name, machine=machine,
                          pipeline=config.pipeline,
                          max_steps=config.max_steps, engine=config.engine)
                     for kernel, machine in pairs]
            for result in backend.run_cells(cells):
                suite.add(result)
            return suite
        warnings.warn(
            f"jobs={jobs} ignored: suite contains ad-hoc kernels that are "
            "not registry members and cannot be shipped to workers; "
            "running serially", RuntimeWarning, stacklevel=2)
    for kernel, machine in pairs:
        suite.add(run_kernel(kernel, machine, config))
    return suite
