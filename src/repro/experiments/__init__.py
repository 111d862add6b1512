"""Unified experiment API.

The stable surface every study goes through::

    from repro.experiments import ExperimentSpec, RunConfig, run_experiment

    spec = ExperimentSpec(
        name="demo",
        kernels=("@figure2", "synth:branchy:0:8"),
        machines=(machine_by_name("XRdefault"), machine_by_name("ZOLClite")),
    )
    result = run_experiment(spec, RunConfig(jobs=0, store="results"))
    print(result.render())

``jobs`` is the one execution choice: ``None``/``1`` runs cells
in-process, ``0`` uses one worker per CPU, ``n`` uses ``n`` workers.
A backend passed as ``run_experiment(..., backend=...)`` decides its
own workers instead.

* :mod:`repro.experiments.config` — :class:`RunConfig`, the one
  value for every host-side execution choice;
* :mod:`repro.experiments.spec` — declarative, serializable plans
  (JSON/TOML plan files, sweep axes, kernel selectors);
* :mod:`repro.experiments.backends` — the :class:`ExecutionBackend`
  protocol with in-process :class:`SerialBackend` and process-pool
  :class:`ProcessBackend` implementations;
* :mod:`repro.experiments.store` — the content-addressed
  :class:`ResultStore` under ``results/``;
* :mod:`repro.experiments.result` — tidy, JSON-ready
  :class:`ExperimentResult` records;
* :mod:`repro.experiments.runner` — :func:`run_experiment` /
  :func:`run_plan`, the single entry point.
"""

from repro.experiments.backends import (
    Cell,
    CellCallback,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
)
from repro.experiments.config import RunConfig
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import plan_cell_keys, run_experiment, run_plan
from repro.experiments.spec import (
    ExperimentSpec,
    PlanError,
    SweepAxis,
    load_plan,
    parse_plan,
)
from repro.experiments.store import ResultStore, cell_key

__all__ = [
    "Cell",
    "CellCallback",
    "ExecutionBackend",
    "ExperimentResult",
    "ExperimentSpec",
    "PlanError",
    "ProcessBackend",
    "ResultStore",
    "RunConfig",
    "SerialBackend",
    "SweepAxis",
    "cell_key",
    "load_plan",
    "parse_plan",
    "plan_cell_keys",
    "run_experiment",
    "run_plan",
]
