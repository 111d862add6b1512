"""Unified experiment API.

The stable surface every study goes through::

    from repro.experiments import ExperimentSpec, RunConfig, run_experiment

    spec = ExperimentSpec(
        name="demo",
        kernels=("@figure2", "synth:branchy:0:8"),
        machines=(machine_by_name("XRdefault"), machine_by_name("ZOLClite")),
    )
    result = run_experiment(spec, RunConfig(backend="process", jobs=0,
                                            store="results"))
    print(result.render())

* :mod:`repro.experiments.config` — :class:`RunConfig`, the one
  mergeable value for every host-side execution choice;
* :mod:`repro.experiments.spec` — declarative, serializable plans
  (JSON/TOML plan files, sweep axes, kernel selectors);
* :mod:`repro.experiments.backends` — the :class:`ExecutionBackend`
  protocol with ``serial`` and ``process`` implementations;
* :mod:`repro.experiments.store` — the content-addressed
  :class:`ResultStore` under ``results/``;
* :mod:`repro.experiments.result` — tidy, JSON-ready
  :class:`ExperimentResult` records;
* :mod:`repro.experiments.runner` — :func:`run_experiment` /
  :func:`run_plan`, the single entry point.
"""

from repro.experiments.backends import (
    BACKENDS,
    Cell,
    CellCallback,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    get_backend,
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
    "BACKENDS",
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
    "get_backend",
    "load_plan",
    "parse_plan",
    "plan_cell_keys",
    "run_experiment",
    "run_plan",
]
