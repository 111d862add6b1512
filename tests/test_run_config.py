"""The unified RunConfig API.

One config value rides through ``run_kernel`` / ``run_suite`` /
``run_experiment`` / ``run_plan``, plan files, backend construction
and the service submit body.  These tests pin the merge semantics
(``None`` defers), the validation errors and the plan ``run_config``
section (including the both-ways-ambiguous rejection).
"""

from pathlib import Path

import pytest

from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import XR_DEFAULT, machine_by_name
from repro.eval.runner import run_kernel, run_suite
from repro.experiments import (
    ExperimentSpec,
    PlanError,
    ProcessBackend,
    RunConfig,
    SerialBackend,
    get_backend,
    run_experiment,
)
from repro.workloads.suite import registry


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(name="rc", kernels=("vec_sum",),
                    machines=(machine_by_name("XRdefault"),))
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestValidation:
    def test_unknown_engine_rejected(self):
        for engine in ("warp", "fast", "traced"):
            with pytest.raises(ValueError,
                               match=f"unknown engine '{engine}'; "
                                     "known: auto, step"):
                RunConfig(engine=engine)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RunConfig(backend="gpu")

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            RunConfig(jobs=-1)

    def test_zero_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            RunConfig(max_steps=0)

    def test_path_store_coerced_to_str(self):
        assert RunConfig(store=Path("results")).store == "results"


class TestMerging:
    def test_override_replaces_only_set_choices(self):
        base = RunConfig(engine="auto", jobs=2)
        merged = base.override(jobs=4, backend=None)
        assert merged == RunConfig(engine="auto", jobs=4)

    def test_merged_over_set_fields_win(self):
        override = RunConfig(engine="step")
        base = RunConfig(engine="auto", jobs=3)
        assert override.merged_over(base) == RunConfig(engine="step",
                                                       jobs=3)

    def test_dict_roundtrip_with_pipeline(self):
        config = RunConfig(engine="step", jobs=2, max_steps=99,
                           pipeline=PipelineConfig(branch_penalty=3))
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown run_config key"):
            RunConfig.from_dict({"engine": "step", "threads": 2})

    def test_from_dict_allowed_restricts_further(self):
        with pytest.raises(ValueError, match="accepted: engine"):
            RunConfig.from_dict({"store": "x"}, allowed=("engine",))

    def test_resolved_store_tri_state(self, tmp_path):
        assert RunConfig().resolved_store() is None
        assert RunConfig(store=str(tmp_path),
                         cache=False).resolved_store() is None
        store = RunConfig(store=str(tmp_path)).resolved_store()
        assert store is not None and Path(store.root) == tmp_path


class TestRunKernelConfig:
    def test_config_max_steps_budget_enforced(self):
        from repro.cpu import WatchdogError

        kernel = registry().get("vec_sum")
        with pytest.raises(WatchdogError):
            run_kernel(kernel, XR_DEFAULT, RunConfig(max_steps=5))


class TestRunSuiteConfig:
    def test_config_engine_reaches_serial_cells(self, monkeypatch):
        from repro.synth.strategies import spy_run_traced

        calls = spy_run_traced(monkeypatch)
        kernels = [registry().get("vec_sum")]
        run_suite(kernels, [XR_DEFAULT], RunConfig(engine="step"))
        assert calls == []
        run_suite(kernels, [XR_DEFAULT], RunConfig(engine="auto"))
        assert calls and all(calls)


class TestRunExperimentConfig:
    def test_backend_instance_stays_undeprecated(self, recwarn):
        result = run_experiment(small_spec(), backend=SerialBackend())
        assert result.simulated == 1
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_wrong_config_type_is_a_type_error(self):
        with pytest.raises(TypeError, match="must be a RunConfig"):
            run_experiment(small_spec(), 42)

    def test_config_overrides_fold_into_the_spec(self, monkeypatch):
        from repro.synth.strategies import spy_run_traced

        calls = spy_run_traced(monkeypatch)
        run_experiment(small_spec(engine="step"),
                       RunConfig(engine="auto"))
        assert calls and all(calls)

    def test_cache_false_bypasses_the_store(self, tmp_path):
        config = RunConfig(store=str(tmp_path))
        run_experiment(small_spec(), config)
        result = run_experiment(small_spec(),
                                config.override(cache=False))
        assert result.simulated == 1 and result.cached == 0


class TestBackendConstruction:
    def test_get_backend_from_config(self):
        backend = get_backend(config=RunConfig(backend="process", jobs=3))
        assert isinstance(backend, ProcessBackend) and backend.jobs == 3

    def test_get_backend_defaults_to_serial(self):
        assert get_backend().name == "serial"

    def test_explicit_args_beat_the_config(self):
        backend = get_backend("process",
                              config=RunConfig(backend="serial", jobs=2))
        assert isinstance(backend, ProcessBackend) and backend.jobs == 2

    def test_backends_take_config_jobs(self):
        assert ProcessBackend(config=RunConfig(jobs=5)).jobs == 5


class TestPlanRunConfig:
    def _plan(self, **extra) -> dict:
        return {"name": "p", "kernels": ["vec_sum"],
                "machines": ["XRdefault"], **extra}

    def test_run_config_section_feeds_plan_defaults(self):
        spec = ExperimentSpec.from_dict(self._plan(
            run_config={"engine": "step", "jobs": 2, "backend": "process",
                        "max_steps": 123}))
        assert (spec.engine, spec.jobs, spec.backend, spec.max_steps) \
            == ("step", 2, "process", 123)

    def test_top_level_keys_beat_the_section(self):
        spec = ExperimentSpec.from_dict(self._plan(
            engine="step", run_config={"jobs": 2}))
        assert spec.engine == "step" and spec.jobs == 2

    def test_key_set_both_ways_is_ambiguous(self):
        with pytest.raises(PlanError, match="both top-level"):
            ExperimentSpec.from_dict(self._plan(
                engine="step", run_config={"engine": "auto"}))

    def test_removed_engine_values_are_plan_errors(self):
        for engine in ("fast", "traced"):
            with pytest.raises(PlanError, match=f"unknown engine '{engine}'"):
                ExperimentSpec.from_dict(self._plan(engine=engine))
            with pytest.raises(PlanError, match=f"unknown engine '{engine}'"):
                ExperimentSpec.from_dict(self._plan(
                    run_config={"engine": engine}))

    def test_disallowed_section_key_is_a_plan_error(self):
        with pytest.raises(PlanError, match="bad plan run_config"):
            ExperimentSpec.from_dict(self._plan(
                run_config={"store": "results"}))
