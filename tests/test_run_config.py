"""The unified RunConfig API.

One config value rides through ``run_kernel`` / ``run_suite`` /
``run_experiment`` / ``run_plan`` and the service submit body.  These
tests pin the validation errors, the dict round trip and that a plan
has no ``run_config`` section (its top-level keys say the same).
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
    run_experiment,
)
from repro.experiments.config import SUBMIT_RUN_CONFIG_FIELDS
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

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            RunConfig(jobs=-1)

    def test_zero_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            RunConfig(max_steps=0)

    def test_path_store_coerced_to_str(self):
        assert RunConfig(store=Path("results")).store == "results"


class TestConfigValues:
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

    @pytest.mark.parametrize("key, value", [("jobs", 2),
                                            ("backend", "process")])
    def test_submit_fields_leave_workers_to_the_server(self, key, value):
        with pytest.raises(ValueError,
                           match=f"unknown run_config key.*{key} "
                                 r"\(accepted: engine, max_steps\)"):
            RunConfig.from_dict({key: value},
                                allowed=SUBMIT_RUN_CONFIG_FIELDS)

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

    def test_run_kernel_measures_like_a_backend_cell(self):
        from repro.experiments import Cell

        machine = machine_by_name("ZOLClite")
        pipeline = PipelineConfig(branch_penalty=3)
        direct = run_kernel(registry().get("dot_product"), machine,
                            RunConfig(pipeline=pipeline, engine="step"))
        [cell] = SerialBackend().run_cells([Cell(
            kernel_name="dot_product", machine=machine,
            pipeline=pipeline, max_steps=None, engine="step")])
        assert direct.record() == cell.record()


class TestRunSuiteConfig:
    def test_config_engine_reaches_serial_cells(self, monkeypatch):
        from repro.synth.strategies import spy_run_traced

        calls = spy_run_traced(monkeypatch)
        kernels = [registry().get("vec_sum")]
        run_suite(kernels, [XR_DEFAULT], RunConfig(engine="step"))
        assert calls == []
        run_suite(kernels, [XR_DEFAULT], RunConfig(engine="auto"))
        assert calls and all(calls)

    def test_parallel_cells_take_the_config_choices(self, monkeypatch):
        shipped = []
        serial_run = SerialBackend.run_cells

        def in_process(self, cells, on_result=None):
            shipped.extend(cells)
            return serial_run(SerialBackend(), cells, on_result)

        monkeypatch.setattr(ProcessBackend, "run_cells", in_process)
        kernels = [registry().get(n) for n in ("vec_sum", "dot_product")]
        machines = [XR_DEFAULT, machine_by_name("ZOLClite")]
        config = RunConfig(jobs=2, engine="step", max_steps=500_000,
                           pipeline=PipelineConfig(branch_penalty=3))
        parallel = run_suite(kernels, machines, config)
        assert len(shipped) == 4
        assert {(c.pipeline, c.max_steps, c.engine) for c in shipped} \
            == {(config.pipeline, 500_000, "step")}
        serial = run_suite(kernels, machines, RunConfig(
            engine="step", max_steps=500_000, pipeline=config.pipeline))
        assert parallel.records() == serial.records()


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
        run_experiment(small_spec(), RunConfig(store=str(tmp_path)))
        result = run_experiment(small_spec(), RunConfig(
            store=str(tmp_path), cache=False))
        assert result.simulated == 1 and result.cached == 0


class TestPlanRunConfig:
    def _plan(self, **extra) -> dict:
        return {"name": "p", "kernels": ["vec_sum"],
                "machines": ["XRdefault"], **extra}

    def test_plan_keys_carry_host_side_choices(self):
        spec = ExperimentSpec.from_dict(self._plan(
            engine="step", jobs=2, max_steps=123))
        assert (spec.engine, spec.jobs, spec.max_steps) == ("step", 2, 123)

    def test_run_config_section_is_an_unknown_key(self):
        with pytest.raises(PlanError, match="unknown plan keys: "
                                            "run_config"):
            ExperimentSpec.from_dict(self._plan(
                run_config={"engine": "step"}))

    def test_removed_engine_values_are_plan_errors(self):
        for engine in ("fast", "traced"):
            with pytest.raises(PlanError, match=f"unknown engine '{engine}'"):
                ExperimentSpec.from_dict(self._plan(engine=engine))
