"""The unified experiment API: specs, plan files, backends, store."""

import json

import pytest

from repro.core.config import ZolcConfig
from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import (
    M_ZOLC_LITE,
    MachineRegistry,
    MachineSpec,
    XR_DEFAULT,
    machine_by_name,
)
from repro.eval.runner import run_kernel
from repro.experiments import (
    Cell,
    ExperimentSpec,
    PlanError,
    ProcessBackend,
    ResultStore,
    RunConfig,
    SerialBackend,
    SweepAxis,
    cell_key,
    load_plan,
    parse_plan,
    run_experiment,
    run_plan,
)
from repro.workloads.suite import FIGURE2_BENCHMARKS, registry

CUSTOM_ZOLC = ZolcConfig(name="ZOLCtest", max_loops=2, max_task_entries=8,
                         entries_per_loop=1, multi_entry_exit=False)


def _spy_backends(monkeypatch) -> list:
    """Record which backend runs cells: ``"serial"``, or ``("process",
    workers)``.  Every cell still runs in-process."""
    seen = []
    serial_run = SerialBackend.run_cells

    def serial(self, cells, on_result=None):
        seen.append("serial")
        return serial_run(self, cells, on_result)

    def process(self, cells, on_result=None):
        seen.append(("process", self.worker_count()))
        return serial_run(SerialBackend(), cells, on_result)

    monkeypatch.setattr(SerialBackend, "run_cells", serial)
    monkeypatch.setattr(ProcessBackend, "run_cells", process)
    return seen


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(name="small", kernels=("vec_sum", "dot_product"),
                    machines=(XR_DEFAULT, M_ZOLC_LITE))
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestMachineSpec:
    def test_round_trips_through_dict(self):
        spec = MachineSpec("custom", "zolc", CUSTOM_ZOLC)
        assert MachineSpec.from_dict(spec.to_dict()) == spec

    def test_from_registry_name(self):
        assert MachineSpec.from_dict("ZOLClite") is M_ZOLC_LITE

    def test_from_dict_with_canonical_config_name(self):
        spec = MachineSpec.from_dict(
            {"name": "mylite", "kind": "zolc", "zolc": "ZOLClite"})
        assert spec.zolc_config is M_ZOLC_LITE.zolc_config

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown machine kind"):
            MachineSpec("x", "quantum")

    def test_zolc_kind_requires_config(self):
        with pytest.raises(ValueError, match="needs a zolc_config"):
            MachineSpec("x", "zolc")

    def test_bad_zolc_params_rejected(self):
        with pytest.raises(ValueError, match="bad zolc config"):
            MachineSpec.from_dict(
                {"name": "x", "kind": "zolc", "zolc": {"bogus": 1}})

    def test_registry_rejects_conflicting_reregistration(self):
        reg = MachineRegistry()
        reg.register(XR_DEFAULT)
        reg.register(XR_DEFAULT)  # identical re-registration is fine
        with pytest.raises(ValueError, match="already registered"):
            reg.register(MachineSpec("XRdefault", "hwlp"))
        assert reg.get("xrdefault") is XR_DEFAULT
        assert reg.names() == ["XRdefault"]


class TestSweepAxis:
    def test_fields_default_to_name(self):
        axis = SweepAxis("branch_penalty", (0, 1))
        assert axis.fields == ("branch_penalty",)

    def test_unknown_pipeline_field_rejected(self):
        with pytest.raises(ValueError, match="not a PipelineConfig field"):
            SweepAxis("x", (1,), fields=("warp_factor",))

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepAxis("branch_penalty", ())


class TestExperimentSpec:
    def test_round_trips_through_json(self):
        spec = small_spec(
            machines=(XR_DEFAULT, MachineSpec("c", "zolc", CUSTOM_ZOLC)),
            pipeline=PipelineConfig(branch_penalty=2),
            sweep=(SweepAxis("load_use_stall", (0, 1)),),
            repeats=2, max_steps=1000)
        assert ExperimentSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_plan_backend_key_rejected_naming_accepted_keys(self):
        # `jobs` alone says where cells run; a plan naming a backend
        # fails like any other unknown key.
        spec = ExperimentSpec.from_dict(
            {"name": "t", "kernels": ["vec_sum"],
             "machines": ["XRdefault"], "jobs": 4})
        assert spec.jobs == 4
        with pytest.raises(PlanError, match=r"unknown plan keys: backend "
                                            r"\(accepted: name, .*jobs"):
            ExperimentSpec.from_dict(
                {"name": "t", "kernels": ["vec_sum"],
                 "machines": ["XRdefault"], "jobs": 4,
                 "backend": "serial"})

    def test_jobs_engine_round_trip(self):
        spec = small_spec(jobs=2, engine="step")
        restored = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert restored == spec
        assert (restored.jobs, restored.engine) == (2, "step")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            small_spec(engine="turbo")

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            small_spec(jobs=-1)

    def test_kernel_selectors_expand(self):
        spec = small_spec(kernels=("@figure2", "vec_sum"))
        assert spec.kernel_names() == list(FIGURE2_BENCHMARKS)
        everything = small_spec(kernels=("@all",)).kernel_names()
        assert set(everything) == set(registry().names())

    def test_unknown_kernel_rejected_at_expansion(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            small_spec(kernels=("nope",)).kernel_names()

    def test_axis_points_cross_product(self):
        spec = small_spec(sweep=(
            SweepAxis("branch_penalty", (0, 1)),
            SweepAxis("load_use_stall", (1, 2)),
        ))
        assert spec.axis_points() == [
            {"branch_penalty": 0, "load_use_stall": 1},
            {"branch_penalty": 0, "load_use_stall": 2},
            {"branch_penalty": 1, "load_use_stall": 1},
            {"branch_penalty": 1, "load_use_stall": 2},
        ]

    def test_pipeline_for_applies_all_axis_fields(self):
        spec = small_spec(sweep=(SweepAxis(
            "penalty", (3,),
            fields=("branch_penalty", "jump_register_penalty")),))
        pipeline = spec.pipeline_for({"penalty": 3})
        assert pipeline.branch_penalty == 3
        assert pipeline.jump_register_penalty == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="no kernels"):
            ExperimentSpec(name="x", kernels=(), machines=(XR_DEFAULT,))
        with pytest.raises(ValueError, match="no machines"):
            ExperimentSpec(name="x", kernels=("vec_sum",), machines=())
        with pytest.raises(ValueError, match="repeats"):
            small_spec(repeats=0)
        with pytest.raises(ValueError, match="duplicate sweep axis"):
            small_spec(sweep=(SweepAxis("branch_penalty", (0,)),
                              SweepAxis("branch_penalty", (1,))))


class TestPlanParsing:
    def test_json_and_toml_agree(self):
        as_json = parse_plan(json.dumps({
            "name": "p", "kernels": ["vec_sum"],
            "machines": ["XRdefault"]}), "json")
        as_toml = parse_plan(
            'name = "p"\nkernels = ["vec_sum"]\nmachines = ["XRdefault"]\n',
            "toml")
        assert as_json == as_toml

    def test_invalid_json_is_plan_error(self):
        with pytest.raises(PlanError, match="invalid JSON"):
            parse_plan("{nope", "json")

    def test_unknown_keys_rejected(self):
        with pytest.raises(PlanError, match="unknown plan keys"):
            parse_plan(json.dumps({"kernels": ["vec_sum"],
                                   "machines": ["XRdefault"],
                                   "shards": 4}), "json")

    def test_missing_machines_rejected(self):
        with pytest.raises(PlanError, match="missing key"):
            parse_plan(json.dumps({"kernels": ["vec_sum"]}), "json")

    def test_string_kernels_rejected_not_iterated(self):
        with pytest.raises(PlanError, match="'kernels' must be a list"):
            parse_plan(json.dumps({"kernels": "vec_sum",
                                   "machines": ["XRdefault"]}), "json")

    def test_string_machines_rejected_not_iterated(self):
        with pytest.raises(PlanError, match="'machines' must be a list"):
            parse_plan(json.dumps({"kernels": ["vec_sum"],
                                   "machines": "XRdefault"}), "json")

    def test_load_plan_rejects_unknown_suffix(self, tmp_path):
        plan = tmp_path / "plan.yaml"
        plan.write_text("{}")
        with pytest.raises(PlanError, match="must end in"):
            load_plan(plan)

    def test_example_plans_load(self):
        fig2 = load_plan("examples/figure2_plan.json")
        assert fig2.kernel_names() == list(FIGURE2_BENCHMARKS)
        assert [m.name for m in fig2.machines] == [
            "XRdefault", "XRhrdwil", "ZOLClite"]
        smoke = load_plan("examples/smoke_plan.toml")
        assert smoke.machines[1].zolc_config.max_loops == 4
        assert smoke.sweep[0].fields == ("branch_penalty",
                                         "jump_register_penalty")


class TestResultStore:
    def test_key_changes_with_every_input(self):
        base = cell_key("k", "src", M_ZOLC_LITE, PipelineConfig(), 100)
        assert cell_key("k", "src", M_ZOLC_LITE, PipelineConfig(), 100) == base
        variants = [
            cell_key("k", "src2", M_ZOLC_LITE, PipelineConfig(), 100),
            cell_key("k", "src", XR_DEFAULT, PipelineConfig(), 100),
            cell_key("k", "src", M_ZOLC_LITE,
                     PipelineConfig(branch_penalty=2), 100),
            cell_key("k", "src", M_ZOLC_LITE, PipelineConfig(), 200),
            cell_key("k", "src", M_ZOLC_LITE, PipelineConfig(), 100,
                     repeat=1),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_save_load_round_trip(self, tmp_path):
        from repro.experiments.result import MEASUREMENT_COLUMNS

        record = {column: 7 for column in MEASUREMENT_COLUMNS}
        store = ResultStore(tmp_path)
        assert store.load("ab" * 32) is None
        store.save("ab" * 32, record)
        assert store.load("ab" * 32) == record
        assert len(store) == 1

    def test_corrupt_cell_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("cd" * 32, {"cycles": 1})
        next(tmp_path.glob("*/*.json")).write_text("{truncated")
        assert store.load("cd" * 32) is None

    def test_incomplete_cell_is_a_miss(self, tmp_path):
        # A record missing required measurement columns (e.g. from a
        # writer that died mid-record under the old shared-tmp scheme)
        # is re-simulated, never served.
        store = ResultStore(tmp_path)
        store.save("ef" * 32, {"cycles": 1})
        assert store.load("ef" * 32) is None


class TestRunExperiment:
    def test_matches_direct_run_kernel(self):
        result = run_experiment(small_spec())
        reg = registry()
        for kernel in ("vec_sum", "dot_product"):
            for machine in (XR_DEFAULT, M_ZOLC_LITE):
                direct = run_kernel(reg.get(kernel), machine)
                record = result.get(kernel, machine.name)
                assert record["cycles"] == direct.cycles
                assert record["instructions"] == direct.instructions

    def test_second_run_fully_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_experiment(small_spec(), store=store)
        second = run_experiment(small_spec(), store=store)
        assert first.simulated == 4 and first.cached == 0
        assert second.simulated == 0 and second.cached == 4
        assert first.records == second.records

    def test_kernel_source_change_invalidates_only_that_kernel(
            self, tmp_path, monkeypatch):
        run_experiment(small_spec(), store=ResultStore(tmp_path))
        kernel = registry().get("vec_sum")
        monkeypatch.setattr(kernel, "source", kernel.source + "\n")
        rerun = run_experiment(small_spec(), store=ResultStore(tmp_path))
        assert rerun.simulated == 2  # vec_sum on both machines
        assert rerun.cached == 2

    def test_process_backend_matches_serial_with_custom_machine(self):
        spec = small_spec(machines=(
            XR_DEFAULT, MachineSpec("ZOLCtest", "zolc", CUSTOM_ZOLC)))
        serial = run_experiment(spec)
        process = run_experiment(spec, RunConfig(jobs=2))
        assert serial.records == process.records
        assert process.get("vec_sum", "ZOLCtest")["verified"]

    def test_repeats_simulate_once_but_record_each(self, tmp_path):
        spec = small_spec(kernels=("vec_sum",), machines=(XR_DEFAULT,),
                          repeats=3)
        result = run_experiment(spec, store=ResultStore(tmp_path))
        assert len(result.records) == 3
        assert result.simulated == 1 and result.deduplicated == 2
        assert result.cached == 0  # nothing came from the store this run
        assert [r["repeat"] for r in result.records] == [0, 1, 2]
        rerun = run_experiment(spec, store=ResultStore(tmp_path))
        assert rerun.simulated == 0 and rerun.cached == 3

    def test_repeats_without_store_report_no_cache_hits(self):
        spec = small_spec(kernels=("vec_sum",), machines=(XR_DEFAULT,),
                          repeats=3)
        result = run_experiment(spec, store=None)
        assert result.cached == 0
        assert result.simulated == 1 and result.deduplicated == 2
        assert "2 deduplicated" in result.render()

    def test_sweep_axis_columns_present(self):
        spec = small_spec(kernels=("vec_sum",), machines=(XR_DEFAULT,),
                          sweep=(SweepAxis("branch_penalty", (0, 2)),))
        result = run_experiment(spec)
        assert result.axes == ("branch_penalty",)
        cheap = result.get("vec_sum", "XRdefault", branch_penalty=0)
        dear = result.get("vec_sum", "XRdefault", branch_penalty=2)
        assert dear["cycles"] > cheap["cycles"]
        assert result.select(branch_penalty=2) == [dear]

    def test_result_round_trips_to_json(self):
        result = run_experiment(small_spec(kernels=("vec_sum",),
                                           machines=(XR_DEFAULT,)))
        payload = json.loads(result.to_json())
        assert payload["records"][0]["kernel"] == "vec_sum"
        assert payload["simulated"] == 1
        assert "cycles" in payload["records"][0]

    def test_render_mentions_cache_counts(self, tmp_path):
        result = run_experiment(small_spec(), store=ResultStore(tmp_path))
        text = result.render()
        assert "4 simulated, 0 cached" in text
        assert "vec_sum" in text and "ZOLClite" in text

    def test_backend_instance_accepted(self):
        backend = ProcessBackend(jobs=2)
        result = run_experiment(small_spec(kernels=("vec_sum",)),
                                backend=backend)
        assert result.simulated == 2

    def test_spec_jobs_honoured_when_caller_defers(self, monkeypatch):
        seen = _spy_backends(monkeypatch)
        run_experiment(small_spec(kernels=("vec_sum",), jobs=2))
        assert seen == [("process", 2)]

    def test_caller_jobs_override_spec(self, monkeypatch):
        seen = _spy_backends(monkeypatch)
        run_experiment(small_spec(kernels=("vec_sum",), jobs=4),
                       RunConfig(jobs=1))
        assert seen == ["serial"]

    def test_config_jobs_reaches_a_pool_without_warning(self, monkeypatch):
        import warnings

        seen = _spy_backends(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_experiment(small_spec(kernels=("vec_sum",)),
                                    RunConfig(jobs=2))
        assert seen == [("process", 2)]
        assert result.simulated == 2

    def test_zero_jobs_uses_one_worker_per_cpu(self, monkeypatch):
        import os

        seen = _spy_backends(monkeypatch)
        run_experiment(small_spec(kernels=("vec_sum",)), RunConfig(jobs=0))
        assert seen == [("process", os.cpu_count() or 1)]

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_no_workers_runs_in_process(self, monkeypatch, jobs):
        def no_pool(self, *args, **kwargs):
            raise AssertionError("built a ProcessBackend")

        seen = _spy_backends(monkeypatch)
        monkeypatch.setattr(ProcessBackend, "__init__", no_pool)
        run_experiment(small_spec(kernels=("vec_sum",)),
                       RunConfig(jobs=jobs))
        assert seen == ["serial"]

    def test_injected_backend_decides_its_own_workers(self, monkeypatch):
        import warnings

        seen = _spy_backends(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_experiment(small_spec(kernels=("vec_sum",), jobs=4),
                           RunConfig(jobs=2), backend=SerialBackend())
        assert seen == ["serial"]

    def test_engine_choice_is_bit_identical_and_cache_compatible(
            self, tmp_path):
        store = ResultStore(tmp_path)
        auto = run_experiment(small_spec(engine="auto"), store=store)
        stepped = run_experiment(small_spec(engine="step"), store=store)
        assert auto.records == stepped.records
        # Engines share cache identity: the stepped rerun is all hits.
        assert stepped.simulated == 0 and stepped.cached == 4

    def test_traced_engine_plan_key_is_bit_identical(self):
        # The default `auto` plan key runs the traced run loop.
        traced = run_experiment(small_spec(engine="auto"))
        stepped = run_experiment(small_spec(engine="step"))
        assert traced.records == stepped.records

    def test_engine_override_beats_the_spec(self):
        base = run_experiment(small_spec(engine="step"))
        overridden = run_experiment(small_spec(engine="step"),
                                    RunConfig(engine="auto"))
        assert overridden.records == base.records

    def test_unknown_engine_override_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_experiment(small_spec(), RunConfig(engine="warp"))

    def test_auto_engine_resolves_to_traced(self, monkeypatch):
        """The spec's default `auto` rides the loop-resident tier."""
        from repro.synth.strategies import spy_run_traced

        spec = small_spec()
        assert spec.engine == "auto"
        calls = spy_run_traced(monkeypatch)
        result = run_experiment(spec)
        assert result.simulated > 0
        assert calls and all(calls)

    def test_explicit_step_engine_bypasses_traced(self, monkeypatch):
        from repro.synth.strategies import spy_run_traced

        calls = spy_run_traced(monkeypatch)
        run_experiment(small_spec(engine="step"))
        assert calls == []

    def test_plan_file_auto_engine_resolves_to_traced(self, tmp_path,
                                                      monkeypatch):
        from repro.synth.strategies import spy_run_traced

        plan = tmp_path / "plan.json"
        plan.write_text(small_spec().to_json())
        spec = load_plan(plan)
        assert spec.engine == "auto"   # round-trips through the file
        calls = spy_run_traced(monkeypatch)
        run_plan(plan)
        assert calls and all(calls)


class TestIncrementalPersistence:
    """A fault late in a run must not discard completed cells."""

    def test_crash_keeps_completed_cells(self, tmp_path, monkeypatch):
        import repro.experiments.backends as backends_module

        real = backends_module._run_cell
        completed = []

        def flaky(cell):
            if len(completed) == 2:
                raise RuntimeError("crash in cell 3 of 4")
            completed.append(cell.kernel_name)
            return real(cell)

        monkeypatch.setattr(backends_module, "_run_cell", flaky)
        with pytest.raises(RuntimeError, match="crash in cell 3"):
            run_experiment(small_spec(), store=ResultStore(tmp_path))
        # The two cells that finished were persisted as they arrived.
        assert len(ResultStore(tmp_path)) == 2
        # The rerun resumes: only the lost cells re-simulate.
        monkeypatch.setattr(backends_module, "_run_cell", real)
        resumed = run_experiment(small_spec(), store=ResultStore(tmp_path))
        assert resumed.simulated == 2 and resumed.cached == 2
        # And the final records match a clean run.
        assert resumed.records == run_experiment(small_spec()).records

    def test_failed_cell_emits_failed_event(self, tmp_path, monkeypatch):
        import repro.experiments.backends as backends_module

        def exploding(cell):
            raise RuntimeError("sim fault")

        monkeypatch.setattr(backends_module, "_run_cell", exploding)
        events = []
        with pytest.raises(RuntimeError, match="sim fault"):
            run_experiment(small_spec(kernels=("vec_sum",),
                                      machines=(XR_DEFAULT,)),
                           store=ResultStore(tmp_path),
                           progress=events.append)
        assert [e["source"] for e in events] == ["failed"]
        assert "sim fault" in events[0]["error"]


class TestProgressEvents:
    """The per-cell event contract the service streams as NDJSON."""

    def test_every_planned_cell_gets_one_event(self, tmp_path):
        spec = small_spec(repeats=2)  # 8 planned cells, 4 unique
        events = []
        run_experiment(spec, store=ResultStore(tmp_path),
                       progress=events.append)
        sources = [e["source"] for e in events]
        assert sources.count("simulated") == 4
        assert sources.count("deduplicated") == 4
        assert all(e["event"] == "cell" and e["key"] for e in events)
        rerun_events = []
        run_experiment(spec, store=ResultStore(tmp_path),
                       progress=rerun_events.append)
        assert [e["source"] for e in rerun_events] == ["cached"] * 8

    def test_events_carry_identity_columns(self):
        spec = small_spec(kernels=("vec_sum",), machines=(XR_DEFAULT,),
                          sweep=(SweepAxis("branch_penalty", (0, 2)),))
        events = []
        run_experiment(spec, progress=events.append)
        assert {e["axes"]["branch_penalty"] for e in events} == {0, 2}
        assert all(e["kernel"] == "vec_sum"
                   and e["machine"] == "XRdefault"
                   and e["repeat"] == 0 for e in events)


class TestRunPlan:
    def test_plan_file_run_and_rerun(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(small_spec().to_json())
        config = RunConfig(store=str(tmp_path / "results"))
        first = run_plan(plan, config)
        second = run_plan(plan, config)
        assert first.simulated == 4
        assert second.simulated == 0  # acceptance: zero re-simulated cells
        assert first.records == second.records


class TestFigure2Equivalence:
    """Acceptance: the redesigned figure2 path reproduces the old cells."""

    def test_figure2_matches_direct_runs(self, fig2_kernels):
        from repro.eval.figures import figure2
        from repro.eval.machines import FIGURE2_MACHINES

        data = figure2()
        reg = registry()
        direct = {(k.name, m.name): run_kernel(reg.get(k.name), m).cycles
                  for k in fig2_kernels for m in FIGURE2_MACHINES}
        assert len(data.rows) == 12
        for row in data.rows:
            assert row.cycles_default == direct[(row.benchmark, "XRdefault")]
            assert row.cycles_hrdwil == direct[(row.benchmark, "XRhrdwil")]
            assert row.cycles_zolc == direct[(row.benchmark, "ZOLClite")]

    def test_figure2_plan_file_matches_figure2(self, tmp_path):
        from repro.eval.figures import figure2, figure2_from_result

        data = figure2()
        config = RunConfig(store=str(tmp_path / "results"))
        result = run_plan("examples/figure2_plan.json", config)
        from_plan = figure2_from_result(result)
        assert from_plan.rows == data.rows
        rerun = run_plan("examples/figure2_plan.json", config)
        assert rerun.simulated == 0


class TestCellProtocol:
    def test_cell_is_picklable(self):
        import pickle

        cell = Cell("vec_sum", MachineSpec("c", "zolc", CUSTOM_ZOLC),
                    PipelineConfig(), 1000)
        assert pickle.loads(pickle.dumps(cell)) == cell
