"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestKernels:
    def test_lists_suite(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "vec_sum" in out
        assert "me_tss" in out


class TestRun:
    def test_default_machine(self, capsys):
        assert main(["run", "vec_sum"]) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out
        assert "cycles" in out

    def test_zolc_machine_extras(self, capsys):
        assert main(["run", "vec_sum", "-m", "ZOLClite"]) == 0
        out = capsys.readouterr().out
        assert "task switches" in out
        assert "loops driven" in out

    def test_unknown_kernel(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_machine(self, capsys):
        assert main(["run", "vec_sum", "-m", "nope"]) == 2


class TestFigure2Jobs:
    def test_jobs_flag_parsed(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["figure2", "-j", "2"])
        assert args.jobs == 2

    def test_jobs_defaults_to_serial(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["figure2"])
        assert args.jobs is None

    def test_negative_jobs_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure2", "-j", "-3"])
        assert excinfo.value.code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err


class TestCompare:
    def test_all_machines_listed(self, capsys):
        assert main(["compare", "quantize"]) == 0
        out = capsys.readouterr().out
        for name in ("XRdefault", "XRhrdwil", "uZOLC", "ZOLClite",
                     "ZOLCfull"):
            assert name in out


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json
        assert main(["run", "vec_sum", "-m", "ZOLClite", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kernel"] == "vec_sum"
        assert record["machine"] == "ZOLClite"
        assert record["cycles"] > 0 and record["verified"]

    def test_compare_json(self, capsys):
        import json
        assert main(["compare", "vec_sum", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["machine"] for r in payload["records"]] == [
            "XRdefault", "XRhrdwil", "uZOLC", "ZOLClite", "ZOLCfull"]

    def test_run_out_file_keeps_text_stdout(self, capsys, tmp_path):
        import json
        out_file = tmp_path / "result.json"
        assert main(["run", "vec_sum", "-o", str(out_file)]) == 0
        assert "verified=True" in capsys.readouterr().out
        assert json.loads(out_file.read_text())["kernel"] == "vec_sum"

    def test_sweep_json(self, capsys):
        import json
        assert main(["sweep", "nesting", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameter"] == "depth"
        assert len(payload["points"]) == 6


class TestExperimentCommand:
    def _plan(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"name": "t", "kernels": ["vec_sum"],'
            ' "machines": ["XRdefault", "ZOLClite"]}')
        return plan

    def test_runs_plan_and_caches(self, capsys, tmp_path):
        import json
        plan = self._plan(tmp_path)
        store = str(tmp_path / "results")
        assert main(["experiment", str(plan), "--store", store,
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["simulated"] == 2 and first["cached"] == 0
        assert main(["experiment", str(plan), "--store", store,
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["simulated"] == 0 and second["cached"] == 2
        assert first["records"] == second["records"]

    def test_no_cache_bypasses_store(self, capsys, tmp_path):
        import json
        plan = self._plan(tmp_path)
        store = str(tmp_path / "results")
        assert main(["experiment", str(plan), "--store", store]) == 0
        capsys.readouterr()
        assert main(["experiment", str(plan), "--store", store,
                     "--no-cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["simulated"] == 2

    def test_text_report_mentions_cells(self, capsys, tmp_path):
        plan = self._plan(tmp_path)
        assert main(["experiment", str(plan), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out and "vec_sum" in out

    def _fake_run_plan(self, monkeypatch, seen):
        def fake_run_plan(plan, config):
            seen.update(jobs=config.jobs, engine=config.engine)

            class Empty:
                def to_dict(self):
                    return {}

                def render(self):
                    return ""
            return Empty()

        monkeypatch.setattr("repro.experiments.runner.run_plan",
                            fake_run_plan)

    def test_jobs_flag_reaches_the_config(self, tmp_path, monkeypatch):
        seen = {}
        self._fake_run_plan(monkeypatch, seen)
        plan = self._plan(tmp_path)
        assert main(["experiment", str(plan), "-j", "4"]) == 0
        assert seen == {"jobs": 4, "engine": None}

    def test_no_flags_defer_to_the_plan(self, tmp_path, monkeypatch):
        seen = {}
        self._fake_run_plan(monkeypatch, seen)
        assert main(["experiment", str(self._plan(tmp_path))]) == 0
        # None means "the plan's own jobs/engine keys decide".
        assert seen == {"jobs": None, "engine": None}

    def test_backend_flag_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", str(self._plan(tmp_path)),
                  "--backend", "process"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_engine_flag_overrides_the_plan(self, tmp_path, monkeypatch):
        seen = {}
        self._fake_run_plan(monkeypatch, seen)
        assert main(["experiment", str(self._plan(tmp_path)),
                     "--engine", "step"]) == 0
        assert seen == {"jobs": None, "engine": "step"}

    def test_plan_with_jobs_and_engine_keys_runs(self, capsys, tmp_path):
        import json
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"name": "t", "kernels": ["vec_sum"],'
            ' "machines": ["XRdefault"], "jobs": 1, "engine": "step"}')
        assert main(["experiment", str(plan), "--no-cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["simulated"] == 1

    def test_non_integer_jobs_exits_one(self, capsys, tmp_path):
        plan = self._plan(tmp_path)
        assert main(["experiment", str(plan), "-j", "many"]) == 1
        assert "jobs must be an integer" in capsys.readouterr().err

    def test_negative_jobs_exits_one(self, capsys, tmp_path):
        plan = self._plan(tmp_path)
        assert main(["experiment", str(plan), "-j", "-2"]) == 1
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_missing_plan_exits_one(self, capsys, tmp_path):
        assert main(["experiment", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_plan_exits_one(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"kernels": ["vec_sum"]}')
        assert main(["experiment", str(plan)]) == 1
        assert "missing key" in capsys.readouterr().err

    def test_unknown_engine_flag_exits_one(self, capsys, tmp_path):
        plan = self._plan(tmp_path)
        for engine in ("warp", "fast", "traced"):
            assert main(["experiment", str(plan), "--engine", engine]) == 1
            err = capsys.readouterr().err
            assert f"unknown engine '{engine}'; known: auto, step" in err

    def test_plan_with_unknown_engine_key_exits_one(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        for engine in ("warp", "fast", "traced"):
            plan.write_text(
                '{"name": "t", "kernels": ["vec_sum"],'
                f' "machines": ["XRdefault"], "engine": "{engine}"}}')
            assert main(["experiment", str(plan)]) == 1
            assert f"unknown engine '{engine}'" in capsys.readouterr().err

    def test_traced_engine_runs_plan(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.synth.strategies import spy_run_traced

        calls = spy_run_traced(monkeypatch)
        plan = self._plan(tmp_path)
        assert main(["experiment", str(plan), "--no-cache", "--json",
                     "--engine", "auto"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["simulated"] == 2
        assert calls == [True, True]


class TestRunEngineFlag:
    def test_every_engine_reports_identical_measurements(self, capsys):
        import json
        records = []
        for engine in ("auto", "step"):
            assert main(["run", "vec_sum", "-m", "ZOLClite", "--json",
                         "--engine", engine]) == 0
            records.append(json.loads(capsys.readouterr().out))
        assert all(record == records[0] for record in records[1:])

    def test_unknown_engine_exits_one(self, capsys):
        for engine in ("warp", "fast", "traced"):
            assert main(["run", "vec_sum", "--engine", engine]) == 1
            assert f"unknown engine '{engine}'; known: auto, step" \
                in capsys.readouterr().err

    def test_default_engine_resolves_to_traced(self, capsys, monkeypatch):
        """`repro run` without --engine rides the loop-resident tier."""
        from repro.synth.strategies import spy_run_traced

        calls = spy_run_traced(monkeypatch)
        assert main(["run", "vec_sum", "-m", "ZOLClite", "--json"]) == 0
        capsys.readouterr()
        assert calls == [True]

    def test_explicit_step_bypasses_traced(self, capsys, monkeypatch):
        from repro.synth.strategies import spy_run_traced

        calls = spy_run_traced(monkeypatch)
        assert main(["run", "vec_sum", "--json",
                     "--engine", "step"]) == 0
        capsys.readouterr()
        assert calls == []


class TestErrorHandling:
    def test_value_error_exits_one(self, capsys, monkeypatch):
        import repro.cli as cli
        monkeypatch.setattr(cli, "run_kernel",
                            lambda *a, **k: (_ for _ in ()).throw(
                                ValueError("bad argument")))
        assert main(["run", "vec_sum"]) == 1
        assert "bad argument" in capsys.readouterr().err

    def test_golden_check_failure_exits_one(self, capsys, monkeypatch):
        from repro.workloads.api import KernelCheckError
        import repro.cli as cli
        monkeypatch.setattr(cli, "run_kernel",
                            lambda *a, **k: (_ for _ in ()).throw(
                                KernelCheckError("output mismatch")))
        assert main(["run", "vec_sum"]) == 1
        err = capsys.readouterr().err
        assert "golden check failed" in err and "output mismatch" in err


class TestServeSubmit:
    def _plan(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"name": "t", "kernels": ["vec_sum"],'
                        ' "machines": ["XRdefault"]}')
        return plan

    @pytest.fixture()
    def service_url(self, tmp_path):
        from repro.experiments import SerialBackend
        from repro.service import JobManager, start_in_thread

        manager = JobManager(store=tmp_path / "results",
                             backend=SerialBackend())
        handle = start_in_thread(manager)
        try:
            yield handle.url
        finally:
            handle.stop()
            manager.close()

    @pytest.mark.parametrize("flags, kind, jobs, banner", [
        ([], "ProcessBackend", None, "workers: "),
        (["--jobs", "3"], "ProcessBackend", 3, "workers: 3)"),
        (["--jobs", "1"], "SerialBackend", None, "workers: in-process)"),
    ])
    def test_serve_jobs_picks_the_injected_backend(
            self, capsys, tmp_path, monkeypatch, flags, kind, jobs, banner):
        injected = []

        class Handle:
            url = "http://127.0.0.1:0"

            def join(self):
                pass

            def stop(self):
                pass

        def fake_start(manager, host, port):
            injected.append(manager.backend)
            return Handle()

        monkeypatch.setattr("repro.service.start_in_thread", fake_start)
        assert main(["serve", "--store", str(tmp_path)] + flags) == 0
        [backend] = injected
        assert type(backend).__name__ == kind
        if kind == "ProcessBackend":
            assert backend.persistent and backend.jobs == jobs
        assert banner in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--backend", "process"], "--backend"),
        (["submit", "plan.json", "--backend", "process"], "--backend"),
        (["submit", "plan.json", "--jobs", "2"], "--jobs"),
    ])
    def test_removed_worker_flags_are_gone(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_submit_twice_second_fully_cached(self, capsys, tmp_path,
                                              service_url):
        import json
        plan = self._plan(tmp_path)
        events_log = tmp_path / "events.ndjson"
        assert main(["submit", str(plan), "--url", service_url,
                     "--events-out", str(events_log), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["state"] == "done"
        assert first["events"] == {"simulated": 1}
        lines = [json.loads(line) for line in
                 events_log.read_text().splitlines()]
        assert lines[-1]["event"] == "done"
        assert main(["submit", str(plan), "--url", service_url,
                     "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["events"] == {"cached": 1}  # zero simulations
        assert second["result"]["records"] == first["result"]["records"]

    def test_submit_text_report(self, capsys, tmp_path, service_url):
        plan = self._plan(tmp_path)
        assert main(["submit", str(plan), "--url", service_url]) == 0
        out = capsys.readouterr().out
        assert "simulated    vec_sum on XRdefault" in out
        assert "1 simulated, 0 cached" in out

    def test_submit_unreachable_service_exits_one(self, capsys, tmp_path):
        plan = self._plan(tmp_path)
        assert main(["submit", str(plan),
                     "--url", "http://127.0.0.1:9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_bad_plan_suffix_exits_one(self, capsys, tmp_path,
                                              service_url):
        plan = tmp_path / "plan.yaml"
        plan.write_text("{}")
        assert main(["submit", str(plan), "--url", service_url]) == 1
        assert "must end in" in capsys.readouterr().err

    def test_submit_invalid_plan_body_exits_one(self, capsys, tmp_path,
                                                service_url):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        assert main(["submit", str(plan), "--url", service_url]) == 1
        assert "400" in capsys.readouterr().err


class TestReports:
    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "258" in out and "4428" in out

    def test_timing(self, capsys):
        assert main(["timing"]) == 0
        assert "170 MHz" in capsys.readouterr().out


class TestDisasm:
    def test_baseline(self, capsys):
        assert main(["disasm", "vec_sum"]) == 0
        out = capsys.readouterr().out
        assert "bne" in out

    def test_zolc_transformed(self, capsys):
        assert main(["disasm", "vec_sum", "-m", "ZOLClite"]) == 0
        out = capsys.readouterr().out
        assert "mtz" in out
        assert "bne" not in out


class TestExplore:
    def test_structure_report(self, capsys):
        assert main(["explore", "matmul"]) == 0
        out = capsys.readouterr().out
        assert "3 loops" in out
        assert "task" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCheck:
    def test_single_kernel(self, capsys):
        assert main(["check", "-k", "vec_sum", "-m", "ZOLClite"]) == 0
        out = capsys.readouterr().out
        assert "checked 1 kernels x 1 machines" in out
        assert "0 errors" in out

    def test_audit_flag(self, capsys):
        assert main(["check", "-k", "vec_sum", "-m", "ZOLCfull",
                     "--audit-codegen"]) == 0
        assert "(codegen audited)" in capsys.readouterr().out

    def test_info_hidden_unless_verbose(self, capsys):
        assert main(["check", "-k", "dct8x8", "-m", "ZOLCfull"]) == 0
        out = capsys.readouterr().out
        assert "[ZV003]" not in out
        assert main(["check", "-k", "dct8x8", "-m", "ZOLCfull",
                     "-v"]) == 0
        assert "[ZV003]" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        import json

        assert main(["check", "-k", "vec_sum", "-m", "ZOLClite",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernels"] == ["vec_sum"]
        assert payload["machines"] == ["ZOLClite"]
        assert payload["errors"] == 0
        assert isinstance(payload["diagnostics"], list)

    def test_out_file(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "diag.json"
        assert main(["check", "-k", "vec_sum", "-m", "XRdefault",
                     "-o", str(out_file)]) == 0
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        assert payload["errors"] == 0

    def test_kernel_and_all_conflict(self, capsys):
        assert main(["check", "-k", "vec_sum", "--all"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_kernel(self, capsys):
        assert main(["check", "-k", "nope"]) == 2
        assert "error" in capsys.readouterr().err
