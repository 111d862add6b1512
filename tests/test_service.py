"""`repro serve`: job manager semantics and the HTTP front end.

The JobManager tests pin the lifecycle contracts in isolation
(single-flight coalescing, event buffering, failure isolation); the
HTTP tests run a real server on an ephemeral port and drive it through
the same stdlib client `repro submit` uses.
"""

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.eval.machines import M_ZOLC_LITE, XR_DEFAULT
from repro.experiments import ExperimentSpec, RunConfig, SerialBackend
from repro.service import (
    JobManager,
    ServiceClient,
    ServiceError,
    plan_fingerprint,
    start_in_thread,
)


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(name="tiny", kernels=("vec_sum",),
                    machines=(XR_DEFAULT,))
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestPlanFingerprint:
    def test_host_side_choices_do_not_change_identity(self):
        base = plan_fingerprint(tiny_spec())
        assert plan_fingerprint(tiny_spec(engine="step")) == base
        assert plan_fingerprint(tiny_spec(jobs=4)) == base

    def test_measured_content_does(self):
        base = plan_fingerprint(tiny_spec())
        assert plan_fingerprint(tiny_spec(machines=(M_ZOLC_LITE,))) != base
        assert plan_fingerprint(tiny_spec(max_steps=500)) != base
        assert plan_fingerprint(tiny_spec(repeats=2)) != base


class TestJobManager:
    def test_submit_runs_to_done_with_events(self, tmp_path):
        with JobManager(store=tmp_path,
                        backend=SerialBackend()) as manager:
            job, coalesced = manager.submit(tiny_spec())
            assert not coalesced
            manager.wait(job.id, timeout=60)
            assert job.state == "done"
            assert job.result.simulated == 1
            cell_events = [e for e in job.events if e["event"] == "cell"]
            assert [e["source"] for e in cell_events] == ["simulated"]
            assert job.events[-1]["event"] == "done"
            assert job.summary()["records"] == 1

    def test_second_submission_serves_from_store(self, tmp_path):
        with JobManager(store=tmp_path,
                        backend=SerialBackend()) as manager:
            first, _ = manager.submit(tiny_spec())
            manager.wait(first.id, timeout=60)
            second, coalesced = manager.submit(tiny_spec())
            assert not coalesced  # completed jobs never coalesce
            assert second.id != first.id
            manager.wait(second.id, timeout=60)
            assert second.result.simulated == 0
            assert second.result.cached == 1

    def test_inflight_twins_coalesce_single_flight(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()
        runs = []

        def gated_runner(spec, **kwargs):
            runs.append(spec.name)
            started.set()
            assert gate.wait(timeout=60)
            from repro.experiments import run_experiment
            return run_experiment(spec, store=kwargs.get("store"),
                                  progress=kwargs.get("progress"))

        with JobManager(store=tmp_path, runner=gated_runner) as manager:
            job, coalesced = manager.submit(tiny_spec())
            assert started.wait(timeout=60)
            twin, twin_coalesced = manager.submit(tiny_spec())
            other, other_coalesced = manager.submit(
                tiny_spec(name="other", machines=(M_ZOLC_LITE,)))
            gate.set()
            manager.wait(job.id, timeout=60)
            manager.wait(other.id, timeout=60)
        assert not coalesced and twin_coalesced and not other_coalesced
        assert twin.id == job.id  # the duplicate shares the running job
        assert other.id != job.id  # a different plan does not
        assert runs.count("tiny") == 1  # single-flight: one simulation

    def test_failed_job_is_isolated_and_reported(self, tmp_path):
        def exploding_runner(spec, **kwargs):
            raise RuntimeError("backend down")

        with JobManager(store=tmp_path, runner=exploding_runner) as manager:
            job, _ = manager.submit(tiny_spec())
            manager.wait(job.id, timeout=60)
            assert job.state == "failed"
            assert "backend down" in job.error
            assert job.events[-1]["event"] == "failed"
            # The manager survives: the next job runs normally.
            events, finished = manager.events_since(job.id, 0, timeout=1)
            assert finished and events[-1]["event"] == "failed"

    def test_events_since_paginates(self, tmp_path):
        with JobManager(store=tmp_path,
                        backend=SerialBackend()) as manager:
            job, _ = manager.submit(tiny_spec(repeats=3))
            manager.wait(job.id, timeout=60)
            first, finished_early = manager.events_since(job.id, 0,
                                                         timeout=1)
            assert finished_early
            again, finished = manager.events_since(job.id, len(first),
                                                   timeout=0.1)
            assert again == [] and finished
            sources = [e["source"] for e in first if e["event"] == "cell"]
            assert sources.count("simulated") == 1
            assert sources.count("deduplicated") == 2

    def test_unknown_job_raises(self, tmp_path):
        with JobManager(store=tmp_path,
                        backend=SerialBackend()) as manager:
            with pytest.raises(KeyError, match="unknown job"):
                manager.get("nope")

    def test_closed_manager_refuses_submissions(self, tmp_path):
        manager = JobManager(store=tmp_path, backend=SerialBackend())
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.submit(tiny_spec())


@pytest.fixture()
def service(tmp_path):
    manager = JobManager(store=tmp_path / "results",
                         backend=SerialBackend())
    handle = start_in_thread(manager)
    try:
        yield ServiceClient(handle.url)
    finally:
        handle.stop()
        manager.close()


class TestHttpService:
    def test_healthz(self, service):
        health = service.health()
        assert health["ok"] and health["jobs"] == 0

    def test_submit_stream_result_roundtrip(self, service):
        payload = service.run(tiny_spec().to_json(), "json")
        assert payload["state"] == "done"
        assert payload["events"] == {"simulated": 1}
        records = payload["result"]["records"]
        assert records[0]["kernel"] == "vec_sum" and records[0]["verified"]

        again = service.run(tiny_spec().to_json(), "json")
        assert again["state"] == "done"
        assert again["events"] == {"cached": 1}  # zero simulations
        assert again["result"]["records"] == records

    def test_toml_plan_body(self, service):
        plan = ('name = "toml-tiny"\nkernels = ["vec_sum"]\n'
                'machines = ["XRdefault"]\n')
        payload = service.run(plan, "toml")
        assert payload["state"] == "done"

    def test_event_stream_is_ndjson_with_terminal_event(self, service):
        submission = service.submit(tiny_spec().to_json(), "json")
        events = list(service.events(submission["job"]))
        assert [e["event"] for e in events].count("cell") == 1
        assert events[-1]["event"] == "done"
        assert events[-1]["simulated"] == 1
        cell = next(e for e in events if e["event"] == "cell")
        assert cell["kernel"] == "vec_sum" and cell["machine"] == "XRdefault"
        assert cell["key"]  # the store key rides along for observability

    def test_bad_plan_is_400(self, service):
        with pytest.raises(ServiceError, match="400"):
            service.submit("{not json", "json")

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service.status("j9999-deadbeef")
        with pytest.raises(ServiceError, match="404"):
            list(service.events("j9999-deadbeef"))
        with pytest.raises(ServiceError, match="404"):
            service.result("j9999-deadbeef")

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            service._json("GET", "/nope")

    def test_status_endpoint(self, service):
        submission = service.submit(tiny_spec().to_json(), "json")
        list(service.events(submission["job"]))  # drain to completion
        status = service.status(submission["job"])
        assert status["state"] == "done" and status["simulated"] == 1


class TestResultBeforeDone:
    def test_result_of_running_job_is_202(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def gated_runner(spec, **kwargs):
            started.set()
            assert gate.wait(timeout=60)
            from repro.experiments import run_experiment
            return run_experiment(spec)

        manager = JobManager(store=tmp_path, runner=gated_runner)
        handle = start_in_thread(manager)
        client = ServiceClient(handle.url)
        try:
            submission = client.submit(tiny_spec().to_json(), "json")
            assert started.wait(timeout=60)
            pending = client._json("GET",
                                   f"/v1/jobs/{submission['job']}/result")
            assert pending["state"] in ("pending", "running")
            gate.set()
            list(client.events(submission["job"]))  # wait via the stream
            done = client.result(submission["job"])
            assert done["records"]
        finally:
            gate.set()
            handle.stop()
            manager.close()

    def test_failed_job_result_is_500(self, tmp_path):
        def exploding_runner(spec, **kwargs):
            raise RuntimeError("no capacity")

        manager = JobManager(store=tmp_path, runner=exploding_runner)
        handle = start_in_thread(manager)
        client = ServiceClient(handle.url)
        try:
            submission = client.submit(tiny_spec().to_json(), "json")
            events = list(client.events(submission["job"]))
            assert events[-1]["event"] == "failed"
            with pytest.raises(ServiceError, match="500"):
                client.result(submission["job"])
        finally:
            handle.stop()
            manager.close()


class TestJobManagerRunConfig:
    def test_per_job_config_reaches_the_runner(self, tmp_path):
        captured = {}

        def capturing_runner(spec, **kwargs):
            captured.update(kwargs)
            from repro.experiments import run_experiment
            return run_experiment(spec, RunConfig(),
                                  store=kwargs.get("store"))

        with JobManager(store=tmp_path,
                        runner=capturing_runner) as manager:
            job, _ = manager.submit(tiny_spec(), RunConfig(engine="step"))
            manager.wait(job.id, timeout=60)
        assert captured["config"] == RunConfig(engine="step")

    def test_max_steps_override_changes_the_fingerprint(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def gated_runner(spec, **kwargs):
            started.set()
            assert gate.wait(timeout=60)
            from repro.experiments import run_experiment
            return run_experiment(spec, RunConfig(),
                                  store=kwargs.get("store"))

        with JobManager(store=tmp_path, runner=gated_runner) as manager:
            base, _ = manager.submit(tiny_spec())
            assert started.wait(timeout=60)
            twin, twin_coalesced = manager.submit(
                tiny_spec(), RunConfig(engine="step"))
            deeper, deeper_coalesced = manager.submit(
                tiny_spec(), RunConfig(max_steps=500))
            gate.set()
            manager.wait(base.id, timeout=60)
            manager.wait(deeper.id, timeout=60)
        # Host-side overrides coalesce freely; a max_steps override
        # changes what the plan measures, so it never does.
        assert twin_coalesced and twin.id == base.id
        assert not deeper_coalesced and deeper.id != base.id
        assert deeper.spec.max_steps == 500


class TestV1Api:
    def test_unversioned_path_is_404(self, service):
        conn = HTTPConnection(service.host, service.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 404
            assert response.getheader("Location") is None
            assert json.loads(response.read())["error"] \
                == "no route for GET /healthz"
        finally:
            conn.close()

    def test_submit_envelope_with_run_config(self, service):
        payload = service.run(tiny_spec().to_json(), "json",
                              run_config={"engine": "step"})
        assert payload["state"] == "done"
        assert payload["events"] == {"simulated": 1}

    def test_run_config_accepts_a_runconfig_object(self, service):
        submission = service.submit(tiny_spec().to_json(), "json",
                                    run_config=RunConfig(engine="step"))
        list(service.events(submission["job"]))
        assert service.status(submission["job"])["state"] == "done"

    def test_bad_run_config_key_is_400(self, service):
        with pytest.raises(ServiceError, match="unknown run_config key"):
            service.submit(tiny_spec().to_json(), "json",
                           run_config={"store": "elsewhere"})
        # The server's own backend decides where cells run.
        for key, value in (("jobs", 2), ("backend", "process")):
            with pytest.raises(ServiceError,
                               match=f"400.*unknown run_config key.*{key}"
                                     r".*\(accepted: engine, max_steps\)"):
                service.submit(tiny_spec().to_json(), "json",
                               run_config={key: value})
        for engine in ("fast", "traced"):
            with pytest.raises(ServiceError,
                               match=f"400.*unknown engine '{engine}'"):
                service.submit(tiny_spec().to_json(), "json",
                               run_config={"engine": engine})

    def test_unknown_envelope_key_is_400(self, service):
        body = json.dumps({"plan": json.loads(tiny_spec().to_json()),
                           "extra": 1}).encode()
        with pytest.raises(ServiceError, match="400"):
            service._json("POST", "/v1/jobs", body, "application/json")

    def test_run_config_requires_a_json_plan(self, service):
        with pytest.raises(ValueError, match="JSON plan body"):
            service.submit('name = "x"', "toml",
                           run_config={"engine": "step"})


class TestServiceClientUrl:
    def test_bare_host_port_accepted(self):
        client = ServiceClient("127.0.0.1:8123")
        assert (client.host, client.port) == ("127.0.0.1", 8123)

    def test_https_rejected(self):
        with pytest.raises(ValueError, match="plain http only"):
            ServiceClient("https://example.com")

    def test_unknown_plan_format_rejected(self):
        with pytest.raises(ValueError, match="unknown plan format"):
            ServiceClient("127.0.0.1:1").submit("{}", "yaml")


def _children(pid: int) -> set[int]:
    """Pids of every live descendant of ``pid`` (Linux ``/proc``)."""
    from pathlib import Path

    out: set[int] = set()
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for task in Path(f"/proc/{parent}/task").glob("*"):
            try:
                text = (task / "children").read_text()
            except OSError:
                continue
            for child in map(int, text.split()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
    return out


def _alive(pid: int) -> bool:
    from pathlib import Path

    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


@pytest.mark.skipif(not __import__("os").path.exists("/proc/self/task"),
                    reason="needs Linux /proc to list child processes")
class TestServeShutdown:
    def test_sigterm_stops_the_pool_with_the_server(self, tmp_path):
        """`kill` on `repro serve --jobs 2` leaves no worker behind."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--no-cache"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True)
        try:
            banner = server.stdout.readline()
            assert "listening on" in banner, banner
            url = banner.split("listening on ")[1].split()[0]
            submit = subprocess.run(
                [sys.executable, "-m", "repro", "submit",
                 str(root / "examples" / "smoke_plan.toml"), "--url", url,
                 "--quiet"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120)
            assert submit.returncode == 0, submit.stderr
            children = _children(server.pid)
            assert children, "the persistent pool started no worker"
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0
            deadline = time.monotonic() + 30
            while (any(_alive(pid) for pid in children)
                   and time.monotonic() < deadline):
                time.sleep(0.2)
            assert not [pid for pid in children if _alive(pid)]
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
