"""Job lifecycle for the simulation service.

A :class:`JobManager` owns every submitted job: it deduplicates
identical in-flight plans single-flight on their store-key sets, runs
each distinct job on a small thread pool (the heavy lifting happens in
the execution backend — for ``repro serve`` a persistent process pool
whose workers stay warm across jobs), buffers per-cell progress events
for any number of stream followers, and retains terminal jobs for
result fetches.

The manager is synchronous and thread-safe; the asyncio HTTP server
bridges into it via :meth:`JobManager.events_since`, a blocking
long-poll it calls on an executor thread.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.experiments.backends import ExecutionBackend
from repro.experiments.config import RunConfig
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import plan_cell_keys, run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import ResultStore

#: Job states, in lifecycle order; the last two are terminal.
JOB_STATES = ("pending", "running", "done", "failed")


def plan_fingerprint(spec: ExperimentSpec) -> str:
    """What a plan *measures*, as one digest.

    Hashes the sorted, deduplicated store-key set of the plan's cells
    plus the repeat structure — host-side choices (jobs, engine) are
    excluded by construction, because cell keys exclude
    them.  Two plans with equal fingerprints produce identical result
    records, which is what makes single-flight coalescing safe.
    """
    keys = plan_cell_keys(spec)
    payload = json.dumps([sorted(set(keys)), len(keys)],
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Job:
    """One submitted plan and everything observed about its run."""

    id: str
    name: str
    fingerprint: str
    spec: ExperimentSpec
    #: Per-job host-side overrides (the submit body's ``run_config``).
    config: RunConfig | None = None
    state: str = "pending"
    events: list[dict] = field(default_factory=list)
    result: ExperimentResult | None = None
    error: str | None = None

    def summary(self) -> dict:
        """The JSON-ready status payload for ``GET /v1/jobs/<id>``."""
        out = {"job": self.id, "name": self.name, "state": self.state,
               "fingerprint": self.fingerprint, "events": len(self.events)}
        if self.result is not None:
            out.update(simulated=self.result.simulated,
                       cached=self.result.cached,
                       deduplicated=self.result.deduplicated,
                       records=len(self.result.records))
        if self.error is not None:
            out["error"] = self.error
        return out


class JobManager:
    """Submit, deduplicate, run and observe experiment jobs."""

    def __init__(self, store: ResultStore | str | None = "results",
                 backend: ExecutionBackend | None = None,
                 workers: int = 2, runner=run_experiment):
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.backend = backend
        self._runner = runner
        self._lock = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}  # fingerprint -> active job id
        self._serial = itertools.count(1)
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="repro-job")
        self._closed = False

    # -- submission ----------------------------------------------------

    def submit(self, spec: ExperimentSpec,
               config: RunConfig | None = None) -> tuple[Job, bool]:
        """Register ``spec`` and start it; returns ``(job, coalesced)``.

        An identical plan already pending/running is *not* re-run: the
        caller is handed the in-flight job (``coalesced=True``) and
        shares its event stream and result.  Completed jobs never
        coalesce — a re-submission becomes a new job, whose cells are
        served from the store (the second run of any plan is 100%
        ``cached``).

        ``config`` carries per-job host-side overrides (the submit
        body's ``run_config``).  A ``max_steps`` override changes what
        the plan measures, so it is folded into the spec *before*
        fingerprinting — two submissions that measure different things
        never coalesce; an engine override is host-side only and
        coalesces freely.
        """
        if config is not None and config.max_steps is not None \
                and config.max_steps != spec.max_steps:
            spec = replace(spec, max_steps=config.max_steps)
        fingerprint = plan_fingerprint(spec)
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is closed")
            active = self._inflight.get(fingerprint)
            if active is not None:
                return self._jobs[active], True
            job = Job(id=f"j{next(self._serial):04d}-{fingerprint[:8]}",
                      name=spec.name, fingerprint=fingerprint, spec=spec,
                      config=config)
            self._jobs[job.id] = job
            self._inflight[fingerprint] = job.id
        self._pool.submit(self._run, job)
        return job, False

    def _run(self, job: Job) -> None:
        with self._lock:
            if job.state != "pending":  # pragma: no cover - defensive
                return
            job.state = "running"
            self._lock.notify_all()

        def progress(event: dict) -> None:
            with self._lock:
                job.events.append(event)
                self._lock.notify_all()

        try:
            result = self._runner(job.spec, config=job.config,
                                  backend=self.backend, store=self.store,
                                  progress=progress)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
        else:
            job.result = result
            self._finish(job, "done",
                         simulated=result.simulated, cached=result.cached,
                         deduplicated=result.deduplicated,
                         records=len(result.records))

    def _finish(self, job: Job, state: str, **payload) -> None:
        with self._lock:
            job.state = state
            if state == "failed":
                job.error = payload.get("error")
            job.events.append({"event": state, "job": job.id, **payload})
            self._inflight.pop(job.fingerprint, None)
            self._lock.notify_all()

    # -- observation ---------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def jobs_summary(self) -> dict:
        with self._lock:
            states = [job.state for job in self._jobs.values()]
        return {"jobs": len(states),
                **{state: states.count(state) for state in JOB_STATES}}

    def events_since(self, job_id: str, start: int,
                     timeout: float | None = None) -> tuple[list[dict], bool]:
        """Blocking long-poll: events past ``start``, plus a done flag.

        Returns ``(new_events, finished)`` where ``finished`` means the
        job is terminal *and* every event (including the terminal
        ``done``/``failed`` event) has been delivered — the stream
        follower's stop condition.  Waits up to ``timeout`` seconds for
        news (``None`` waits indefinitely).
        """
        job = self.get(job_id)
        with self._lock:
            if len(job.events) <= start and job.state not in ("done",
                                                              "failed"):
                self._lock.wait(timeout)
            new = list(job.events[start:])
            finished = job.state in ("done", "failed") \
                and start + len(new) >= len(job.events)
            return new, finished

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job is terminal (test/CLI convenience)."""
        job = self.get(job_id)
        with self._lock:
            self._lock.wait_for(
                lambda: job.state in ("done", "failed"), timeout)
        return job

    # -- shutdown ------------------------------------------------------

    def close(self) -> None:
        """Finish running jobs, refuse new ones, release the pools."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=True)
        if self.backend is not None and hasattr(self.backend, "close"):
            self.backend.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
