"""The three workloads: set-up, timed phases and output checks.

* ``cold_plan`` -- registry kernels plus a seeded slice of synthesized
  kernels, on the five paper machines, through ``run_experiment``
  (serial backend) into a fresh result store per round; the round
  outruns the prepare cache, so every cell is prepared afresh.
  Assemble, transform, IR, codegen and store writes cost the time here.
* ``warm_sweep`` -- registry kernels on seeded pipeline sweeps with no
  store, after set-up ran every (kernel, machine) pair and the round
  once.  Simulation
  dominates, so engine gains show here, and so do cold-path changes
  that tax warm execution.
* ``service_replay`` -- one client in a closed loop against an
  in-process ``repro serve`` stack, replaying suite plans whose cells
  set-up stored.  No simulation happens: planning, hashing, store
  reads, the job manager and HTTP/NDJSON cost the time.

A phase runs whole rounds of plans, each round the same work after
set-up ran it once; throughput is the median over its rounds, so a
burst of outside load moves it less than a plain mean.  Every timing is
scaled to the reference host speed (:mod:`perfbench.hostspeed`).

Simulated statistics are deterministic, so outputs are checked for
exact identity: figure-2 cells at the default pipeline against
``tests/golden``, every other record against a rerun on the stepped
engine (outside the timed phase), and service results against what
set-up stored.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from pathlib import Path

from repro.cpu.pipeline import PipelineConfig
from repro.experiments import (
    ExperimentSpec,
    ProcessBackend,
    ResultStore,
    RunConfig,
    SweepAxis,
    run_experiment,
)
from repro.service import JobManager, ServiceClient, start_in_thread
from repro.workloads.suite import FIGURE2_BENCHMARKS, registry

from perfbench import plans
from perfbench.hostspeed import HostSpeed
from perfbench.stats import tail_ok

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"

#: The stepped interpreter: the oracle every other engine must match.
ORACLE = RunConfig(engine="step")

#: ``peak_rss_mb`` is read after this many timed rounds (or at the end
#: of a shorter phase), so it does not grow with the number of rounds
#: a fast host fits into the phase: the service keeps every finished
#: job, and with it the job's records.
RSS_ROUNDS = 2


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stop_resource_tracker() -> None:
    """Stop the helper process a spawn pool starts, which otherwise
    lives until the interpreter exits."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


@contextlib.contextmanager
def stepped_oracle():
    """Rerun plans on the stepped engine, spread over every CPU.

    The checks run after the timed phase, so they may use the whole
    host; the pool is closed, and its helpers stopped, on exit.
    """
    with ProcessBackend(persistent=True) as backend:
        yield lambda spec: run_experiment(spec, ORACLE,
                                          backend=backend).records
    stop_resource_tracker()


@dataclass
class Phase:
    """What one timed phase measured (host time, seconds).

    At the end of each round, :meth:`close_round` scales the round's
    timings to the reference host speed by the probes taken before its
    plans; ``wall_s`` and ``busy_s`` stay raw.
    """

    wall_s: float = 0.0
    #: Seconds spent in plans (the probes between them left out).
    busy_s: float = 0.0
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: The scale applied to each round.
    scales: list[float] = field(default_factory=list)
    cells: int = 0
    instructions: int = 0
    failed: int = 0
    simulated: int = 0
    plans: int = 0
    rss_mb: float | None = None
    cell_gaps: list[float] = field(default_factory=list)
    plan_latencies: list[float] = field(default_factory=list)
    #: (scaled seconds in plans, cells, instructions) of each round.
    rounds: list[tuple[float, int, int]] = field(default_factory=list)
    #: Per-plan client-side timings of the service workload.
    client: dict[str, list[float]] = field(default_factory=lambda: {
        "submit": [], "queue": [], "stream": [], "result": []})

    def enough(self, seconds: float) -> bool:
        return (self.wall_s >= seconds
                and tail_ok(self.cell_gaps, 98)
                and tail_ok(self.plan_latencies, 90))

    def _series(self) -> list[list[float]]:
        return [self.cell_gaps, self.plan_latencies, *self.client.values()]

    def mark(self) -> tuple:
        """Where the round about to start begins, for :meth:`close_round`."""
        return (len(self.speed.samples), self.busy_s, self.cells,
                self.instructions, [len(s) for s in self._series()])

    def close_round(self, mark: tuple) -> None:
        """Scale the round's timings by its probes and record the round."""
        probes, busy, cells, instructions, lengths = mark
        scale = self.speed.scale(probes)
        self.scales.append(scale)
        for series, start in zip(self._series(), lengths):
            series[start:] = [t * scale for t in series[start:]]
        self.rounds.append(((self.busy_s - busy) * scale, self.cells - cells,
                            self.instructions - instructions))

    def cells_per_s(self) -> float:
        return statistics.median(c / s for s, c, _ in self.rounds)

    def instructions_per_s(self) -> float:
        return statistics.median(i / s for s, _, i in self.rounds)


def cell_count(spec: ExperimentSpec) -> int:
    return (len(spec.kernel_names()) * len(spec.machines)
            * len(spec.axis_points()) * spec.repeats)


def mismatches(expected: list[dict], actual: list[dict]) -> int:
    """Records of ``actual`` that differ from ``expected``, position-wise.

    Only the keys present in the actual record are compared, so golden
    fixtures may carry derived columns the runner does not produce.
    """
    missing = object()
    bad = abs(len(expected) - len(actual))
    for want, got in zip(expected, actual):
        if any(want.get(key, missing) != value for key, value in got.items()):
            bad += 1
    return bad


def digest(entries: list[tuple[str, list[dict]]]) -> str:
    payload = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _golden(spec: ExperimentSpec) -> list[dict] | None:
    """The committed figure-2 records for ``spec``, if it is such a plan."""
    if spec.sweep or spec.pipeline != PipelineConfig() \
            or len(spec.kernels) != 1 \
            or spec.kernels[0] not in FIGURE2_BENCHMARKS:
        return None
    golden = json.loads((GOLDEN_DIR / f"{spec.kernels[0]}.json").read_text())
    by_machine = {record["machine"]: record for record in golden["records"]}
    return [by_machine.get(machine.name, {}) for machine in spec.machines]


def _identity(spec: ExperimentSpec) -> str:
    """What a plan measures: the spec without its name."""
    data = spec.to_dict()
    del data["name"]
    return json.dumps(data, sort_keys=True)


class Workload:
    """Set-up, then timed phases made of whole rounds of plans."""

    name: str

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def _run_round(self, phase: Phase, tracer) -> None:
        raise NotImplementedError

    def run_phase(self, seconds: float, tracer=None) -> Phase:
        """Run whole rounds for at least ``seconds`` and both tails."""
        gc.collect()  # start every phase from the same, swept heap
        phase = Phase()
        start = time.perf_counter()
        while not phase.enough(seconds):
            mark = phase.mark()
            self._run_round(phase, tracer)
            phase.close_round(mark)
            phase.wall_s = time.perf_counter() - start
            if len(phase.rounds) == RSS_ROUNDS:
                phase.rss_mb = peak_rss_mb()
        if phase.rss_mb is None:
            phase.rss_mb = peak_rss_mb()
        return phase

    def check(self) -> tuple[int, int, str]:
        """(cells checked, mismatching cells, digest of the records)."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class InProcessWorkload(Workload):
    """Rounds of plans run through ``run_experiment`` in this process.

    Every distinct plan's records are kept as the reference; a plan
    seen again must reproduce them exactly, and :meth:`check` verifies
    the references against golden fixtures or the stepped oracle.
    """

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self._store: ResultStore | None = None
        #: identity -> (spec, records)
        self.reference: dict[str, tuple[ExperimentSpec, list[dict]]] = {}

    def setup(self) -> None:
        registry()

    def _round_plans(self) -> list[ExperimentSpec]:
        raise NotImplementedError

    def _new_store(self) -> ResultStore | None:
        return None

    def _run_round(self, phase: Phase, tracer) -> None:
        round_plans = self._round_plans()
        self._store = self._new_store()
        for spec in round_plans:
            self.run_plan(spec, phase, tracer)

    def run_plan(self, spec: ExperimentSpec, phase: Phase | None = None,
                 tracer=None) -> None:
        gaps: list[float] = []
        if phase is not None:
            phase.speed.sample()
        started = last = time.perf_counter()

        def progress(event: dict) -> None:
            nonlocal last
            now = time.perf_counter()
            gaps.append(now - last)
            last = now
            if tracer is not None:
                tracer.set_cell(f"{spec.name}#{len(gaps)}")

        if tracer is not None:
            tracer.set_cell(f"{spec.name}#0")
        try:
            result = run_experiment(spec, store=self._store,
                                    progress=progress)
        except Exception:  # noqa: BLE001 - a failed cell fails its plan
            traceback.print_exc(file=sys.stderr)
            if phase is not None:
                phase.failed += cell_count(spec)
                phase.cells += cell_count(spec)
            return
        finally:
            if tracer is not None:
                tracer.set_cell(None)
        elapsed = time.perf_counter() - started
        records = result.records
        key = _identity(spec)
        seen = self.reference.get(key)
        failed = 0
        if seen is None:
            self.reference[key] = (spec, records)
        else:
            failed = mismatches(seen[1], records)
        if phase is not None:
            phase.plans += 1
            phase.cells += len(records)
            phase.simulated += result.simulated
            phase.failed += failed
            phase.instructions += sum(r["instructions"] for r in records)
            phase.cell_gaps.extend(gaps)
            phase.plan_latencies.append(elapsed)
            phase.busy_s += elapsed

    def check(self) -> tuple[int, int, str]:
        checked = failed = 0
        with stepped_oracle() as rerun:
            for spec, records in self.reference.values():
                expected = _golden(spec)
                if expected is None:
                    expected = rerun(spec)
                checked += len(records)
                failed += mismatches(expected, records)
        return checked, failed, digest(
            [(spec.name, records)
             for spec, records in self.reference.values()])


class ColdPlan(InProcessWorkload):
    name = "cold_plan"

    def setup(self) -> None:
        """Run the round once: it pays the once-per-process costs (lazy
        imports, generating the synthesized kernels) before timing."""
        super().setup()
        self._store = self._new_store()
        for spec in self._round_plans():
            self.run_plan(spec)

    def _round_plans(self) -> list[ExperimentSpec]:
        return plans.cold_round(self.seed)

    def _new_store(self) -> ResultStore:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return ResultStore(tempfile.mkdtemp(dir=self.work_dir))


class WarmSweep(InProcessWorkload):
    name = "warm_sweep"

    def setup(self) -> None:
        """Prime every pair, then run the round once, so that every
        timed round finds its pipeline points' code compiled."""
        for spec in plans.warm_priming():
            self.run_plan(spec)
        for spec in self._round_plans():
            self.run_plan(spec)

    def _round_plans(self) -> list[ExperimentSpec]:
        return plans.warm_sweep(self.seed)


def live_children() -> list[int]:
    """Pids of this process's live child processes."""
    pids: list[int] = []
    try:
        for task in os.listdir("/proc/self/task"):
            text = Path(f"/proc/self/task/{task}/children").read_text()
            pids += [int(pid) for pid in text.split()]
    except OSError:
        return [child.pid for child in multiprocessing.active_children()]
    return pids


class ServiceReplay(Workload):
    """Closed-loop replay of stored plans through ``repro serve``.

    A round sends every plan of the pool once.
    """

    name = "service_replay"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.manager: JobManager | None = None
        self.handle = None
        self.pool: list[ExperimentSpec] = []
        self.stored: list[list[dict]] = []

    def setup(self) -> None:
        self.pool = plans.replay_pool(self.seed)
        self._bodies = [spec.to_json(indent=None) for spec in self.pool]
        self.work_dir.mkdir(parents=True, exist_ok=True)
        # The backend `repro serve` uses by default: a persistent,
        # spawn-started worker pool.
        self.manager = JobManager(
            store=tempfile.mkdtemp(dir=self.work_dir),
            backend=ProcessBackend(persistent=True))
        self.handle = start_in_thread(self.manager, "127.0.0.1", 0)
        self.client = ServiceClient(self.handle.url)
        for spec, body in zip(self.pool, self._bodies):
            outcome = self.client.run(body)
            if outcome["state"] != "done":
                raise RuntimeError(f"set-up plan {spec.name} "
                                   f"{outcome['state']}: {outcome['error']}")
            self.stored.append(outcome["result"]["records"])

    def _run_round(self, phase: Phase, tracer) -> None:
        for index in range(len(self.pool)):
            self._replay(index, phase)

    def _replay(self, index: int, phase: Phase) -> None:
        client = self.client
        phase.speed.sample()
        t_submit = time.perf_counter()
        job = client.submit(self._bodies[index])["job"]
        t_accepted = time.perf_counter()
        t_first = None
        last = t_submit
        state = "running"
        for event in client.events(job):
            now = time.perf_counter()
            if t_first is None:
                t_first = now
            kind = event.get("event")
            if kind == "cell":
                phase.cell_gaps.append(now - last)
                last = now
                if event.get("source") != "cached":
                    phase.simulated += 1
                    phase.failed += 1  # set-up stored every cell
            elif kind in ("done", "failed"):
                state = kind
        t_streamed = time.perf_counter()
        records = client.result(job)["records"] if state == "done" else []
        t_done = time.perf_counter()
        expected = self.stored[index]
        phase.plans += 1
        phase.cells += len(expected)
        phase.failed += mismatches(expected, records)
        phase.instructions += sum(r["instructions"] for r in records)
        phase.plan_latencies.append(t_done - t_submit)
        phase.busy_s += t_done - t_submit
        t_first = t_first if t_first is not None else t_streamed
        timings = {"submit": (t_submit, t_accepted),
                   "queue": (t_accepted, t_first),
                   "stream": (t_first, t_streamed),
                   "result": (t_streamed, t_done)}
        for name, (begin, end) in timings.items():
            phase.client[name].append(end - begin)

    def check(self) -> tuple[int, int, str]:
        """Set-up's records against one stepped run of the pool's cells."""
        axis = self.pool[0].sweep[0]
        values = sorted({value for spec in self.pool
                         for value in spec.sweep[0].values})
        union = replace(self.pool[0], name="oracle",
                        sweep=(SweepAxis(axis.name, tuple(values),
                                         axis.fields),))
        with stepped_oracle() as rerun:
            oracle = {(r["kernel"], r["machine"], r[axis.name]): r
                      for r in rerun(union)}
        checked = failed = 0
        for records in self.stored:
            expected = [oracle.get((r["kernel"], r["machine"], r[axis.name]),
                                   {}) for r in records]
            checked += len(records)
            failed += mismatches(expected, records)
        return checked, failed, digest(
            [(spec.name, records)
             for spec, records in zip(self.pool, self.stored)])

    def close(self) -> None:
        """Stop the server, then the manager and its pool."""
        try:
            if self.handle is not None:
                self.handle.stop()
        finally:
            if self.manager is not None:
                self.manager.close()
            super().close()
        stop_resource_tracker()


WORKLOADS = {cls.name: cls for cls in (ColdPlan, WarmSweep, ServiceReplay)}
