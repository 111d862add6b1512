"""Budgeted differential soak: the discover → shrink → pin loop.

``repro soak`` walks the seeded corpus round-robin across families and
runs every kernel through all four engines (``step`` as the reference,
then ``fast``/``traced``/``auto``), asserting bit-identical
registers, memory, cycles, stats and controller counters via
:mod:`repro.synth.observe`.  Engines that *fault* agree when they raise
the same exception type and message (fault parity — the same contract
the property suites pin).

On a mismatch the harness shrinks: it walks the knob-reduction ladder
(:func:`repro.synth.corpus.shrunk_knob_candidates`), re-generating the
failing ``(family, seed, index)`` under each reduced knob set and
keeping any reduction that still fails, to a fixpoint.  The minimal
reproducer is written under ``tests/regressions/`` as a self-contained
``.s`` + manifest pair (source, machine, pipeline, engines, provenance
— replayable with no generator), and ``tests/test_regressions.py``
replays every checked-in pair forever after.  Discover once, shrink,
pin: the corpus only ever gets harder to regress against.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.synth.corpus import (
    FAMILY_NAMES,
    SynthKernel,
    generate_kernel,
    shrunk_knob_candidates,
    slugify,
)
from repro.synth.draw import GENERATOR_VERSION
from repro.synth.observe import observe

if TYPE_CHECKING:  # pragma: no cover
    from repro.eval.machines import MachineSpec

#: Engine order for the 4-way comparison; the first entry is the
#: reference the others are diffed against.
SOAK_ENGINES: tuple[str, ...] = ("step", "fast", "traced", "auto")

#: Generous step budget, matching the property suites.
DEFAULT_MAX_STEPS = 200_000

#: Where shrunk reproducers get pinned.
DEFAULT_REGRESSIONS_DIR = Path("tests") / "regressions"


def run_observation(kernel: SynthKernel, engine: str,
                    max_steps: int = DEFAULT_MAX_STEPS,
                    prepared=None) -> tuple:
    """One engine's comparable outcome for one kernel.

    Faults fold into the observation as ``("fault", type, message)`` so
    two engines raising the identical error still agree.
    """
    if prepared is None:
        prepared = kernel.machine.prepare(kernel.source)
    sim = prepared.make_simulator(pipeline=kernel.pipeline)
    try:
        sim.run(max_steps, engine=engine)
    except Exception as exc:
        return ("fault", type(exc).__name__, str(exc))
    return ("ok", observe(sim))


def find_disagreement(kernel: SynthKernel,
                      engines: tuple[str, ...] = SOAK_ENGINES,
                      max_steps: int = DEFAULT_MAX_STEPS):
    """The first engine disagreeing with the reference, or ``None``.

    Returns ``(engine, reference_outcome, engine_outcome)``.
    """
    prepared = kernel.machine.prepare(kernel.source)
    reference = run_observation(kernel, engines[0], max_steps, prepared)
    for engine in engines[1:]:
        outcome = run_observation(kernel, engine, max_steps, prepared)
        if outcome != reference:
            return (engine, reference, outcome)
    return None


def shrink_failure(kernel: SynthKernel,
                   engines: tuple[str, ...] = SOAK_ENGINES,
                   max_steps: int = DEFAULT_MAX_STEPS) -> SynthKernel:
    """Greedily minimize a failing kernel along the knob ladder.

    Each candidate re-generates the same ``(family, seed, index)``
    under reduced knobs (same stream seed — smaller space, not a
    different kernel) and is kept when it still disagrees.  The
    fixpoint is the minimal reproducer; shrinking never loses the
    failure because candidates are only accepted while failing.
    """
    current = kernel
    progressed = True
    while progressed:
        progressed = False
        for knobs in shrunk_knob_candidates(current.knobs):
            candidate = generate_kernel(current.family, current.seed,
                                        current.index, knobs)
            if find_disagreement(candidate, engines, max_steps):
                current = candidate
                progressed = True
                break
    return current


def _outcome_summary(outcome: tuple) -> str:
    if outcome[0] == "fault":
        return f"fault {outcome[1]}: {outcome[2]}"
    state, _memory, controller = outcome[1]
    return (f"pc={state[0]} halted={state[1]} stats={state[3]} "
            f"controller={controller}")


@dataclass
class SoakFailure:
    """One discovered, shrunk, pinned differential failure."""

    kernel_name: str
    engine: str
    reference: str
    observed: str
    shrunk_name: str
    shrunk_knobs: dict
    regression_path: str | None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SoakReport:
    """What a soak run did, serializable for CI artifacts."""

    seed: int
    budget_seconds: float
    engines: tuple[str, ...]
    families: tuple[str, ...]
    elapsed_seconds: float = 0.0
    kernels_run: int = 0
    per_family: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "generator": f"repro.synth v{GENERATOR_VERSION}",
            "seed": self.seed,
            "budget_seconds": self.budget_seconds,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "engines": list(self.engines),
            "families": list(self.families),
            "kernels_run": self.kernels_run,
            "per_family": dict(self.per_family),
            "mismatches": len(self.failures),
            "failures": [f.to_dict() for f in self.failures],
        }


def write_regression(kernel: SynthKernel, engine: str,
                     regressions_dir: str | Path,
                     engines: tuple[str, ...] = SOAK_ENGINES,
                     max_steps: int = DEFAULT_MAX_STEPS,
                     machine: MachineSpec | None = None,
                     oracle: str | None = None) -> Path:
    """Pin a reproducer as a self-contained ``.s`` + manifest pair.

    The manifest carries everything a replay needs — machine spec,
    pipeline timing, engine list, step budget — plus provenance
    (family/seed/index/knobs) for archaeology; the source rides in the
    sibling ``.s`` file.  ``tests/test_regressions.py`` replays every
    pair in the directory.

    ``machine`` overrides the machine the generator drew (a transform
    bug pins the machine it failed on); ``oracle="machine"`` makes the
    replay also check that machine's live-outs against a stepped
    XRdefault run of the same source.
    """
    if oracle not in (None, "machine"):
        raise ValueError(f"unknown regression oracle {oracle!r}")
    regressions_dir = Path(regressions_dir)
    regressions_dir.mkdir(parents=True, exist_ok=True)
    stem = slugify(kernel.name)
    source_path = regressions_dir / f"{stem}.s"
    manifest_path = regressions_dir / f"{stem}.json"
    source_path.write_text(kernel.source)
    manifest = {
        "kernel": kernel.name,
        "source_file": source_path.name,
        "machine": (machine or kernel.machine).to_dict(),
        "pipeline": kernel.provenance["pipeline"],
        "engines": list(engines),
        "max_steps": max_steps,
        "mismatching_engine": engine,
        "provenance": kernel.provenance,
    }
    if oracle is not None:
        manifest["oracle"] = oracle
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def run_soak(budget_seconds: float,
             seed: int = 0,
             families: tuple[str, ...] = FAMILY_NAMES,
             engines: tuple[str, ...] = SOAK_ENGINES,
             max_steps: int = DEFAULT_MAX_STEPS,
             regressions_dir: str | Path | None = DEFAULT_REGRESSIONS_DIR,
             shrink: bool = True,
             min_kernels: int = 0,
             max_kernels: int | None = None,
             progress: Callable[[str], None] | None = None) -> SoakReport:
    """Soak the corpus until the budget runs out.

    Kernels are taken round-robin across ``families`` at increasing
    index, all from one ``seed`` — so a soak run *is* a corpus prefix,
    and any member it visits is addressable afterwards by name.  The
    wall-clock ``budget_seconds`` caps discovery; ``min_kernels`` keeps
    going past the budget if the floor is not met (CI smoke legs), and
    ``max_kernels`` stops early (tests).  Set ``regressions_dir=None``
    to skip pinning (dry runs).
    """
    if not families:
        raise ValueError("soak needs at least one family")
    if len(engines) < 2:
        raise ValueError("soak needs a reference engine plus at least "
                         "one engine to diff")
    report = SoakReport(seed=seed, budget_seconds=budget_seconds,
                        engines=tuple(engines), families=tuple(families))
    start = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - start
        if report.kernels_run >= min_kernels and elapsed >= budget_seconds:
            break
        if max_kernels is not None and report.kernels_run >= max_kernels:
            break
        for family_name in families:
            kernel = generate_kernel(family_name, seed, index)
            disagreement = find_disagreement(kernel, engines, max_steps)
            report.kernels_run += 1
            report.per_family[family_name] = \
                report.per_family.get(family_name, 0) + 1
            if disagreement is None:
                continue
            engine, reference, outcome = disagreement
            if progress:
                progress(f"MISMATCH {kernel.name} engine={engine}")
            shrunk = shrink_failure(kernel, engines, max_steps) \
                if shrink else kernel
            path = None
            if regressions_dir is not None:
                path = write_regression(shrunk, engine, regressions_dir,
                                        engines, max_steps)
                if progress:
                    progress(f"pinned {path}")
            report.failures.append(SoakFailure(
                kernel_name=kernel.name,
                engine=engine,
                reference=_outcome_summary(reference),
                observed=_outcome_summary(outcome),
                shrunk_name=shrunk.name,
                shrunk_knobs=shrunk.knobs.to_dict(),
                regression_path=str(path) if path else None,
            ))
        index += 1
        if progress and index % 32 == 0:
            progress(f"{report.kernels_run} kernels, "
                     f"{time.monotonic() - start:.1f}s")
    report.elapsed_seconds = time.monotonic() - start
    return report
