"""Seeded experiment plans, one generator per workload.

The seed is used only here: each workload receives plain
:class:`~repro.experiments.ExperimentSpec` values (or their JSON, for
the service) and nothing else.  A plan is one row of the paper's table
-- one kernel on the five paper machines -- swept over the workload's
pipeline points, so every workload issues enough plans per run for its
plan-latency tail.  The service plans are whole-suite sweeps, as a
``repro submit`` user sends them.
"""

from __future__ import annotations

import random
from dataclasses import fields

from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import ALL_MACHINES
from repro.experiments import ExperimentSpec, SweepAxis
from repro.synth.corpus import FAMILY_NAMES
from repro.workloads.suite import registry

#: Synthesized kernels per family in one ``cold_plan`` round.
SYNTH_PER_FAMILY = 5

#: Plans in the ``service_replay`` pool; each sweeps all but one of the
#: pool's pipeline values, so the pool's cells are few and shared.
REPLAY_PLANS = 5

PIPELINE_FIELDS = tuple(f.name for f in fields(PipelineConfig))


def _rng(*parts) -> random.Random:
    return random.Random("perfbench/" + "/".join(str(p) for p in parts))


def _row(name: str, kernel: str, pipeline: PipelineConfig | None = None,
         sweep: tuple[SweepAxis, ...] = ()) -> ExperimentSpec:
    return ExperimentSpec(name=name, kernels=(kernel,),
                          machines=ALL_MACHINES,
                          pipeline=pipeline or PipelineConfig(), sweep=sweep)


def _base_pipeline(rng: random.Random) -> PipelineConfig:
    return PipelineConfig(**{name: rng.randrange(3)
                             for name in PIPELINE_FIELDS})


def cold_round(seed: int) -> list[ExperimentSpec]:
    """Every registry kernel plus a seeded slice of each synth family.

    A round touches more (kernel, machine) pairs than the 128-entry
    prepare cache holds, and the cache evicts the oldest first, so every
    pair is prepared again each time the round repeats: every cell is
    assembled, transformed and compiled afresh, into a fresh store.
    """
    plans = [_row(f"cold-{name}", name) for name in registry().names()]
    for family in FAMILY_NAMES:
        rng = _rng("cold", seed, family)
        for corpus_seed in rng.sample(range(1_000_000), SYNTH_PER_FAMILY):
            selector = f"synth:{family}:{corpus_seed}:1"
            plans.append(_row(f"cold-{selector}", selector))
    return plans


def warm_sweep(seed: int) -> list[ExperimentSpec]:
    """Every registry kernel, each on its own seeded 2x2 pipeline sweep.

    Drawing a sweep per kernel averages the engine's speed over many
    pipeline points, so one seed's draw moves the round's cost little.
    """
    rng = _rng("warm", seed)
    out = []
    for name in registry().names():
        base = _base_pipeline(rng)
        sweep = tuple(SweepAxis(axis, tuple(sorted(rng.sample(range(4), 2))))
                      for axis in rng.sample(PIPELINE_FIELDS, 2))
        out.append(_row(f"warm-{name}", name, base, sweep))
    return out


def warm_priming() -> list[ExperimentSpec]:
    """Every (kernel, machine) pair once, at the default pipeline."""
    return [_row(f"prime-{name}", name) for name in registry().names()]


def replay_pool(seed: int) -> list[ExperimentSpec]:
    """Whole-suite plans sweeping one pipeline field over four values."""
    rng = _rng("replay", seed)
    base = _base_pipeline(rng)
    field_name = rng.choice(PIPELINE_FIELDS)
    values = rng.sample(range(8), REPLAY_PLANS)
    return [ExperimentSpec(
        name=f"replay-{index}", kernels=tuple(registry().names()),
        machines=ALL_MACHINES, pipeline=base,
        sweep=(SweepAxis(field_name, tuple(v for v in values
                                           if v != left_out)),))
        for index, left_out in enumerate(values)]
