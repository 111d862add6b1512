"""Named, seeded kernel corpora: the ``repro synth`` product surface.

A :class:`CorpusSpec` — family, seed, count, optional knob overrides —
deterministically expands into :class:`SynthKernel` records: generated
source, a machine and pipeline binding, and a provenance block pinning
exactly how the kernel came to be (generator version, knob values,
source digest).  The same ``(family, seed, index)`` produces the same
kernel on any machine in any process, which is what lets:

* experiment plans address corpora with the ``synth:<family>:<seed>:<n>``
  kernel selector (each member resolves *by name* in worker processes,
  so the process backend needs no extra plumbing);
* ``repro soak`` re-generate a failing kernel under reduced knobs when
  shrinking a differential failure;
* a regression manifest name the exact corpus member it came from.

Families (:data:`FAMILIES`) are knob presets over one generator body
(:mod:`repro.synth.generators`): deep nests, irregular strides,
sub-word-heavy bodies, branch-heavy/early-exit bodies, and multi-task
re-arm storms that hammer single-shot controllers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cpu.pipeline import PipelineConfig
from repro.synth.draw import GENERATOR_VERSION, SeededDraw, kernel_stream_seed
from repro.synth.generators import ShapeKnobs, loop_nest_kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.eval.machines import MachineSpec
    from repro.workloads.api import Kernel

#: Kernel-name / selector prefix.
SYNTH_PREFIX = "synth:"


@dataclass(frozen=True)
class Family:
    """One named corpus family: a knob preset plus a machine policy."""

    name: str
    description: str
    knobs: ShapeKnobs
    #: Machine-registry names the family samples bindings from; the
    #: paper machines by default, single-shot controllers for re-arm
    #: storms.
    machine_pool: tuple[str, ...] = ("XRdefault", "XRhrdwil", "uZOLC",
                                     "ZOLClite", "ZOLCfull")
    #: Whether bindings randomize pipeline timing (soak wants this —
    #: timing knobs shake out batching/stall bookkeeping bugs).
    randomize_pipeline: bool = True


FAMILIES: dict[str, Family] = {
    family.name: family for family in (
        Family(
            name="baseline",
            description="the fuzz suites' historical shape distribution",
            knobs=ShapeKnobs(),
        ),
        Family(
            name="deep_nest",
            description="always-maximal nesting depth, small bodies — "
                        "stresses cascaded arming and index-unit depth",
            knobs=ShapeKnobs(min_depth=3, max_depth=3, max_body_ops=3,
                             min_trips=2),
        ),
        Family(
            name="irregular_stride",
            description="non-contiguous, width-aligned scratch offsets — "
                        "stresses inlined bounds checks and sub-word "
                        "widening at odd addresses",
            knobs=ShapeKnobs(
                op_kinds=(0, 1, 3, 3, 4, 5, 6),
                word_offsets=(0, 4, 12, 20, 36, 44, 52, 60),
                half_offsets=(0, 2, 6, 10, 18, 26, 38, 46, 54, 62),
                byte_offsets=(0, 1, 3, 5, 7, 11, 13, 19, 23, 29, 31,
                              37, 41, 43, 47, 53, 59, 61, 63)),
        ),
        Family(
            name="subword",
            description="bodies dominated by byte/half loads and stores "
                        "— stresses the traced tier's inlined sign/zero "
                        "widening and narrow-store semantics",
            knobs=ShapeKnobs(op_kinds=(0, 4, 4, 4, 5, 5, 5),
                             half_offsets=(0, 2, 6, 10, 18, 26, 38, 46,
                                           54, 62),
                             byte_offsets=(0, 1, 3, 5, 7, 11, 13, 19,
                                           23, 29, 31, 37, 41, 43, 47,
                                           53, 59, 61, 63)),
        ),
        Family(
            name="branchy",
            description="every body carries forward branches (skips, "
                        "diamonds, nested skips) plus frequent early "
                        "exits — the trace JIT's guard/side-exit/bridge "
                        "space",
            knobs=ShapeKnobs(min_body_ops=3, max_body_ops=6,
                             body_shapes=(1, 2, 2, 3, 3),
                             early_exit_den=2),
        ),
        Family(
            name="rearm_storm",
            description="many short sequential nests with amortisable "
                        "trip counts — single-shot controllers re-arm "
                        "over and over mid-run",
            knobs=ShapeKnobs(min_nests=3, max_nests=5, max_depth=2,
                             max_body_ops=3, min_trips=7, max_trips=8),
            machine_pool=("uZOLC", "uZOLC", "ZOLClite", "ZOLCfull"),
        ),
    )
}

#: Family order for round-robin soaking and `repro synth list`.
FAMILY_NAMES: tuple[str, ...] = tuple(FAMILIES)


def family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown corpus family {name!r}; known: "
                       f"{', '.join(FAMILY_NAMES)}") from None


@dataclass(frozen=True)
class CorpusSpec:
    """One addressable corpus: ``count`` kernels of a family at a seed."""

    family: str
    seed: int = 0
    count: int = 10
    knobs: ShapeKnobs | None = None   # None: the family's preset

    def __post_init__(self) -> None:
        family(self.family)  # raises on unknown names
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def selector(self) -> str:
        return f"{SYNTH_PREFIX}{self.family}:{self.seed}:{self.count}"

    def kernel_names(self) -> list[str]:
        return [kernel_name(self.family, self.seed, index)
                for index in range(self.count)]


@dataclass(frozen=True)
class SynthKernel:
    """One deterministic corpus member, with provenance."""

    name: str
    family: str
    seed: int
    index: int
    source: str
    machine: "MachineSpec"
    pipeline: PipelineConfig
    knobs: ShapeKnobs
    provenance: dict = field(compare=False)

    def as_kernel(self) -> "Kernel":
        """This member as a registry-compatible workload kernel.

        Synthesized kernels carry no golden model — their correctness
        signal is cross-engine bit-identity (the soak loop's job), so
        the check only asserts the run actually halted.
        """
        from repro.workloads.api import Kernel

        def check(sim) -> None:
            from repro.workloads.api import KernelCheckError

            if not sim.state.halted:
                raise KernelCheckError(
                    f"{self.name}: run did not reach halt")

        return Kernel(
            name=self.name,
            description=f"synthesized {self.family} kernel "
                        f"(seed {self.seed}, index {self.index})",
            source=self.source,
            check=check,
            category="synthetic",
            notes=json.dumps(self.provenance, sort_keys=True),
        )


def kernel_name(family_name: str, seed: int, index: int) -> str:
    """The canonical name of one corpus member."""
    return f"{SYNTH_PREFIX}{family_name}:{seed}:{index}"


def _parse_triplet(name: str, what: str) -> tuple[str, int, int]:
    body = name[len(SYNTH_PREFIX):]
    parts = body.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"bad synth {what} {name!r}: want "
            f"synth:<family>:<seed>:<{'count' if what == 'selector' else 'index'}>")
    family(parts[0])
    try:
        first, second = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"bad synth {what} {name!r}: seed and "
                         f"{'count' if what == 'selector' else 'index'} "
                         "must be integers") from None
    return parts[0], first, second


def parse_selector(selector: str) -> CorpusSpec:
    """Parse a ``synth:<family>:<seed>:<count>`` corpus selector.

    This is the *list-context* grammar (plan ``kernels`` entries,
    ``repro check --kernel``, soak family arguments): the final field
    counts members.  In single-kernel contexts the same shape names one
    member and the final field is its index — see
    :func:`parse_kernel_name`.
    """
    family_name, seed, count = _parse_triplet(selector, "selector")
    return CorpusSpec(family=family_name, seed=seed, count=count)


def parse_kernel_name(name: str) -> tuple[str, int, int]:
    """Parse a ``synth:<family>:<seed>:<index>`` kernel name."""
    family_name, seed, index = _parse_triplet(name, "kernel name")
    if seed < 0 or index < 0:
        raise ValueError(f"bad synth kernel name {name!r}: negative "
                         "seed/index")
    return family_name, seed, index


def is_synth_name(name: str) -> bool:
    return name.startswith(SYNTH_PREFIX)


def generate_kernel(family_name: str, seed: int, index: int,
                    knobs: ShapeKnobs | None = None) -> SynthKernel:
    """Deterministically generate one corpus member.

    Random-access: member ``index`` never depends on other members
    having been generated.  ``knobs`` overrides the family preset (the
    shrinker's lever); overriding knobs changes the generated source
    but not the name, so shrunk reproducers record their knobs in
    provenance and regression manifests.
    """
    fam = family(family_name)
    knobs = knobs if knobs is not None else fam.knobs
    d = SeededDraw(kernel_stream_seed(family_name, seed, index))
    source = loop_nest_kernel(d, knobs)
    machine = _draw_machine(d, fam)
    pipeline = draw_pipeline(d) if fam.randomize_pipeline \
        else PipelineConfig()
    return SynthKernel(
        name=kernel_name(family_name, seed, index),
        family=family_name, seed=seed, index=index,
        source=source, machine=machine, pipeline=pipeline, knobs=knobs,
        provenance={
            "generator": f"repro.synth v{GENERATOR_VERSION}",
            "family": family_name,
            "seed": seed,
            "index": index,
            "knobs": knobs.to_dict(),
            "machine": machine.to_dict(),
            "pipeline": _pipeline_dict(pipeline),
            "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
        })


def generate(spec: CorpusSpec) -> list[SynthKernel]:
    """Expand a corpus spec into its members, in index order."""
    return [generate_kernel(spec.family, spec.seed, index, spec.knobs)
            for index in range(spec.count)]


def _draw_machine(d: SeededDraw, fam: Family) -> "MachineSpec":
    from repro.eval.machines import machine_by_name

    return machine_by_name(d.choice(fam.machine_pool))


def draw_pipeline(d: SeededDraw) -> PipelineConfig:
    """Randomized pipeline timing (mirrors the fuzz suites' strategy)."""
    return PipelineConfig(
        branch_penalty=d.integer(0, 3),
        jump_register_penalty=d.integer(0, 3),
        hwloop_penalty=d.integer(0, 2),
        load_use_stall=d.integer(0, 2),
        mul_extra_cycles=d.integer(0, 2),
        zolc_switch_cycles=d.integer(0, 2),
    )


def _pipeline_dict(pipeline: PipelineConfig) -> dict:
    return asdict(pipeline)


def shrunk_knob_candidates(knobs: ShapeKnobs) -> list[ShapeKnobs]:
    """Single-step knob reductions, most aggressive first.

    The soak shrinker walks this ladder greedily: each candidate
    reduces one dimension of the kernel space toward its floor, and a
    candidate is accepted when the re-generated kernel still fails the
    differential predicate.  A fixpoint (no candidate still fails)
    is the minimal reproducer.
    """
    out: list[ShapeKnobs] = []
    if knobs.max_nests > knobs.min_nests or knobs.min_nests > 1:
        out.append(replace(knobs, min_nests=1, max_nests=1))
    if knobs.max_depth > 1 or knobs.min_depth > 1:
        out.append(replace(knobs, min_depth=1, max_depth=1))
    if knobs.max_trips > knobs.min_trips or knobs.min_trips > 1:
        out.append(replace(knobs, min_trips=1,
                           max_trips=max(1, knobs.min_trips)))
        if knobs.max_trips > 2:
            out.append(replace(
                knobs, max_trips=max(knobs.min_trips,
                                     knobs.max_trips // 2)))
    if set(knobs.body_shapes) != {0}:
        out.append(replace(knobs, body_shapes=(0,)))
    if knobs.early_exit_den != 0:
        out.append(replace(knobs, early_exit_den=0))
    if knobs.max_body_ops > knobs.min_body_ops:
        out.append(replace(
            knobs, max_body_ops=max(knobs.min_body_ops,
                                    knobs.max_body_ops // 2)))
    if knobs.min_body_ops > 1:
        out.append(replace(knobs, min_body_ops=1))
    return out


# -- emission (`repro synth emit`) ------------------------------------

def slugify(name: str) -> str:
    """A filesystem-safe slug for a kernel name."""
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def emit_corpus(spec: CorpusSpec, out_dir: str | Path) -> dict:
    """Write a corpus as ``.s`` sources plus a ``manifest.json``.

    Returns the manifest payload.  Each kernel lands in
    ``<out_dir>/<slug>.s``; the manifest records every member's name,
    file, bindings and provenance, so an emitted corpus is replayable
    without the generator.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    members = []
    for kernel in generate(spec):
        filename = f"{slugify(kernel.name)}.s"
        (out_dir / filename).write_text(kernel.source)
        members.append({"name": kernel.name, "file": filename,
                        **kernel.provenance})
    manifest = {
        "selector": spec.selector,
        "family": spec.family,
        "seed": spec.seed,
        "count": spec.count,
        "generator": f"repro.synth v{GENERATOR_VERSION}",
        "kernels": members,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
