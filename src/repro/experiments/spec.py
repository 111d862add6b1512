"""Declarative experiment plans.

An :class:`ExperimentSpec` describes one grid study — kernels ×
machines × pipeline sweep axes × repeats — as plain data.  Specs
round-trip through dicts (:meth:`ExperimentSpec.to_dict` /
:meth:`ExperimentSpec.from_dict`) and therefore through JSON and TOML
plan files (:func:`load_plan`, :meth:`ExperimentSpec.to_json`), which is
what makes every study in the repo reproducible from a checked-in file
instead of bespoke driver code.

Kernel selectors are registry names, plus group selectors:
``"@figure2"`` (the paper's 12 benchmarks, in figure order), ``"@all"``
(every registered kernel) and ``"synth:<family>:<seed>:<count>"`` (the
first ``count`` members of a synthesized corpus — see
:mod:`repro.synth.corpus`).  Machines are
:class:`~repro.eval.machines.MachineSpec` values — registry names or
inline definitions, including custom ZOLC variants.

Plans also carry *host-side* execution choices — ``jobs`` (``None`` or
``1`` in-process, ``0`` one worker per CPU, ``n`` workers) and
``engine`` (``auto``, the default, or ``step``) — which never affect
the measured results (all engines retire bit-identical sequences) and
are therefore not part of any cell's cache identity; the CLI's
``--jobs`` / ``--engine`` flags override them per invocation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.cpu.pipeline import PipelineConfig
from repro.cpu.simulator import DEFAULT_MAX_STEPS, ENGINES
from repro.eval.machines import MachineSpec

_PIPELINE_FIELDS = tuple(f.name for f in fields(PipelineConfig))
_PLAN_KEYS = ("name", "kernels", "machines", "pipeline", "sweep", "repeats",
              "max_steps", "jobs", "engine")


class PlanError(ValueError):
    """A plan file could not be parsed into an :class:`ExperimentSpec`."""


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension over pipeline-timing parameters.

    Each value in ``values`` is applied to every pipeline field named in
    ``fields`` (defaulting to the axis name itself), and appears as an
    axis column in the result records.
    """

    name: str
    values: tuple[int, ...]
    fields: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "fields",
                           tuple(self.fields) or (self.name,))
        if not self.values:
            raise ValueError(f"sweep axis {self.name!r} has no values")
        for field_name in self.fields:
            if field_name not in _PIPELINE_FIELDS:
                raise ValueError(
                    f"sweep axis {self.name!r}: {field_name!r} is not a "
                    f"PipelineConfig field (known: "
                    f"{', '.join(_PIPELINE_FIELDS)})")

    def to_dict(self) -> dict:
        return {"name": self.name, "values": list(self.values),
                "fields": list(self.fields)}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepAxis":
        try:
            return cls(name=data["name"],
                       values=tuple(data["values"]),
                       fields=tuple(data.get("fields", ())))
        except KeyError as exc:
            raise ValueError(f"sweep axis missing key {exc}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative, serializable description of one grid study."""

    name: str
    kernels: tuple[str, ...]
    machines: tuple[MachineSpec, ...]
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    sweep: tuple[SweepAxis, ...] = ()
    repeats: int = 1
    max_steps: int = DEFAULT_MAX_STEPS
    #: Where the plan's cells run by default (see
    #: :class:`~repro.experiments.config.RunConfig`); the CLI's
    #: ``--jobs`` flag overrides it.
    jobs: int | None = None
    #: Simulator engine for every cell (host-side choice only: engines
    #: retire bit-identical results, so this is not part of the cell's
    #: cache identity).
    engine: str = "auto"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "sweep", tuple(self.sweep))
        if not self.kernels:
            raise ValueError(f"experiment {self.name!r} selects no kernels")
        if not self.machines:
            raise ValueError(f"experiment {self.name!r} selects no machines")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.jobs is not None and self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; known: "
                             f"{', '.join(ENGINES)}")
        seen: set[str] = set()
        for axis in self.sweep:
            if axis.name in seen:
                raise ValueError(f"duplicate sweep axis {axis.name!r}")
            seen.add(axis.name)

    # -- grid expansion ------------------------------------------------

    def kernel_names(self) -> list[str]:
        """Expand kernel selectors against the workload registry.

        Selector grammar (``@figure2``, ``@all``,
        ``synth:<family>:<seed>:<count>``, bare names) lives in
        :func:`repro.workloads.suite.expand_kernel_selectors`.
        """
        from repro.workloads.suite import expand_kernel_selectors

        return expand_kernel_selectors(self.kernels)

    def axis_points(self) -> list[dict[str, int]]:
        """Cross-product of the sweep axes as ``{axis: value}`` dicts."""
        points: list[dict[str, int]] = [{}]
        for axis in self.sweep:
            points = [{**point, axis.name: value}
                      for point in points for value in axis.values]
        return points

    def pipeline_for(self, point: dict[str, int]) -> PipelineConfig:
        """The pipeline configuration at one sweep point."""
        overrides: dict[str, int] = {}
        for axis in self.sweep:
            for field_name in axis.fields:
                overrides[field_name] = point[axis.name]
        return replace(self.pipeline, **overrides) if overrides \
            else self.pipeline

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kernels": list(self.kernels),
            "machines": [m.to_dict() for m in self.machines],
            "pipeline": asdict(self.pipeline),
            "sweep": [axis.to_dict() for axis in self.sweep],
            "repeats": self.repeats,
            "max_steps": self.max_steps,
            "engine": self.engine,
        }
        if self.jobs is not None:
            out["jobs"] = self.jobs
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise PlanError(f"plan must be a mapping, "
                            f"got {type(data).__name__}")
        unknown = set(data) - set(_PLAN_KEYS)
        if unknown:
            raise PlanError(f"unknown plan keys: "
                            f"{', '.join(sorted(unknown))} "
                            f"(accepted: {', '.join(_PLAN_KEYS)})")
        try:
            kernel_entries = data["kernels"]
            machine_entries = data["machines"]
        except KeyError as exc:
            raise PlanError(f"plan missing key {exc}") from None
        for key, entries in (("kernels", kernel_entries),
                             ("machines", machine_entries)):
            if not isinstance(entries, (list, tuple)):
                raise PlanError(f"plan key {key!r} must be a list, "
                                f"got {type(entries).__name__}")
        kernels = tuple(kernel_entries)
        try:
            machines = tuple(MachineSpec.from_dict(entry)
                             for entry in machine_entries)
            pipeline = PipelineConfig(**data.get("pipeline", {}))
            sweep = tuple(SweepAxis.from_dict(axis)
                          for axis in data.get("sweep", ()))
            jobs = data.get("jobs")
            return cls(
                name=data.get("name", "experiment"),
                kernels=kernels,
                machines=machines,
                pipeline=pipeline,
                sweep=sweep,
                repeats=int(data.get("repeats", 1)),
                max_steps=int(data.get("max_steps", DEFAULT_MAX_STEPS)),
                jobs=None if jobs is None else int(jobs),
                engine=data.get("engine", "auto"),
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise PlanError(f"bad plan: {exc}") from exc


def parse_plan(text: str, fmt: str) -> ExperimentSpec:
    """Parse plan text in ``fmt`` (``"json"`` or ``"toml"``)."""
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"invalid JSON plan: {exc}") from None
    elif fmt == "toml":
        import tomllib
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise PlanError(f"invalid TOML plan: {exc}") from None
    else:
        raise PlanError(f"unknown plan format {fmt!r} (use json or toml)")
    return ExperimentSpec.from_dict(data)


def load_plan(path: str | Path) -> ExperimentSpec:
    """Load an :class:`ExperimentSpec` from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    suffix = path.suffix.lower().lstrip(".")
    if suffix not in ("json", "toml"):
        raise PlanError(f"plan file {path.name!r} must end in "
                        ".json or .toml")
    return parse_plan(path.read_text(), suffix)
