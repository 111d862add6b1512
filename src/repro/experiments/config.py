"""Unified run configuration: one object for every host-side choice.

:class:`RunConfig` is one frozen dataclass carrying the *plain-data*
execution choices (engine, jobs, max_steps, pipeline, store path +
cache flag), consumed by ``run_kernel`` / ``run_suite`` /
``run_experiment`` / ``run_plan``, the CLI commands and the service's
job-submit body.

Two principles:

* **Plain data only.**  Live objects stay dedicated parameters on the
  entry points (a constructed :class:`ExecutionBackend`, an open
  :class:`ResultStore`, a ``progress`` callback) — they are dependency
  injection, not configuration, and they do not serialize.
* **``None`` means defer.**  Every field defaults to ``None`` (or the
  tri-state ``cache``), meaning "use the next layer's choice" — the
  plan's own keys, then the historical defaults.

``jobs`` is the one execution choice.  With no injected backend,
``None`` or ``1`` runs cells in-process, ``0`` uses one worker per CPU
and ``n`` uses ``n`` worker processes.  An injected backend decides
its own workers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cpu.pipeline import PipelineConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.store import ResultStore

#: RunConfig fields a *service submit body* may set.  ``pipeline``
#: belongs to the plan itself (it is part of cache identity),
#: ``store``/``cache`` are local filesystem choices that make no sense
#: shipped to a server, and the server's own backend decides workers.
SUBMIT_RUN_CONFIG_FIELDS = ("engine", "max_steps")


@dataclass(frozen=True)
class RunConfig:
    """Host-side execution choices, as one value.

    Every field ``None`` (the default) defers to the consumer's next
    layer — a plan's own ``jobs``/``engine``/``max_steps`` keys, or the
    historical per-API defaults — so ``RunConfig()`` is always a safe
    "no opinion" value.
    """

    #: Simulator engine (``auto``/``step``);
    #: engines are bit-identical, so this only affects host time.
    engine: str | None = None
    #: Where cells run: ``None``/``1`` in-process, ``0`` one worker per
    #: CPU, ``n`` n workers.  Ignored when a backend is injected.
    jobs: int | None = None
    #: Per-run step budget.
    max_steps: int | None = None
    #: Pipeline timing override (part of measurement identity).
    pipeline: PipelineConfig | None = None
    #: Result-store directory.  An open :class:`ResultStore` instance
    #: stays a dependency-injection parameter on the entry points.
    store: str | None = None
    #: Tri-state cache switch: ``False`` bypasses the store entirely
    #: (the CLI's ``--no-cache``), ``True``/``None`` use it when given.
    cache: bool | None = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            from repro.cpu.simulator import ENGINES

            if self.engine not in ENGINES:
                raise ValueError(f"unknown engine {self.engine!r}; "
                                 f"known: {', '.join(ENGINES)}")
        if self.jobs is not None and self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(
                f"max_steps must be >= 1, got {self.max_steps}")
        if isinstance(self.store, Path):
            object.__setattr__(self, "store", str(self.store))

    # -- resolution ----------------------------------------------------

    def resolved_store(self) -> "ResultStore | None":
        """The result store these choices select (``None`` = no cache)."""
        if self.cache is False or self.store is None:
            return None
        from repro.experiments.store import ResultStore

        return ResultStore(self.store)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "pipeline":
                from dataclasses import asdict

                value = asdict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict,
                  allowed: tuple[str, ...] | None = None) -> "RunConfig":
        """Parse a ``run_config`` mapping (service submit bodies).

        ``allowed`` restricts the accepted keys — service submissions
        pass :data:`SUBMIT_RUN_CONFIG_FIELDS`, rejecting every other
        field with a clear error instead of silently dropping it
        server-side.
        """
        if not isinstance(data, dict):
            raise ValueError(f"run_config must be a mapping, "
                             f"got {type(data).__name__}")
        known = tuple(f.name for f in fields(cls))
        accepted = allowed if allowed is not None else known
        bad = set(data) - set(accepted)
        if bad:
            raise ValueError(
                f"unknown run_config key(s): {', '.join(sorted(bad))} "
                f"(accepted: {', '.join(accepted)})")
        values = dict(data)
        if isinstance(values.get("pipeline"), dict):
            values["pipeline"] = PipelineConfig(**values["pipeline"])
        if values.get("jobs") is not None:
            values["jobs"] = int(values["jobs"])
        if values.get("max_steps") is not None:
            values["max_steps"] = int(values["max_steps"])
        return cls(**values)
