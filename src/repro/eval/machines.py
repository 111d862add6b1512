"""Machine configurations under evaluation.

Mirrors the paper's Section 3: two XiRisc baselines (``XRdefault``,
``XRhrdwil``) and the three ZOLC-equipped variants.  A machine is pure
*data* — a :class:`MachineSpec` holds the kind plus the optional
:class:`~repro.core.config.ZolcConfig` — so any machine (including
user-defined ZOLC variants) pickles to worker processes and serializes
to/from plan files.  A spec knows how to *prepare* a kernel (apply its
code transform) and how to build the simulator that runs it.

Preparation splits into a per-source front end and a per-machine back
end.  :func:`kernel_front` assembles a source once; the CFG, loop
forest and matched loop patterns it carries are shared by every
machine prepared from it (:class:`~repro.transform.front.KernelFront`).
So a row of five machines analyses its kernel once, and XRdefault's
program *is* the front's baseline image.

The five paper machines are pre-registered in the module-level
:class:`MachineRegistry`; ablation studies register their own variants
with :func:`register_machine` and everything downstream (suite runner,
experiment plans, CLI) picks them up by name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.asm.assembler import Program, assemble
from repro.core.config import UZOLC, ZOLC_FULL, ZOLC_LITE, ZolcConfig
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.simulator import Simulator
from repro.transform.front import KernelFront
from repro.transform.hwlp_rewrite import HwlpTransformResult, rewrite_for_hwlp
from repro.transform.zolc_rewrite import ZolcTransformResult, rewrite_for_zolc

MACHINE_KINDS = ("default", "hwlp", "zolc")


@dataclass(frozen=True)
class MachineSpec:
    """One processor configuration, as plain data.

    ``kind`` selects the code transform; ``zolc_config`` carries the
    controller parameters for ``kind == "zolc"``.  Instances are
    hashable, picklable and JSON-serializable (:meth:`to_dict` /
    :meth:`from_dict`), which is what lets the process-pool backend
    ship arbitrary machines to workers by value.
    """

    name: str
    kind: str                       # "default" | "hwlp" | "zolc"
    zolc_config: ZolcConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in MACHINE_KINDS:
            raise ValueError(f"unknown machine kind {self.kind!r}; "
                             f"known: {', '.join(MACHINE_KINDS)}")
        if self.kind == "zolc" and self.zolc_config is None:
            raise ValueError(f"machine {self.name!r}: kind 'zolc' needs "
                             "a zolc_config")

    def prepare(self, kernel: str | KernelFront) -> "PreparedKernel":
        """Apply this machine's code transform to a kernel.

        ``kernel`` is the assembly source or the :class:`KernelFront`
        of one (see :func:`kernel_front`); preparing several machines
        from one front assembles and analyses the source once.
        """
        front = (kernel if isinstance(kernel, KernelFront)
                 else kernel_front(kernel))
        if self.kind == "default":
            return PreparedKernel(self, front.program, front=front)
        if self.kind == "hwlp":
            result = rewrite_for_hwlp(front)
            return PreparedKernel(self, result.program, front=front,
                                  hwlp=result)
        assert self.zolc_config is not None
        result = rewrite_for_zolc(front, self.zolc_config)
        return PreparedKernel(self, result.program, front=front, zolc=result)

    def to_dict(self) -> dict:
        """Plain-data form for plan files and cache keys."""
        out: dict = {"name": self.name, "kind": self.kind}
        if self.zolc_config is not None:
            out["zolc"] = asdict(self.zolc_config)
        return out

    @classmethod
    def from_dict(cls, data: dict | str) -> "MachineSpec":
        """Parse a plan-file machine entry.

        Accepts a registry name (``"ZOLClite"``), or a dict with
        ``name``/``kind`` and a ``zolc`` entry that is itself either a
        canonical-config name or a full parameter dict.
        """
        if isinstance(data, str):
            return machine_by_name(data)
        if not isinstance(data, dict):
            raise ValueError(f"machine entry must be a name or a dict, "
                             f"got {type(data).__name__}")
        try:
            name = data["name"]
            kind = data["kind"]
        except KeyError as exc:
            raise ValueError(f"machine entry missing key {exc}") from None
        zolc = data.get("zolc")
        config: ZolcConfig | None = None
        if zolc is not None:
            if isinstance(zolc, str):
                from repro.core.config import config_by_name
                config = config_by_name(zolc)
            else:
                try:
                    config = ZolcConfig(**zolc)
                except TypeError as exc:
                    raise ValueError(f"machine {name!r}: bad zolc config: "
                                     f"{exc}") from None
        return cls(name=name, kind=kind, zolc_config=config)


def kernel_front(source: str) -> KernelFront:
    """Assemble a kernel source once, for every machine to prepare from."""
    return KernelFront.of(assemble(source))


@dataclass
class PreparedKernel:
    """A kernel after machine-specific preparation.

    ``front`` is the shared front end it was prepared from.
    """

    machine: MachineSpec
    program: Program
    hwlp: HwlpTransformResult | None = None
    zolc: ZolcTransformResult | None = None
    front: KernelFront | None = None

    def make_simulator(self, pipeline: PipelineConfig | None = None) -> Simulator:
        if self.zolc is not None:
            return self.zolc.make_simulator(pipeline=pipeline)
        return Simulator(self.program, pipeline=pipeline)

    @property
    def transformed_loops(self) -> int:
        if self.zolc is not None:
            return self.zolc.transformed_loop_count
        if self.hwlp is not None:
            return self.hwlp.converted_count
        return 0


XR_DEFAULT = MachineSpec("XRdefault", "default")
XR_HRDWIL = MachineSpec("XRhrdwil", "hwlp")
M_UZOLC = MachineSpec("uZOLC", "zolc", UZOLC)
M_ZOLC_LITE = MachineSpec("ZOLClite", "zolc", ZOLC_LITE)
M_ZOLC_FULL = MachineSpec("ZOLCfull", "zolc", ZOLC_FULL)

#: Figure 2 compares ZOLClite against the two XiRisc baselines.
FIGURE2_MACHINES: tuple[MachineSpec, ...] = (XR_DEFAULT, XR_HRDWIL,
                                             M_ZOLC_LITE)

ALL_MACHINES: tuple[MachineSpec, ...] = (
    XR_DEFAULT, XR_HRDWIL, M_UZOLC, M_ZOLC_LITE, M_ZOLC_FULL)


@dataclass
class MachineRegistry:
    """Named collection of machine specs (paper machines + variants)."""

    machines: dict[str, MachineSpec] = field(default_factory=dict)

    def register(self, spec: MachineSpec, replace: bool = False) -> MachineSpec:
        key = spec.name.lower()
        if not replace and key in self.machines \
                and self.machines[key] != spec:
            raise ValueError(f"machine {spec.name!r} already registered "
                             "with a different configuration")
        self.machines[key] = spec
        return spec

    def get(self, name: str) -> MachineSpec:
        try:
            return self.machines[name.lower()]
        except KeyError:
            raise KeyError(
                f"unknown machine {name!r}; known: "
                f"{', '.join(m.name for m in self.all())}") from None

    def names(self) -> list[str]:
        return [spec.name for spec in self.machines.values()]

    def all(self) -> list[MachineSpec]:
        return list(self.machines.values())


_REGISTRY = MachineRegistry()
for _spec in ALL_MACHINES:
    _REGISTRY.register(_spec)


def machine_registry() -> MachineRegistry:
    """The process-wide machine registry."""
    return _REGISTRY


def register_machine(spec: MachineSpec, replace: bool = False) -> MachineSpec:
    """Register a user-defined machine variant for lookup by name."""
    return _REGISTRY.register(spec, replace=replace)


def machine_by_name(name: str) -> MachineSpec:
    return _REGISTRY.get(name)
