"""The ``repro check`` driver: static verification over the suite.

Bridges the layers the cpu-level analysis package deliberately does
not import: it resolves a prepared kernel's ZOLC programming
(:class:`~repro.core.init_seq.ZolcProgramSpec` label records) through
the program's symbol table into the verifier's
:class:`~repro.cpu.analysis.verify.StaticZolcPlan`, runs the verifier
rules (ZV001–ZV006) and optionally the generated-code auditor
(AU001–AU005) for every requested kernel × machine, and aggregates the
structured diagnostics into one JSON-able report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cpu.analysis.audit import audit_codegen
from repro.cpu.analysis.verify import (
    Diagnostic,
    StaticZolcPlan,
    VerifyContext,
    WatchedLoop,
    trace_candidate_bodies,
    verify_program,
)
from repro.cpu.ir import build_ir, ir_failure
from repro.eval.machines import MachineSpec, kernel_front, machine_registry
from repro.isa.registers import register_index
from repro.workloads.suite import registry

if TYPE_CHECKING:
    from repro.eval.machines import PreparedKernel
    from repro.transform.front import KernelFront
    from repro.workloads.api import Kernel


def static_plan(prepared: PreparedKernel) -> StaticZolcPlan | None:
    """Resolve a prepared kernel's ZOLC specs into a static plan.

    Returns ``None`` for machines without a controller.  A loop
    without its own trigger (a cascade target) takes its watched-body
    bound from the cascading descendant that decides it.
    """
    zolc = prepared.zolc
    if zolc is None:
        return None
    symbols = prepared.program.symbols
    loops: list[WatchedLoop] = []
    entry_pcs: list[int] = []
    exit_pcs: list[int] = []
    for group, spec in enumerate(zolc.specs):
        by_id = {ls.loop_id: ls for ls in spec.loops}

        def own_trigger(loop_id: int, _by_id=by_id) -> str | None:
            """The trigger label bounding a loop's watched body."""
            seen: set[int] = set()
            current = loop_id
            while current not in seen:
                seen.add(current)
                ls = _by_id[current]
                if ls.trigger_label is not None:
                    return ls.trigger_label
                cascading = [c for c in _by_id.values()
                             if c.cascade and c.parent == current]
                if not cascading:
                    return None
                current = cascading[0].loop_id
            return None

        entry_loop_ids = {e.loop_id for e in spec.entries}
        for ls in spec.loops:
            trigger = (symbols[ls.trigger_label]
                       if ls.trigger_label is not None else None)
            span_label = own_trigger(ls.loop_id)
            loops.append(WatchedLoop(
                loop_id=ls.loop_id, group=group,
                index_reg=register_index(ls.index_reg),
                body_pc=symbols[ls.body_label],
                trigger_pc=trigger,
                span_end=(symbols[span_label]
                          if span_label is not None else None),
                has_entry_record=ls.loop_id in entry_loop_ids))
        entry_pcs.extend(symbols[e.entry_label] for e in spec.entries)
        exit_pcs.extend(symbols[e.branch_label] for e in spec.exits)
    return StaticZolcPlan(loops=tuple(loops),
                          entry_pcs=tuple(entry_pcs),
                          exit_pcs=tuple(exit_pcs))


def check_kernel(kernel: Kernel, machine: MachineSpec,
                 audit: bool = False,
                 front: KernelFront | None = None) -> list[Diagnostic]:
    """Verify (and optionally audit) one kernel on one machine.

    ``front`` is the kernel's shared front end, when the caller checks
    it on several machines.
    """
    prepared = machine.prepare(kernel.source if front is None else front)
    program = prepared.program
    ir = build_ir(program)
    if ir is None:
        reason = ir_failure(program)
        return [Diagnostic(
            "ZV001", "warning",
            f"program has no IR, nothing to verify ({reason})",
        ).tagged(kernel.name, machine.name)]
    plan = static_plan(prepared)
    base = program.text_base
    entry = program.entry_point()
    findings = verify_program(ir, base, entry_pc=entry, plan=plan)
    if audit:
        ctx = VerifyContext(ir=ir, base=base, entry_pc=entry,
                            plan=plan)
        traces = ([(start, tslot, lp.loop_id)
                   for start, tslot, lp in trace_candidate_bodies(ctx)]
                  if plan is not None else [])
        watched = (plan.watched_next_pcs() if plan is not None
                   else frozenset())
        sim = prepared.make_simulator()
        findings.extend(audit_codegen(sim, watched=watched,
                                      traces=traces))
    return [d.tagged(kernel.name, machine.name) for d in findings]


@dataclass
class CheckReport:
    """Aggregated diagnostics over a kernel × machine sweep."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    kernels: list[str] = field(default_factory=list)
    machines: list[str] = field(default_factory=list)
    audited: bool = False

    def count(self, severity: str) -> int:
        return sum(d.severity == severity for d in self.diagnostics)

    @property
    def errors(self) -> int:
        return self.count("error")

    @property
    def warnings(self) -> int:
        return self.count("warning")

    def to_dict(self) -> dict[str, object]:
        return {
            "kernels": self.kernels,
            "machines": self.machines,
            "audited": self.audited,
            "checked": len(self.kernels) * len(self.machines),
            "errors": self.errors,
            "warnings": self.warnings,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def run_check(kernel_names: list[str] | None = None,
              machine_names: list[str] | None = None,
              audit: bool = False) -> CheckReport:
    """Check kernels × machines (defaults: whole suite × registry).

    ``kernel_names`` accepts the shared selector grammar (``@figure2``,
    ``@all``, ``synth:<family>:<seed>:<count>``, bare names), so
    synthesized corpora flow through the static verifier too.
    """
    from repro.workloads.suite import expand_kernel_selectors

    reg = registry()
    kernels = ([reg.get(name)
                for name in expand_kernel_selectors(kernel_names)]
               if kernel_names else reg.all())
    machines = ([machine_registry().get(name)
                 for name in machine_names]
                if machine_names else machine_registry().all())
    report = CheckReport(kernels=[k.name for k in kernels],
                         machines=[m.name for m in machines],
                         audited=audit)
    for kernel in kernels:
        front = kernel_front(kernel.source)
        for machine in machines:
            report.diagnostics.extend(
                check_kernel(kernel, machine, audit=audit, front=front))
    return report
