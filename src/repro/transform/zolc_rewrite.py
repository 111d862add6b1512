"""The ZOLC code transform.

Takes XR32 assembly source (or its shared
:class:`~repro.transform.front.KernelFront`, which already holds the
recognised loop structure) and produces the program a ZOLC-aware
toolchain would emit:

* every loop-overhead instruction of a selected loop (induction init,
  induction update, compare, backward branch) is **deleted**;
* marker labels are planted at loop-structure points (body starts,
  trigger addresses, exit branches and targets);
* a ZOLC **initialization sequence** (``mtz`` stream + arm) is spliced
  in at each group root's preheader;
* the edited text is assembled through the front's image table (a
  text another machine of the row already produced reuses that
  ``Program``), and a matching :class:`~repro.core.ZolcController`
  factory is returned.

The result's :meth:`ZolcTransformResult.make_simulator` wires program,
controller and pipeline together for execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.assembler import Program, assemble, assemble_module
from repro.core.config import ZolcConfig
from repro.core.controller import ZolcController
from repro.core.init_seq import (
    EntryInitSpec,
    ExitInitSpec,
    LoopInitSpec,
    ValueSource,
    ZolcProgramSpec,
    emit_init_sequence,
)
from repro.cpu.analysis.cfg import CFG
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.simulator import Simulator
from repro.isa.registers import register_name
from repro.transform import analysis
from repro.transform.edit import EditPlan, apply_edits
from repro.transform.front import KernelFront
from repro.transform.legality import RegionGroup, TransformPlan, plan_transform
from repro.transform.patterns import OperandSource


class TransformError(ValueError):
    """The requested transform cannot be applied."""


@dataclass
class ZolcTransformResult:
    """Output of :func:`rewrite_for_zolc`."""

    program: Program
    config: ZolcConfig
    plan: TransformPlan
    specs: list[ZolcProgramSpec] = field(default_factory=list)
    init_instruction_count: int = 0
    removed_instruction_count: int = 0
    reload_instruction_count: int = 0  # per-entry bound reloads (static)

    @property
    def transformed_loop_count(self) -> int:
        return len(self.plan.all_planned())

    def make_controller(self) -> ZolcController:
        """A fresh controller matching this transform's configuration."""
        return ZolcController(self.config)

    def make_simulator(self, pipeline: PipelineConfig | None = None,
                       memory_size: int | None = None) -> Simulator:
        """Program + controller + simulator, ready to run."""
        controller = self.make_controller()
        kwargs = {} if memory_size is None else {"memory_size": memory_size}
        simulator = Simulator(self.program, pipeline=pipeline,
                              zolc=controller, **kwargs)
        controller.attach(simulator.state.regs)
        return simulator


def _operand_to_value_source(source: OperandSource) -> ValueSource:
    if source.kind == "imm":
        return ValueSource.imm(source.value)
    return ValueSource.reg(register_name(source.value))


def _group_spec(group: RegionGroup, group_index: int,
                labels_for: dict[tuple[int, int], dict[str, str]],
                exit_record_base: int,
                entry_record_base: int) -> ZolcProgramSpec:
    """Build one group's initialization spec from planted label names."""
    spec = ZolcProgramSpec()
    zolc_of_forest = {p.forest_id: p.zolc_id for p in group.loops}
    cascade_targets = {p.parent_forest_id for p in group.loops if p.cascade}
    record_id = exit_record_base
    entry_record_id = entry_record_base
    for planned in group.loops:
        names = labels_for[(group_index, planned.zolc_id)]
        pattern = planned.pattern
        has_own_trigger = planned.forest_id not in cascade_targets
        parent_zolc = (zolc_of_forest[planned.parent_forest_id]
                       if planned.parent_forest_id is not None else None)
        spec.loops.append(LoopInitSpec(
            loop_id=planned.zolc_id,
            trips=_operand_to_value_source(pattern.trips),
            initial=_operand_to_value_source(pattern.initial),
            step=pattern.step,
            index_reg=register_name(pattern.index_reg),
            body_label=names["body"],
            trigger_label=names["trigger"] if has_own_trigger else None,
            parent=parent_zolc,
            cascade=planned.cascade,
        ))
        for exit_no, exit_branch in enumerate(pattern.exit_branches):
            mask = 0
            for forest_id in exit_branch.exited_loop_ids:
                zolc_id = zolc_of_forest.get(forest_id)
                if zolc_id is not None:
                    mask |= 1 << zolc_id
            spec.exits.append(ExitInitSpec(
                record_id=record_id,
                branch_label=names[f"xbr{exit_no}"],
                target_label=names[f"xtg{exit_no}"],
                reset_mask=mask,
            ))
            record_id += 1
        if pattern.side_entry_count:
            # One record covers every side entry targeting the header.
            spec.entries.append(EntryInitSpec(
                record_id=entry_record_id,
                entry_label=names["body"],
                loop_id=planned.zolc_id,
            ))
            entry_record_id += 1
    return spec


def _plan_reload(edits: EditPlan, planned) -> int:
    """Per-entry TRIPS/INITIAL reloads for a nest-varying-bound loop.

    A one-``mtz``-per-field stream at the loop's own preheader keeps the
    table fields in step with the registers an enclosing loop rewrites
    (the bound-reload extension, ``ZolcConfig.bound_reload``).
    """
    from repro.asm.parser import SourceInstruction
    from repro.core import tables as T

    pattern = planned.pattern
    reloads: list[SourceInstruction] = []
    if pattern.trips.kind == "reg":
        reloads.append(SourceInstruction(
            "mtz",
            [register_name(pattern.trips.value),
             str(T.loop_selector(planned.zolc_id, T.F_TRIPS))],
            0, pseudo_origin="zolc-reload"))
    if pattern.initial.kind == "reg":
        reloads.append(SourceInstruction(
            "mtz",
            [register_name(pattern.initial.value),
             str(T.loop_selector(planned.zolc_id, T.F_INITIAL))],
            0, pseudo_origin="zolc-reload"))
    edits.insert_before(pattern.header_index, reloads)
    return len(reloads)


def _require_imm_sources(spec: ZolcProgramSpec) -> None:
    for loop_spec in spec.loops:
        for source in (loop_spec.trips, loop_spec.initial):
            if source.kind != "imm":
                raise TransformError(
                    "multi-entry nests require immediate loop parameters "
                    f"(loop {loop_spec.loop_id} uses a {source.kind} source)")


def _dominator_chain(cfg: CFG, idom, block_id: int) -> list[int]:
    """Blocks dominating ``block_id``, innermost first (inclusive).

    An unreachable block (a side entry no path reaches) has no
    dominator; its chain is rooted at the entry, so the initialization
    still lands on the path every reachable entry takes.
    """
    chain = [block_id]
    while chain[-1] != cfg.entry:
        parent = idom[chain[-1]]
        chain.append(cfg.entry if parent is None else parent)
    return chain


def _dominating_insertion_index(baseline: Program, cfg: CFG, idom,
                                root_pattern) -> int:
    """Instruction index dominating the preheader and every side entry."""
    blocks = [root_pattern.preheader_block, *root_pattern.side_entry_blocks]
    chains = [_dominator_chain(cfg, idom, b) for b in blocks]
    common = set(chains[0])
    for chain in chains[1:]:
        common &= set(chain)
    # Nearest common dominator: the first block of any chain in `common`.
    ncd = next(b for b in chains[0] if b in common)
    term_index = cfg.blocks[ncd].end
    if baseline.instructions[term_index].is_control_flow():
        return term_index
    return term_index + 1


def rewrite_for_zolc(kernel: str | KernelFront,
                     config: ZolcConfig) -> ZolcTransformResult:
    """Retarget an assembly program to a ZOLC configuration.

    ``kernel`` is the assembly source or its :class:`KernelFront`; the
    front's analysis is only read, so one front serves every
    configuration, and the edited text is assembled through its image
    table (:meth:`KernelFront.image`), so configurations whose edits
    agree share one ``Program``.
    """
    front = (kernel if isinstance(kernel, KernelFront)
             else KernelFront.of(assemble(kernel)))
    baseline, module, cfg = front.program, front.module, front.cfg
    plan = plan_transform(baseline, cfg, front.forest, front.patterns,
                          front.failures, config)

    edits = EditPlan()
    labels_for: dict[tuple[int, int], dict[str, str]] = {}
    reload_count = 0

    for group_index, group in enumerate(plan.groups):
        for planned in group.loops:
            pattern = planned.pattern
            keep_init = planned.needs_reload and pattern.initial.kind == "reg"
            for index in pattern.deleted_indices:
                if keep_init and index in pattern.init_indices:
                    # Reloaded loops keep their induction init: the
                    # register must take the fresh per-entry value.
                    continue
                edits.delete(index)
            if planned.needs_reload:
                reload_count += _plan_reload(edits, planned)
            uid = f"{group_index}_{planned.zolc_id}"
            names = {
                "body": f"__zolc_body_{uid}",
                "trigger": f"__zolc_trig_{uid}",
            }
            edits.add_label(pattern.header_index, names["body"])
            trigger_index = pattern.after_loop_index
            if trigger_index >= len(baseline.instructions):
                raise TransformError(
                    f"loop at index {pattern.header_index}: no instruction "
                    f"after the latch (program must end with halt)")
            edits.add_label(trigger_index, names["trigger"])
            for exit_no, exit_branch in enumerate(pattern.exit_branches):
                branch_label = f"__zolc_xbr_{uid}_{exit_no}"
                target_label = f"__zolc_xtg_{uid}_{exit_no}"
                names[f"xbr{exit_no}"] = branch_label
                names[f"xtg{exit_no}"] = target_label
                edits.add_label(exit_branch.branch_index, branch_label)
                target_index = analysis.index_of_address(
                    baseline, exit_branch.target_address)
                edits.add_label(target_index, target_label)
            labels_for[(group_index, planned.zolc_id)] = names

    total_init = 0
    exit_record_base = 0
    entry_record_base = 0
    specs: list[ZolcProgramSpec] = []
    for group_index, group in enumerate(plan.groups):
        spec = _group_spec(group, group_index, labels_for, exit_record_base,
                           entry_record_base)
        exit_record_base += len(spec.exits)
        entry_record_base += len(spec.entries)
        specs.append(spec)
        init_block = emit_init_sequence(spec, reset_first=True)
        total_init += len(init_block)
        root_pattern = group.loop_by_forest_id(group.root_forest_id).pattern
        if root_pattern.side_entry_blocks:
            # Multi-entry nest: the initialization must dominate *every*
            # entry, not just the preheader path.
            _require_imm_sources(spec)
            insert_at = _dominating_insertion_index(
                baseline, cfg, front.forest.idom, root_pattern)
        else:
            insert_at = root_pattern.header_index
        edits.insert_before(insert_at, init_block)

    program = front.image(apply_edits(module.text, edits), assemble_module)
    return ZolcTransformResult(
        program=program, config=config, plan=plan, specs=specs,
        init_instruction_count=total_init,
        removed_instruction_count=len(edits.deletions),
        reload_instruction_count=reload_count,
    )
