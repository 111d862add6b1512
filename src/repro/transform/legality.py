"""Legality checking and region planning for the ZOLC transform.

Given the matched loop patterns of a program and a ZOLC configuration,
this module decides *which* loops the controller takes over and how they
are grouped:

* a **group** is a maximal set of selected loops forming a nest — one
  initialization block (reset + loop tables + exit/entry records + arm)
  is placed at the group root's preheader;
* **uZOLC** ("usable for single loops") selects innermost loops only and
  makes every loop its own group, re-armed at each entry;
* configurations without multiple-entry/exit support (uZOLC, ZOLClite)
  reject loops with data-dependent exit branches or side entries;
  ZOLCfull registers them, up to ``entries_per_loop`` per loop;
* capacity limits (``max_loops``, ``max_task_entries``) shed the
  *shallowest* loops first — inner loops carry the most overhead, so
  they are the most profitable to keep;
* a loop is declined when a selected inner loop's exit branch targets
  its deleted latch (a ``break`` that "continues" the outer loop): the
  exit record would land past the latch and the loop would stop.

The output plan drives :mod:`repro.transform.zolc_rewrite`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.asm.assembler import Program
from repro.cfg.loops import LoopForest
from repro.core.config import ZolcConfig
from repro.cpu.analysis.cfg import CFG
from repro.cpu.ir import build_ir
from repro.transform import analysis
from repro.transform.patterns import LoopPattern


def _writes_register(program: Program, indices: list[int],
                     reg: int) -> bool:
    """Whether any of the given text slots defines ``reg``.

    Answered from the engine IR's def metadata — the same decode the
    execution tiers lower from, so the legality decision and the
    runtime agree by construction.  Programs without an IR (hand-built
    sparse images) fall back to the Instruction-level scan.
    """
    ir = build_ir(program)
    if ir is None:
        return analysis.reg_written_in(program, indices, reg)
    return any(reg in ir[i].defs for i in indices)


@dataclass
class PlannedLoop:
    """One loop the ZOLC will drive."""

    forest_id: int
    zolc_id: int                  # id within its group's tables
    pattern: LoopPattern
    parent_forest_id: int | None  # nearest *selected* ancestor in the group
    cascade: bool = False         # expiry cascades into the parent decision
    needs_reload: bool = False    # re-program TRIPS/INITIAL at each entry


@dataclass
class RegionGroup:
    """One nest of selected loops sharing an initialization block."""

    root_forest_id: int
    loops: list[PlannedLoop] = field(default_factory=list)

    def loop_by_forest_id(self, forest_id: int) -> PlannedLoop:
        for planned in self.loops:
            if planned.forest_id == forest_id:
                return planned
        raise KeyError(forest_id)


@dataclass
class TransformPlan:
    """Full plan: groups to transform plus rejection diagnostics."""

    groups: list[RegionGroup] = field(default_factory=list)
    rejected: dict[int, str] = field(default_factory=dict)

    @property
    def selected_forest_ids(self) -> set[int]:
        return {p.forest_id for g in self.groups for p in g.loops}

    def all_planned(self) -> list[PlannedLoop]:
        return [p for g in self.groups for p in g.loops]


def plan_transform(program: Program, cfg: CFG,
                   forest: LoopForest, patterns: Mapping[int, LoopPattern],
                   failures: Mapping[int, str],
                   config: ZolcConfig) -> TransformPlan:
    """Build the transformation plan for one program and configuration."""
    plan = TransformPlan(rejected=dict(failures))
    eligible: dict[int, LoopPattern] = {}
    reloads: set[int] = set()
    for forest_id, pattern in patterns.items():
        reason = _config_rejection(pattern, forest, config)
        if reason is None:
            reason, reload = _reg_source_rejection(
                pattern, program, cfg, forest, config)
            if reload:
                reloads.add(forest_id)
        if reason is not None:
            plan.rejected[forest_id] = reason
        else:
            eligible[forest_id] = pattern

    _reject_index_conflicts(eligible, forest, plan)
    _reject_latch_exit_targets(eligible, forest, program, plan)

    if config.single_shot:
        _plan_single_shot(eligible, forest, plan)
    else:
        _plan_groups(eligible, forest, config, plan, program)
    for planned in plan.all_planned():
        planned.needs_reload = planned.forest_id in reloads
    return plan


def _config_rejection(pattern: LoopPattern, forest: LoopForest,
                      config: ZolcConfig) -> str | None:
    loop = pattern.loop
    if not config.multi_entry_exit:
        if pattern.exit_branches:
            return (f"loop@{loop.header}: {len(pattern.exit_branches)} "
                    f"data-dependent exit(s) need multi-exit support "
                    f"({config.name} has none)")
        if pattern.side_entry_count:
            return (f"loop@{loop.header}: {pattern.side_entry_count} side "
                    f"entrie(s) need multi-entry support "
                    f"({config.name} has none)")
    else:
        if len(pattern.exit_branches) > config.entries_per_loop:
            return (f"loop@{loop.header}: {len(pattern.exit_branches)} exits "
                    f"exceed {config.entries_per_loop} records per loop")
        if pattern.side_entry_count > config.entries_per_loop:
            return (f"loop@{loop.header}: {pattern.side_entry_count} side "
                    f"entries exceed {config.entries_per_loop} records")
    if pattern.side_entry_count and (pattern.trips.kind != "imm"
                                     or pattern.initial.kind != "imm"):
        # Multi-entry loops are initialised at a common dominator of all
        # entries, where register values are not generally available.
        return (f"loop@{loop.header}: side entries require immediate "
                f"trip/initial values")
    if config.single_shot and not loop.is_innermost():
        return (f"loop@{loop.header}: {config.name} handles single "
                f"(innermost) loops only")
    if config.single_shot and pattern.trips.kind == "imm":
        # Single-shot controllers re-run the initialization sequence at
        # every loop entry; a toolchain only converts the loop when the
        # removed per-iteration overhead amortises that cost.
        estimated_init = 19        # reset + ~8 staged mtz writes + arm
        per_iteration_saving = 3   # update + branch + flush
        if pattern.trips.value * per_iteration_saving <= estimated_init:
            return (f"loop@{loop.header}: {pattern.trips.value} trips do "
                    f"not amortise {config.name}'s per-entry "
                    f"initialization")
    if pattern.initial_from_self and loop.parent is not None \
            and not config.single_shot:
        # The initial value is read from the register at init time, which
        # only sees the right value outside every enclosing loop.
        return (f"loop@{loop.header}: induction initial value produced "
                f"inside an enclosing loop")
    return None


def _reg_source_rejection(pattern: LoopPattern, program: Program,
                          cfg: CFG, forest: LoopForest,
                          config: ZolcConfig) -> tuple[str | None, bool]:
    """Register-valued trip/initial sources must be nest-invariant.

    The initialization sequence reads these registers *once*, at the
    group root's preheader.  If the register is rewritten inside the
    loop itself, the value changes mid-run — always rejected.  If it is
    rewritten by an *enclosing* loop (e.g. an FFT stage loop updating
    the butterfly count) the loop is rejected unless:

    * the configuration is single-shot (uZOLC re-arms at the loop's own
      preheader on every entry, reading the fresh value), or
    * ``config.bound_reload`` is enabled — the transform then emits a
      per-entry ``mtz`` reload of the affected table fields, and this
      function reports ``(None, True)``.
    """
    sources = [s for s in (pattern.trips, pattern.initial) if s.kind == "reg"]
    if not sources:
        return None, False
    loop = pattern.loop
    own_indices = [i for i in
                   analysis.loop_instruction_indices(cfg, loop)
                   if i not in pattern.deleted_indices]
    for source in sources:
        if _writes_register(program, own_indices, source.value):
            return (f"loop@{loop.header}: trip/initial register "
                    f"r{source.value} is rewritten inside the loop itself",
                    False)
    if config.single_shot:
        return None, False
    for ancestor in forest.ancestors(loop):
        indices = [i for i in analysis.loop_instruction_indices(
            cfg, ancestor)
            if i not in pattern.deleted_indices]
        for source in sources:
            if _writes_register(program, indices, source.value):
                if config.bound_reload:
                    return None, True
                return (f"loop@{loop.header}: trip/initial register "
                        f"r{source.value} is rewritten inside "
                        f"loop@{ancestor.header}", False)
    return None, False


def _reject_index_conflicts(eligible: dict[int, LoopPattern],
                            forest: LoopForest, plan: TransformPlan) -> None:
    """Loops in one nest sharing an index register must agree on initial."""
    for forest_id in sorted(eligible):
        pattern = eligible.get(forest_id)
        if pattern is None:
            continue
        loop = forest.loops[forest_id]
        related = [forest.loops[i].id for i in
                   [a.id for a in forest.ancestors(loop)]
                   + [d.id for d in forest.descendants(loop)]]
        for other_id in related:
            other = eligible.get(other_id)
            if other is None:
                continue
            if other.index_reg == pattern.index_reg:
                plan.rejected[forest_id] = (
                    f"loop@{loop.header}: index register r{pattern.index_reg} "
                    f"shared with nested loop@{forest.loops[other_id].header}")
                del eligible[forest_id]
                break


def _reject_latch_exit_targets(eligible: dict[int, LoopPattern],
                               forest: LoopForest, program: Program,
                               plan: TransformPlan) -> None:
    """Decline a loop whose deleted latch is a selected exit's target.

    A ``break`` out of an inner loop that lands on its parent's latch
    (``addi``/``slti``/``bne`` back to the parent header) means
    "continue the parent".  Once the latch is deleted, the exit
    record's target label forwards past the parent loop, and a fired
    exit pre-empts the trigger watch there, so the parent would stop
    after one iteration.  The parent keeps its latch instead; the
    inner loop's exit then lands on it and the parent's software
    loop-back runs as in the source.  (Patterns already reject an
    outside branch that targets a loop's trigger point.)
    """
    targets = {(exit_branch.target_address - program.text_base) // 4:
               (forest.loops[owner_id].header, exit_branch.branch_index)
               for owner_id, owner in eligible.items()
               for exit_branch in owner.exit_branches}
    for forest_id, pattern in list(eligible.items()):
        latch = pattern.deleted_indices.difference(pattern.init_indices)
        hit = min(latch & targets.keys(), default=None)
        if hit is not None:
            header, branch_index = targets[hit]
            plan.rejected[forest_id] = (
                f"loop@{forest.loops[forest_id].header}: exit branch at "
                f"index {branch_index} of loop@{header} targets the "
                f"deleted latch")
            del eligible[forest_id]


def _plan_single_shot(eligible: dict[int, LoopPattern], forest: LoopForest,
                      plan: TransformPlan) -> None:
    for forest_id in sorted(eligible):
        pattern = eligible[forest_id]
        group = RegionGroup(root_forest_id=forest_id)
        group.loops.append(PlannedLoop(
            forest_id=forest_id, zolc_id=0, pattern=pattern,
            parent_forest_id=None, cascade=False))
        plan.groups.append(group)


def _plan_groups(eligible: dict[int, LoopPattern], forest: LoopForest,
                 config: ZolcConfig, plan: TransformPlan,
                 program: Program) -> None:
    # Group roots: selected loops with no selected ancestor.
    remaining = dict(eligible)
    changed = True
    while changed:
        changed = False
        roots = [fid for fid in remaining
                 if not _selected_ancestor(fid, forest, remaining)]
        for root_id in roots:
            members = [root_id] + [
                d.id for d in forest.descendants(forest.loops[root_id])
                if d.id in remaining]
            overflow = len(members) - config.max_loops
            if overflow > 0:
                # Shed shallowest loops (outer levels carry the least
                # per-iteration overhead).
                by_depth = sorted(members,
                                  key=lambda fid: forest.loops[fid].depth)
                for victim in by_depth[:overflow]:
                    plan.rejected[victim] = (
                        f"loop@{forest.loops[victim].header}: shed — nest "
                        f"exceeds {config.name}'s {config.max_loops} loops")
                    del remaining[victim]
                changed = True
                break
        if changed:
            continue
        for root_id in sorted(roots,
                              key=lambda fid: forest.loops[fid].header):
            members = [root_id] + [
                d.id for d in forest.descendants(forest.loops[root_id])
                if d.id in remaining]
            group = _build_group(root_id, members, remaining, forest, program)
            plan.groups.append(group)
            for member in members:
                del remaining[member]
        break


def _selected_ancestor(forest_id: int, forest: LoopForest,
                       selected: dict[int, LoopPattern]) -> bool:
    return any(a.id in selected
               for a in forest.ancestors(forest.loops[forest_id]))


def _build_group(root_id: int, members: list[int],
                 eligible: dict[int, LoopPattern], forest: LoopForest,
                 program: Program) -> RegionGroup:
    group = RegionGroup(root_forest_id=root_id)
    ordered = sorted(members, key=lambda fid: forest.loops[fid].header)
    zolc_ids = {fid: i for i, fid in enumerate(ordered)}
    for forest_id in ordered:
        pattern = eligible[forest_id]
        parent_id = _nearest_selected_ancestor(forest_id, forest, set(members))
        cascade = False
        if parent_id is not None:
            cascade = _is_cascade(pattern, eligible[parent_id], program)
        group.loops.append(PlannedLoop(
            forest_id=forest_id, zolc_id=zolc_ids[forest_id],
            pattern=pattern, parent_forest_id=parent_id, cascade=cascade))
    return group


def _nearest_selected_ancestor(forest_id: int, forest: LoopForest,
                               members: set[int]) -> int | None:
    for ancestor in forest.ancestors(forest.loops[forest_id]):
        if ancestor.id in members:
            return ancestor.id
    return None


def _is_cascade(pattern: LoopPattern, parent_pattern: LoopPattern,
                program: Program) -> bool:
    """No surviving instruction between this loop's end and the parent latch.

    When every instruction from just after this loop's latch branch up to
    and including the parent's latch branch is deleted overhead of the
    parent, the parent's decision must run in the same task switch
    (paper: "successive last iterations of nested loops").
    """
    gap = range(pattern.branch_index + 1, parent_pattern.branch_index + 1)
    deleted = parent_pattern.deleted_indices
    return all(index in deleted for index in gap)
