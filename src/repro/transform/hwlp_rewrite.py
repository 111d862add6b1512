"""The XRhrdwil transform: branch-decrement hardware loops.

XiRisc can be configured with branch-decrement instructions (paper §1);
our ``dbne rs, label`` decrements ``rs`` and branches while it is
non-zero, redirecting fetch without a flush (the hardwired loop latches
its target).  This transform folds the loop-overhead pattern of counted
loops into a single ``dbne``, exactly what the XiRisc toolchain's
hardware-loop mode achieves:

* a ``down_count`` loop (``addi i, i, -1; bne i, zero, h``) becomes
  ``dbne i, h`` — the update is deleted, the branch is replaced;
* an up-counting loop whose index is *not otherwise used* is reversed
  into a down-count first (init becomes the trip count) and then folded;
* by default only *innermost* loops convert — hardwired-loop machinery
  (like most DSP hardware loops) tracks a single active loop level;
  pass ``innermost_only=False`` to model a multi-level variant;
* everything else — loops whose index feeds body code, non-unit steps,
  multi-exit structures — keeps the software pattern, which is why
  XRhrdwil recovers only part of what the ZOLC recovers (Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.assembler import Program, assemble, assemble_module
from repro.asm.parser import ParsedModule, SourceInstruction
from repro.isa.registers import register_name
from repro.transform import analysis
from repro.transform.edit import EditPlan, apply_edits
from repro.transform.front import KernelFront
from repro.transform.patterns import LoopPattern


@dataclass
class HwlpTransformResult:
    """Output of :func:`rewrite_for_hwlp`."""

    program: Program
    converted_loops: list[int] = field(default_factory=list)   # forest ids
    skipped_loops: dict[int, str] = field(default_factory=dict)

    @property
    def converted_count(self) -> int:
        return len(self.converted_loops)


def _index_unused_elsewhere(program: Program, cfg, pattern: LoopPattern) -> bool:
    """Index register only feeds the overhead instructions themselves."""
    loop_indices = analysis.loop_instruction_indices(cfg, pattern.loop)
    exclude = frozenset(pattern.deleted_indices)
    if analysis.reg_read_in(program, loop_indices, pattern.index_reg, exclude):
        return False
    return analysis.is_dead_at_exits(program, cfg, pattern.loop,
                                     pattern.index_reg)


def _branch_label_operand(module: ParsedModule, branch_index: int) -> str:
    """The textual label operand of the original latch branch."""
    return module.text[branch_index].instruction.operands[-1]


def _convert(program: Program, cfg, module: ParsedModule,
             pattern: LoopPattern, edits: EditPlan) -> str | None:
    """Plan the conversion of one loop; returns a skip reason or None."""
    reg = register_name(pattern.index_reg)
    label = _branch_label_operand(module, pattern.branch_index)

    if pattern.style == "down_count":
        if pattern.step != -1:
            return f"down-count step {pattern.step} != -1"
        edits.delete(pattern.update_index)
        edits.replace(pattern.branch_index,
                      SourceInstruction("dbne", [reg, label], 0,
                                        pseudo_origin="hwlp"))
        return None

    # Up-counting loops: reversible only when the index value itself is
    # never consumed.
    if not _index_unused_elsewhere(program, cfg, pattern):
        return "index register is consumed by body code"
    if pattern.trips.kind == "imm" and pattern.trips.value >= 1:
        new_init = SourceInstruction(
            "addi", [reg, "zero", str(pattern.trips.value)], 0,
            pseudo_origin="hwlp")
    elif pattern.trips.kind == "reg":
        new_init = SourceInstruction(
            "or", [reg, register_name(pattern.trips.value), "zero"], 0,
            pseudo_origin="hwlp")
    else:
        return "trip count not materialisable"
    if not pattern.init_indices:
        return "no rewritable induction initialisation"
    # Replace the (last) init instruction with the down-counter seed and
    # delete any remaining init instructions (lui/ori pairs).
    init_indices = sorted(pattern.init_indices)
    edits.replace(init_indices[-1], new_init)
    for index in init_indices[:-1]:
        edits.delete(index)
    if pattern.compare_index is not None:
        edits.delete(pattern.compare_index)
    edits.delete(pattern.update_index)
    edits.replace(pattern.branch_index,
                  SourceInstruction("dbne", [reg, label], 0,
                                    pseudo_origin="hwlp"))
    return None


def rewrite_for_hwlp(kernel: str | KernelFront,
                     innermost_only: bool = True) -> HwlpTransformResult:
    """Retarget an assembly program to branch-decrement hardware loops.

    ``kernel`` is the assembly source or its :class:`KernelFront`; the
    front's analysis is only read, and the edited text is assembled
    through its image table (:meth:`KernelFront.image`).
    """
    front = (kernel if isinstance(kernel, KernelFront)
             else KernelFront.of(assemble(kernel)))
    baseline, module, cfg = front.program, front.module, front.cfg
    patterns = front.patterns

    edits = EditPlan()
    converted: list[int] = []
    skipped: dict[int, str] = dict(front.failures)
    for forest_id in sorted(patterns):
        pattern = patterns[forest_id]
        if innermost_only and not pattern.loop.is_innermost():
            skipped[forest_id] = "outer loop (single hardware loop level)"
            continue
        if pattern.exit_branches or pattern.side_entry_count:
            skipped[forest_id] = "multi-exit/entry loop"
            continue
        reason = _convert(baseline, cfg, module, pattern, edits)
        if reason is None:
            converted.append(forest_id)
        else:
            skipped[forest_id] = reason

    program = front.image(apply_edits(module.text, edits), assemble_module)
    return HwlpTransformResult(program=program, converted_loops=converted,
                               skipped_loops=skipped)
