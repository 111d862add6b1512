"""Loop-overhead pattern recognition.

The "loop overhead instruction pattern ... consists of the required
instructions to initiate a new iteration of the loop" (paper §1).  For a
counted natural loop these are:

* the **induction update** (``addi i, i, step``),
* an optional **compare** (``slt``/``slti``/``sltu``/``sltiu``) feeding
* the **backward branch** (``bne ..., header``),
* and the **induction initialisation** in the preheader.

Three idioms are recognised:

* ``down_count``   — ``addi i, i, -s; bne i, zero, header``
* ``up_count_slt`` — ``addi i, i, s; slt t, i, N; bne t, zero, header``
* ``up_count_ne``  — ``addi i, i, s; bne i, N, header``

The matcher is conservative: any loop that deviates from these shapes
(calls inside, multiple latches, entangled induction registers, ...)
raises :class:`PatternError` with a reason, and the transforms simply
leave that loop alone — exactly what a compiler targeting the ZOLC
would do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.assembler import Program
from repro.cfg.loops import LoopForest, NaturalLoop
from repro.cpu.analysis.cfg import CFG
from repro.transform import analysis
from repro.util.bitops import to_signed32


class PatternError(ValueError):
    """A loop does not match a supported overhead pattern."""


@dataclass(frozen=True)
class OperandSource:
    """Where a loop parameter's value lives: an immediate or a register."""

    kind: str          # "imm" | "reg"
    value: int         # immediate value, or register index

    @staticmethod
    def imm(value: int) -> "OperandSource":
        return OperandSource("imm", value)

    @staticmethod
    def reg(index: int) -> "OperandSource":
        return OperandSource("reg", index)


@dataclass
class ExitBranch:
    """A data-dependent exit: an in-loop branch leaving the loop."""

    branch_index: int          # instruction index of the branch
    target_address: int        # where the taken branch lands
    exited_loop_ids: list[int]  # forest loop ids abandoned by this exit


@dataclass
class LoopPattern:
    """A fully recognised counted loop, ready for rewriting."""

    loop: NaturalLoop
    style: str                     # down_count | up_count_slt | up_count_ne
    branch_index: int
    update_index: int
    compare_index: int | None
    init_indices: list[int]        # deletable init instructions (may be [])
    index_reg: int
    step: int
    initial: OperandSource
    trips: OperandSource
    header_index: int              # instruction index of the loop header
    preheader_block: int
    exit_branches: list[ExitBranch]
    initial_from_self: bool = False  # initial read from the index register
    side_entry_blocks: tuple[int, ...] = ()  # entry blocks bypassing the preheader

    @property
    def side_entry_count(self) -> int:
        return len(self.side_entry_blocks)

    @property
    def deleted_indices(self) -> frozenset[int]:
        out = {self.branch_index, self.update_index}
        if self.compare_index is not None:
            out.add(self.compare_index)
        out.update(self.init_indices)
        return frozenset(out)

    @property
    def after_loop_index(self) -> int:
        """Index of the first instruction after the latch branch."""
        return self.branch_index + 1


def match_loop(program: Program, cfg: CFG, forest: LoopForest,
               loop: NaturalLoop) -> LoopPattern:
    """Recognise the overhead pattern of one natural loop (or raise)."""
    if len(loop.latches) != 1:
        raise PatternError(f"loop@{loop.header}: {len(loop.latches)} latches")
    loop_indices = analysis.loop_instruction_indices(cfg, loop)
    if analysis.contains_call_or_indirect(program, loop_indices):
        raise PatternError(f"loop@{loop.header}: contains call/indirect jump")

    latch_indices = list(analysis.block_indices(cfg, loop.latches[0]))
    branch_index = latch_indices[-1]
    branch = program.instructions[branch_index]
    header_index = cfg.blocks[loop.header].start
    if branch.mnemonic != "bne":
        raise PatternError(
            f"loop@{loop.header}: latch terminator {branch.mnemonic} "
            f"is not a bne")
    if branch.branch_target_address() != cfg.pc_of(header_index):
        raise PatternError(f"loop@{loop.header}: latch branch misses header")

    if branch.rt == 0:
        pattern = _match_zero_branch(program, cfg, forest, loop, branch_index,
                                     latch_indices, header_index, loop_indices)
    else:
        pattern = _match_ne_branch(program, cfg, forest, loop, branch_index,
                                   latch_indices, header_index, loop_indices)
    _check_body_nonempty(pattern)
    _check_no_outside_jumps(program, cfg, loop, pattern)
    return pattern


# ---------------------------------------------------------------------------
# latch shapes
# ---------------------------------------------------------------------------

def _last_def_before(program: Program, indices: list[int], before: int,
                     reg: int) -> int | None:
    candidates = [i for i in indices
                  if i < before and reg in program.instructions[i].defs()]
    return max(candidates) if candidates else None


def _match_zero_branch(program, cfg, forest, loop, branch_index,
                       latch_indices, header_index, loop_indices) -> LoopPattern:
    """``bne r, zero, header``: down-count or slt-compare shape."""
    branch = program.instructions[branch_index]
    reg = branch.rs
    def_index = _last_def_before(program, latch_indices, branch_index, reg)
    if def_index is None:
        raise PatternError(
            f"loop@{loop.header}: branch condition {reg} not defined in latch")
    inst = program.instructions[def_index]

    if inst.mnemonic == "addi" and inst.rt == reg and inst.rs == reg:
        # down_count: addi i, i, step; bne i, zero, header
        step = inst.imm
        if step == 0:
            raise PatternError(f"loop@{loop.header}: zero induction step")
        _check_clean_gap(program, loop, def_index, branch_index, {reg})
        initial, init_indices, from_self = _match_init(
            program, cfg, forest, loop, reg)
        trips = _trips_down_count(loop, initial, step)
        return LoopPattern(
            loop=loop, style="down_count", branch_index=branch_index,
            update_index=def_index, compare_index=None,
            init_indices=init_indices, index_reg=reg, step=step,
            initial=initial, trips=trips, header_index=header_index,
            preheader_block=_preheader(cfg, loop),
            side_entry_blocks=_preheader_info(cfg, loop)[1],
            exit_branches=_find_exit_branches(program, cfg, forest, loop,
                                              branch_index),
            initial_from_self=from_self)

    if inst.mnemonic in ("slt", "slti", "sltu", "sltiu"):
        # up_count_slt: addi i, i, s; slt t, i, N; bne t, zero, header
        compare_index = def_index
        temp = reg
        index_reg = inst.rs
        if inst.mnemonic in ("slt", "sltu"):
            bound = OperandSource.reg(inst.rt)
        else:
            bound = OperandSource.imm(inst.imm)
        _check_temp_dead(program, cfg, loop, loop_indices, temp,
                         compare_index, branch_index)
        update_index = _last_def_before(program, latch_indices,
                                        compare_index, index_reg)
        if update_index is None:
            raise PatternError(
                f"loop@{loop.header}: induction {index_reg} not updated "
                f"in latch")
        update = program.instructions[update_index]
        if not (update.mnemonic == "addi" and update.rt == index_reg
                and update.rs == index_reg):
            raise PatternError(
                f"loop@{loop.header}: induction update is not addi i,i,step")
        step = update.imm
        if step <= 0:
            raise PatternError(
                f"loop@{loop.header}: slt-style loop with step {step}")
        _check_clean_gap(program, loop, update_index, branch_index,
                         {index_reg}, allow={compare_index})
        if bound.kind == "reg":
            _check_bound_stable(program, loop_indices, bound.value, loop)
        initial, init_indices, from_self = _match_init(
            program, cfg, forest, loop, index_reg)
        trips = _trips_up_count(loop, initial, bound, step, exact=False)
        return LoopPattern(
            loop=loop, style="up_count_slt", branch_index=branch_index,
            update_index=update_index, compare_index=compare_index,
            init_indices=init_indices, index_reg=index_reg, step=step,
            initial=initial, trips=trips, header_index=header_index,
            preheader_block=_preheader(cfg, loop),
            side_entry_blocks=_preheader_info(cfg, loop)[1],
            exit_branches=_find_exit_branches(program, cfg, forest, loop,
                                              branch_index),
            initial_from_self=from_self)

    raise PatternError(
        f"loop@{loop.header}: condition producer {inst.mnemonic} unsupported")


def _match_ne_branch(program, cfg, forest, loop, branch_index,
                     latch_indices, header_index, loop_indices) -> LoopPattern:
    """``bne i, N, header`` with a register bound."""
    branch = program.instructions[branch_index]
    for index_reg, bound_reg in ((branch.rs, branch.rt), (branch.rt, branch.rs)):
        update_index = _last_def_before(program, latch_indices, branch_index,
                                        index_reg)
        if update_index is None:
            continue
        update = program.instructions[update_index]
        if not (update.mnemonic == "addi" and update.rt == index_reg
                and update.rs == index_reg):
            continue
        step = update.imm
        if step == 0:
            continue
        _check_clean_gap(program, loop, update_index, branch_index, {index_reg})
        _check_bound_stable(program, loop_indices, bound_reg, loop)
        initial, init_indices, from_self = _match_init(
            program, cfg, forest, loop, index_reg)
        bound = OperandSource.reg(bound_reg)
        trips = _trips_up_count(loop, initial, bound, step, exact=True)
        return LoopPattern(
            loop=loop, style="up_count_ne", branch_index=branch_index,
            update_index=update_index, compare_index=None,
            init_indices=init_indices, index_reg=index_reg, step=step,
            initial=initial, trips=trips, header_index=header_index,
            preheader_block=_preheader(cfg, loop),
            side_entry_blocks=_preheader_info(cfg, loop)[1],
            exit_branches=_find_exit_branches(program, cfg, forest, loop,
                                              branch_index),
            initial_from_self=from_self)
    raise PatternError(
        f"loop@{loop.header}: no addi-updated induction feeds the bne")


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _check_clean_gap(program: Program, loop: NaturalLoop, lo: int, hi: int,
                     regs: set[int], allow: set[int] = frozenset()) -> None:
    """Instructions between ``lo``/``hi`` must not touch ``regs``."""
    for index, inst in enumerate(program.instructions[lo + 1:hi], start=lo + 1):
        if index in allow:
            continue
        touched = (inst.uses() | inst.defs()) & regs
        if touched:
            raise PatternError(
                f"loop@{loop.header}: instruction between update and branch "
                f"touches induction register r{touched}")
        if inst.is_control_flow():
            raise PatternError(
                f"loop@{loop.header}: control flow between update and branch")


def _check_temp_dead(program, cfg, loop, loop_indices, temp,
                     compare_index, branch_index) -> None:
    """The compare result must feed *only* the latch branch.

    The compare sits immediately before the branch (clean-gap checked by
    the caller), so its value can escape only through the latch block's
    successors; it must be dead — rewritten before any read — on both
    the loop-back path and the exit path.
    """
    latch_id = cfg.block_of_slot[branch_index]
    for succ in cfg.blocks[latch_id].succs:
        if not analysis.dead_from_block(program, cfg, succ, temp):
            raise PatternError(
                f"loop@{loop.header}: compare temp r{temp} live after "
                f"the latch")


def _check_bound_stable(program, loop_indices, bound_reg, loop) -> None:
    if analysis.reg_written_in(program, loop_indices, bound_reg):
        raise PatternError(
            f"loop@{loop.header}: bound register r{bound_reg} written "
            f"inside loop")


def _preheader_info(cfg: CFG,
                    loop: NaturalLoop) -> tuple[int, tuple[int, ...]]:
    """The loop's preheader block and any side-entry blocks.

    With a single outside predecessor the answer is unambiguous.  With
    several (a "multiple-entry" structure), the textual fall-through
    predecessor — the block whose code immediately precedes the header —
    is the preheader; the remaining predecessors are side entries, which
    only ZOLCfull's entry records can serve (enforced in legality).
    """
    header_start = cfg.blocks[loop.header].start
    outside = [p for p in cfg.blocks[loop.header].preds
               if p not in loop.blocks]
    if not outside:
        raise PatternError(f"loop@{loop.header}: unreachable header")
    if len(outside) == 1:
        return outside[0], ()
    fallthrough = [p for p in outside
                   if cfg.blocks[p].end + 1 == header_start]
    if len(fallthrough) != 1:
        raise PatternError(
            f"loop@{loop.header}: {len(outside)} entries but no unique "
            f"fall-through preheader")
    side = tuple(p for p in outside if p != fallthrough[0])
    return fallthrough[0], side


def _preheader(cfg: CFG, loop: NaturalLoop) -> int:
    return _preheader_info(cfg, loop)[0]


def _match_init(program, cfg, forest, loop, index_reg):
    """Find the induction initialisation in the preheader.

    Returns ``(initial, deletable_indices, from_self)``.  If no clean
    init instruction exists the initial value is read from the index
    register itself at table-init time (legal only for root loops —
    enforced by :mod:`repro.transform.legality`).
    """
    pre_indices = list(analysis.block_indices(cfg, _preheader(cfg, loop)))
    def_index = _last_def_before(program, pre_indices,
                                 pre_indices[-1] + 1, index_reg)
    if def_index is not None:
        inst = program.instructions[def_index]
        tail = [i for i in pre_indices if i > def_index]
        clean_tail = not (
            analysis.reg_read_in(program, tail, index_reg)
            or analysis.reg_written_in(program, tail, index_reg))
        if clean_tail:
            if inst.mnemonic == "addi" and inst.rs == 0:
                return OperandSource.imm(inst.imm), [def_index], False
            if inst.mnemonic == "ori" and inst.rs == 0:
                return OperandSource.imm(inst.imm), [def_index], False
            if inst.mnemonic == "ori" and inst.rs == inst.rt:
                # li expansion: lui i, hi; ori i, i, lo
                prev = _last_def_before(program, pre_indices, def_index,
                                        index_reg)
                if prev is not None:
                    lui = program.instructions[prev]
                    if lui.mnemonic == "lui" and lui.rt == index_reg:
                        value = ((lui.imm & 0xFFFF) << 16) | (inst.imm & 0xFFFF)
                        return (OperandSource.imm(to_signed32(value)),
                                [prev, def_index], False)
            if inst.mnemonic == "or" and inst.rt == 0:
                return OperandSource.reg(inst.rs), [def_index], False
    # Fallback: read the register's run-time value at init.
    return OperandSource.reg(index_reg), [], True


def _trips_down_count(loop, initial: OperandSource, step: int) -> OperandSource:
    if step >= 0:
        raise PatternError(
            f"loop@{loop.header}: down-count loop with step {step}")
    if initial.kind == "imm":
        if initial.value <= 0 or initial.value % (-step):
            raise PatternError(
                f"loop@{loop.header}: initial {initial.value} not a "
                f"positive multiple of {-step}")
        return OperandSource.imm(initial.value // (-step))
    if step != -1:
        raise PatternError(
            f"loop@{loop.header}: register-count loop needs step -1")
    return initial  # trip count equals the register's initial value


def _trips_up_count(loop, initial: OperandSource, bound: OperandSource,
                    step: int, exact: bool) -> OperandSource:
    if initial.kind == "imm" and bound.kind == "imm":
        span = bound.value - initial.value
        if step > 0 and span > 0:
            if exact and span % step:
                raise PatternError(
                    f"loop@{loop.header}: bound not reachable exactly")
            trips = (span + step - 1) // step if not exact else span // step
            return OperandSource.imm(trips)
        if step < 0 and span < 0:
            down = -step
            if exact and (-span) % down:
                raise PatternError(
                    f"loop@{loop.header}: bound not reachable exactly")
            trips = ((-span) + down - 1) // down if not exact else (-span) // down
            return OperandSource.imm(trips)
        raise PatternError(f"loop@{loop.header}: non-positive trip count")
    if bound.kind == "reg" and initial.kind == "imm" \
            and initial.value == 0 and step == 1:
        return bound  # trip count equals the bound register's value
    raise PatternError(
        f"loop@{loop.header}: unsupported initial/bound combination "
        f"({initial.kind} initial, {bound.kind} bound, step {step})")


def _check_body_nonempty(pattern: LoopPattern) -> None:
    body = set(range(pattern.header_index, pattern.branch_index + 1))
    remaining = body - set(pattern.deleted_indices)
    if not remaining:
        raise PatternError(
            f"loop@{pattern.loop.header}: body empty after overhead removal")


def _check_no_outside_jumps(program: Program, cfg: CFG,
                            loop: NaturalLoop, pattern: LoopPattern) -> None:
    """No outside branch may target the loop's trigger address."""
    trigger_index = pattern.after_loop_index
    loop_indices = set(analysis.loop_instruction_indices(cfg, loop))
    for index, inst in enumerate(program.instructions):
        if index in loop_indices or index == pattern.branch_index:
            continue
        if not (inst.is_branch() or inst.mnemonic == "j"):
            continue
        try:
            target = inst.branch_target_address()
        except ValueError:
            continue
        target_index = (target - program.text_base) // 4
        if target_index == trigger_index:
            raise PatternError(
                f"loop@{loop.header}: outside branch at index {index} "
                f"targets the loop's trigger point")


def _find_exit_branches(program: Program, cfg: CFG,
                        forest: LoopForest, loop: NaturalLoop,
                        latch_branch_index: int) -> list[ExitBranch]:
    """Data-dependent exits: in-loop branches leaving the loop."""
    exits: list[ExitBranch] = []
    for index in analysis.loop_instruction_indices(cfg, loop):
        inst = program.instructions[index]
        if index == latch_branch_index:
            continue
        if not (inst.is_branch() or inst.mnemonic == "j"):
            continue
        target = inst.branch_target_address()
        slot = cfg.slot_of(target)
        if slot is None:
            continue
        target_block = cfg.block_of_slot[slot]
        if target_block in loop.blocks:
            continue
        exited = [loop.id]
        for ancestor in forest.ancestors(loop):
            if target_block not in ancestor.blocks:
                exited.append(ancestor.id)
        exits.append(ExitBranch(branch_index=index,
                                target_address=target,
                                exited_loop_ids=exited))
    return exits


def match_all_loops(program: Program, cfg: CFG,
                    forest: LoopForest) -> tuple[dict[int, LoopPattern],
                                                 dict[int, str]]:
    """Match every loop; returns (patterns by loop id, reasons for misses)."""
    patterns: dict[int, LoopPattern] = {}
    failures: dict[int, str] = {}
    for loop in forest.loops:
        try:
            patterns[loop.id] = match_loop(program, cfg, forest, loop)
        except PatternError as exc:
            failures[loop.id] = str(exc)
    return patterns, failures
