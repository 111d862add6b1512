"""Static verifier for the properties the engine tiers assume.

Each rule re-proves, from the IR and an externally supplied
:class:`StaticZolcPlan`, an invariant the runtime enforces only
dynamically (or not at all).  Findings are structured
:class:`Diagnostic` records so CI and the experiment layer can consume
them as JSON.

Rule catalogue (documented in DESIGN.md §11):

======  ========  ====================================================
id      severity  proves
======  ========  ====================================================
ZV001   error     every straight-line span from ``straightline_terms``
                  ends at a block boundary and crosses no control
                  transfer, ``mtz`` to ``CTRL_ARM``, ``CTRL_RESET``
                  that does not run on into an arm, or ZOLC watch
                  address
ZV002   error     ZOLC watch addresses are word-aligned text
                  addresses; triggers and entry targets are CFG block
                  leaders; exit watches sit on branch instructions
ZV003   error     straight-line legality (DESIGN.md §9) holds for each
                  loop body the traced tier runs as a zero-guard trace
                  (info when a body is guarded instead, or retires an
                  ``mtz``/``mfz`` and stays on the region tier)
ZV004   error     no instruction inside a watched loop body writes a
                  register the controller's index unit owns
ZV005   warning   watched loop bodies without an entry record are
                  single-entry regions (the body header dominates
                  every body block)
======  ========  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.cpu.ir import IROp, span_breaks, straightline_terms
from repro.isa.registers import register_name

from repro.cpu.analysis.cfg import (
    CFG,
    build_cfg,
    dominates,
    dominators,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

#: rule id -> one-line statement of what the rule proves.
RULES: dict[str, str] = {
    "ZV001": "straight-line spans end at block boundaries and never "
             "cross a transfer, an arm, a reset that does not run on "
             "into an arm, or a ZOLC watch address",
    "ZV002": "ZOLC watch addresses are word-aligned block leaders; "
             "exit watches sit on branches",
    "ZV003": "straight-line legality (DESIGN.md §9) holds for every "
             "loop body the traced tier runs as a zero-guard trace",
    "ZV004": "no instruction in a watched loop body writes a register "
             "the controller's index unit owns",
    "ZV005": "watched loop bodies without an entry record are "
             "single-entry regions",
    "ZV006": "every divergence in a multi-region watched body is "
             "guardable, guard side-exit targets are block leaders, "
             "and no trace member writes a controller-owned index "
             "register",
    "AU001": "registers touched by emitted code equal the IR operand "
             "sets of its region",
    "AU002": "memory offsets in emitted addressing code equal the IR "
             "displacement multiset of its region",
    "AU003": "compiled timing constants sum to the per-op "
             "op_base_cycles/op_taken_penalty totals",
    "AU004": "fault-reconciliation line maps are total over the "
             "emitted source and its member ordinals",
    "AU005": "emitted trace guards match the IR: one guard per "
             "recorded divergence, side-exit pcs inside the watched "
             "body, and per-outcome step counts consistent with the "
             "guard tree",
}

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding: rule id, pc range, severity, message."""

    rule: str
    severity: str
    message: str
    pc_lo: int | None = None
    pc_hi: int | None = None
    kernel: str | None = None
    machine: str | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "rule": self.rule, "severity": self.severity,
            "message": self.message,
        }
        if self.pc_lo is not None:
            out["pc_lo"] = self.pc_lo
        if self.pc_hi is not None:
            out["pc_hi"] = self.pc_hi
        if self.kernel is not None:
            out["kernel"] = self.kernel
        if self.machine is not None:
            out["machine"] = self.machine
        return out

    def tagged(self, kernel: str | None,
               machine: str | None) -> Diagnostic:
        """A copy carrying kernel/machine provenance."""
        return replace(self, kernel=kernel, machine=machine)


@dataclass(frozen=True)
class WatchedLoop:
    """Static view of one loop-table row the controller will own.

    ``span_end`` is the *exclusive* byte bound of the watched body:
    the loop's own trigger when it has one, else the trigger of the
    cascading descendant that decides it (``None`` when unresolvable).
    """

    loop_id: int
    group: int
    index_reg: int
    body_pc: int
    trigger_pc: int | None
    span_end: int | None
    has_entry_record: bool = False


@dataclass(frozen=True)
class StaticZolcPlan:
    """Label-resolved controller programming, before any simulation.

    Built by :func:`repro.eval.check.static_plan` from the transform's
    :class:`~repro.core.init_seq.ZolcProgramSpec` records plus the
    program's symbol table — the same source the ``mtz`` init sequence
    encodes, so the verifier needs no armed controller.
    """

    loops: tuple[WatchedLoop, ...] = ()
    entry_pcs: tuple[int, ...] = ()     # entry-record target pcs
    exit_pcs: tuple[int, ...] = ()      # exit-record branch pcs

    @property
    def trigger_pcs(self) -> tuple[int, ...]:
        return tuple(lp.trigger_pc for lp in self.loops
                     if lp.trigger_pc is not None)

    def watched_next_pcs(self) -> frozenset[int]:
        """Next-pc watch set: triggers plus entry targets."""
        return frozenset(self.trigger_pcs) | frozenset(self.entry_pcs)

    def trigger_edges(self) -> dict[int, int]:
        """trigger pc -> loop body pc, for CFG loop-back edges."""
        return {lp.trigger_pc: lp.body_pc for lp in self.loops
                if lp.trigger_pc is not None}

    def owned_registers(self, group: int) -> frozenset[int]:
        """Index registers the controller owns while ``group`` is armed."""
        return frozenset(lp.index_reg for lp in self.loops
                         if lp.group == group)


@dataclass
class VerifyContext:
    """Everything one verifier invocation operates over."""

    ir: Sequence[IROp]
    base: int
    entry_pc: int | None = None
    plan: StaticZolcPlan | None = None
    #: Override for the span-terminator list (negative tests inject a
    #: corrupted slicing here); computed from the IR when ``None``.
    terms: list[int | None] | None = None
    cfg: CFG = field(init=False)
    #: Per-slot span-break reasons under the plan's watch set
    #: (:func:`~repro.cpu.ir.span_breaks`), what ZV001 holds ``terms``
    #: to.
    breaks: list[str | None] = field(init=False)

    def __post_init__(self) -> None:
        plan = self.plan or StaticZolcPlan()
        watch = set(plan.watched_next_pcs())
        watch.update(lp.body_pc for lp in plan.loops)
        self.cfg = build_cfg(self.ir, self.base, self.entry_pc,
                             watch_pcs=watch,
                             trigger_edges=plan.trigger_edges())
        self.breaks = span_breaks(self.ir, self.base,
                                  plan.watched_next_pcs())
        if self.terms is None:
            self.terms = straightline_terms(
                self.ir, self.base, plan.watched_next_pcs())

    def slot_of(self, pc: int) -> int | None:
        return self.cfg.slot_of(pc)


def verify_program(ir: Sequence[IROp], base: int,
                   entry_pc: int | None = None,
                   plan: StaticZolcPlan | None = None,
                   terms: list[int | None] | None = None) -> list[
                       Diagnostic]:
    """Run every verifier rule; returns the combined findings."""
    ctx = VerifyContext(ir=ir, base=base, entry_pc=entry_pc, plan=plan,
                        terms=terms)
    out: list[Diagnostic] = []
    out.extend(check_region_boundaries(ctx))
    if ctx.plan is not None:
        out.extend(check_watch_addresses(ctx))
        out.extend(check_chain_legality(ctx))
        out.extend(check_index_writes(ctx))
        out.extend(check_single_entry(ctx))
        out.extend(check_trace_guards(ctx))
    return out


def _unsafe_reason(ctx: VerifyContext, slot: int) -> str | None:
    """Why ``slot`` must terminate any span that reaches it."""
    op = ctx.ir[slot]
    reason = ctx.breaks[slot]
    if reason == "transfer":
        return f"{op.mnemonic} at {hex(op.address)} can transfer control"
    if reason == "arm":
        return (f"mtz CTRL_ARM at {hex(op.address)} arms or disarms "
                "the controller")
    if reason == "watch":
        return f"next pc {hex(op.link)} is a ZOLC watch address"
    if reason == "reset":
        return (f"mtz CTRL_RESET at {hex(op.address)} resets the "
                "controller and does not run on into an arm")
    return None


def check_region_boundaries(ctx: VerifyContext) -> list[Diagnostic]:
    """ZV001: re-prove the straight-line span slicing.

    Maximal spans must keep every interior slot safe (no transfer, no
    arm, no reset that does not run on into an arm, no watch address
    crossed — :func:`~repro.cpu.ir.span_breaks`) and must terminate
    for a reason — an unsafe terminator, or the end of the text image
    — so every span boundary coincides with a basic-block boundary.
    """
    ir, terms = ctx.ir, ctx.terms
    assert terms is not None
    n = len(ir)
    out: list[Diagnostic] = []

    def is_start(j: int) -> bool:
        if terms[j] is None:
            return False
        if j == 0:
            return True
        return (_unsafe_reason(ctx, j - 1) is not None
                or terms[j - 1] is None)

    for j in range(n):
        if not is_start(j):
            continue
        term = terms[j]
        assert term is not None
        span = (ir[j].address, ir[term].address)
        if term <= j or term >= n:
            out.append(Diagnostic(
                "ZV001", "error",
                f"span at {hex(span[0])} has a degenerate terminator "
                f"slot {term}", pc_lo=span[0], pc_hi=span[1]))
            continue
        for k in range(j, term):
            reason = _unsafe_reason(ctx, k)
            if reason is not None:
                out.append(Diagnostic(
                    "ZV001", "error",
                    f"span {hex(span[0])}..{hex(span[1])} crosses an "
                    f"interior boundary: {reason}",
                    pc_lo=span[0], pc_hi=span[1]))
        if (term != n - 1
                and _unsafe_reason(ctx, term) is None):
            out.append(Diagnostic(
                "ZV001", "error",
                f"span {hex(span[0])}..{hex(span[1])} terminates "
                "without a block boundary: the terminator neither "
                "transfers, arms or resets the controller, precedes a "
                "watch address, nor ends the text image",
                pc_lo=span[0], pc_hi=span[1]))
        elif term != n - 1 and not ctx.cfg.is_leader(ir[term].link):
            out.append(Diagnostic(
                "ZV001", "error",
                f"span {hex(span[0])}..{hex(span[1])} ends inside a "
                f"basic block: {hex(ir[term].link)} leads no block",
                pc_lo=span[0], pc_hi=span[1]))
    return out


def check_watch_addresses(ctx: VerifyContext) -> list[Diagnostic]:
    """ZV002: watch addresses are aligned, in text, and block leaders."""
    plan = ctx.plan
    assert plan is not None
    out: list[Diagnostic] = []

    def check_pc(pc: int, what: str) -> bool:
        if pc % 4:
            out.append(Diagnostic(
                "ZV002", "error",
                f"{what} {hex(pc)} is not word-aligned", pc_lo=pc))
            return False
        if ctx.slot_of(pc) is None:
            out.append(Diagnostic(
                "ZV002", "error",
                f"{what} {hex(pc)} is outside the text image",
                pc_lo=pc))
            return False
        return True

    for lp in plan.loops:
        if lp.trigger_pc is not None:
            check_pc(lp.trigger_pc, f"trigger of loop {lp.loop_id}")
        check_pc(lp.body_pc, f"body entry of loop {lp.loop_id}")
    for pc in plan.entry_pcs:
        if check_pc(pc, "entry-record target") and not (
                ctx.cfg.is_leader(pc)):
            out.append(Diagnostic(
                "ZV002", "error",
                f"entry-record target {hex(pc)} is not a block leader",
                pc_lo=pc))
    for pc in plan.exit_pcs:
        if not check_pc(pc, "exit-record branch"):
            continue
        slot = ctx.slot_of(pc)
        assert slot is not None
        if not ctx.ir[slot].is_branch:
            out.append(Diagnostic(
                "ZV002", "error",
                f"exit-record watch {hex(pc)} does not sit on a "
                f"branch (found {ctx.ir[slot].mnemonic})", pc_lo=pc))
    # Triggers and entry targets are forced leaders during CFG
    # construction, so in-text aligned ones are leaders by definition;
    # assert the construction honoured that.
    for pc in plan.watched_next_pcs():
        if pc % 4 == 0 and ctx.slot_of(pc) is not None and not (
                ctx.cfg.is_leader(pc)):
            out.append(Diagnostic(
                "ZV002", "error",
                f"watch address {hex(pc)} did not become a block "
                "leader", pc_lo=pc))
    return out


def trace_candidate_bodies(ctx: VerifyContext) -> list[
        tuple[int, int, WatchedLoop]]:
    """``(start slot, trigger slot, loop)`` for every resolvable
    trigger-watched loop — the loop-resident trace tier's domain, from
    straight-line bodies (zero-guard traces) to branchy ones."""
    plan = ctx.plan
    assert plan is not None
    out: list[tuple[int, int, WatchedLoop]] = []
    for lp in plan.loops:
        if lp.trigger_pc is None:
            continue
        start = ctx.slot_of(lp.body_pc)
        tslot = ctx.slot_of(lp.trigger_pc)
        if start is None or tslot is None or tslot <= start:
            continue
        out.append((start, tslot, lp))
    return out


def check_chain_legality(ctx: VerifyContext) -> list[Diagnostic]:
    """ZV003: re-prove DESIGN.md §9 legality per straight-line trace.

    A trace candidate whose watched body is one span of the span
    table ending right before the trigger, in anything but a
    conditional branch, must run as a zero-guard trace: every
    iteration retires the whole body and fires the trigger.  For each
    such body: no *other* watch address lands strictly inside it
    (condition 2, so interior members stay unwatched), and the
    terminator cannot transfer control (condition 3, the body falls
    through into the trigger).  A body that retires an ``mtz``/``mfz``
    fails condition 1, so the trace tier never takes it (its candidate
    scan rejects the loop) and it runs on the region tier, which fuses
    table writes exactly: reported at info severity.  Bodies that are
    not one such span are also info — they run as guarded traces,
    whose divergences ZV006 covers.
    """
    plan = ctx.plan
    assert plan is not None
    terms = ctx.terms
    assert terms is not None
    watched = plan.watched_next_pcs()
    out: list[Diagnostic] = []
    for start, tslot, lp in trace_candidate_bodies(ctx):
        term = tslot - 1
        term_op = ctx.ir[term]
        if terms[start] != term or term_op.is_branch:
            out.append(Diagnostic(
                "ZV003", "info",
                f"loop {lp.loop_id} body at {hex(lp.body_pc)} is not "
                "a single straight-line span; it runs as a guarded "
                "trace", pc_lo=lp.body_pc, pc_hi=lp.trigger_pc))
            continue
        span = (ctx.ir[start].address, term_op.address)
        init = next((k for k in range(start, term + 1)
                     if ctx.ir[k].is_zolc_init), None)
        if init is not None:
            out.append(Diagnostic(
                "ZV003", "info",
                f"straight-line body of loop {lp.loop_id} retires "
                f"{ctx.ir[init].mnemonic} at "
                f"{hex(ctx.ir[init].address)}; it stays on the region "
                "tier", pc_lo=span[0], pc_hi=span[1]))
            continue
        for pc in watched:
            if span[0] < pc <= span[1]:
                out.append(Diagnostic(
                    "ZV003", "error",
                    f"watch address {hex(pc)} lands inside the "
                    f"straight-line body of loop {lp.loop_id} "
                    "(condition 2 violated)",
                    pc_lo=span[0], pc_hi=span[1]))
        if term_op.can_transfer:
            out.append(Diagnostic(
                "ZV003", "error",
                f"straight-line body of loop {lp.loop_id} ends in "
                f"{term_op.mnemonic}, which can transfer control "
                "(condition 3 violated)",
                pc_lo=span[0], pc_hi=span[1]))
    return out


def check_trace_guards(ctx: VerifyContext) -> list[Diagnostic]:
    """ZV006: trace bodies are guardable end to end.

    For each loop body a trace may run across: every
    conditional branch (a divergence a guard must cover) has both
    destinations — the taken target and the fall-through, whichever a
    recorded path leaves through — resolving to CFG block leaders, so
    a side exit always re-enters per-slot dispatch at a block boundary;
    any indirect transfer (``jr``/``jalr``) is reported at info
    severity (no guard can cover it — the body stays untraced, which
    the recorder enforces dynamically); and, as for ZV004, no body
    instruction writes an index register the controller owns (traces
    replay body writes verbatim, so a program write would race the
    inlined loop-back fire).
    """
    plan = ctx.plan
    assert plan is not None
    out: list[Diagnostic] = []
    for start, tslot, lp in trace_candidate_bodies(ctx):
        span = (ctx.ir[start].address, ctx.ir[tslot - 1].address)
        owned = plan.owned_registers(lp.group)
        for k in range(start, tslot):
            op = ctx.ir[k]
            if op.is_branch:
                for dest, what in ((op.target, "taken target"),
                                   (op.link, "fall-through")):
                    if dest is None:
                        continue
                    if ctx.slot_of(dest) is None:
                        out.append(Diagnostic(
                            "ZV006", "error",
                            f"guard {what} {hex(dest)} of "
                            f"{op.mnemonic} at {hex(op.address)} is "
                            f"outside the text image (loop "
                            f"{lp.loop_id})",
                            pc_lo=span[0], pc_hi=span[1]))
                    elif not ctx.cfg.is_leader(dest):
                        out.append(Diagnostic(
                            "ZV006", "error",
                            f"guard {what} {hex(dest)} of "
                            f"{op.mnemonic} at {hex(op.address)} is "
                            f"not a block leader: a side exit would "
                            f"re-enter mid-block (loop {lp.loop_id})",
                            pc_lo=span[0], pc_hi=span[1]))
            elif op.can_transfer and op.target is None \
                    and not op.is_zolc_init:
                out.append(Diagnostic(
                    "ZV006", "info",
                    f"{op.mnemonic} at {hex(op.address)} is an "
                    f"indirect transfer no guard can cover; loop "
                    f"{lp.loop_id} stays untraced past it",
                    pc_lo=span[0], pc_hi=span[1]))
            hit = op.defs & owned
            for reg in sorted(hit):
                out.append(Diagnostic(
                    "ZV006", "error",
                    f"{op.mnemonic} at {hex(op.address)} writes "
                    f"{register_name(reg)}, a controller-owned index "
                    f"register, inside the traceable body of loop "
                    f"{lp.loop_id}",
                    pc_lo=span[0], pc_hi=span[1]))
    return out


def _body_slots(ctx: VerifyContext, lp: WatchedLoop) -> range | None:
    """Text-slot range of a loop's watched body, ``None`` if unknown."""
    if lp.span_end is None:
        return None
    start = ctx.slot_of(lp.body_pc)
    if start is None:
        return None
    end = ctx.slot_of(lp.span_end)
    if end is None:
        # Span end may be one past the last text slot.
        if lp.span_end == ctx.base + 4 * len(ctx.ir):
            end = len(ctx.ir)
        else:
            return None
    return range(start, end)


def check_index_writes(ctx: VerifyContext) -> list[Diagnostic]:
    """ZV004: watched bodies never write controller-owned registers.

    While a group is armed, its index registers are architectural state
    the controller rewrites at task switches; a program write inside
    any watched body would race the index unit (the dynamic engines
    cannot detect this — the write silently corrupts loop tracking).
    """
    plan = ctx.plan
    assert plan is not None
    out: list[Diagnostic] = []
    for lp in plan.loops:
        slots = _body_slots(ctx, lp)
        if slots is None:
            continue
        owned = plan.owned_registers(lp.group)
        for slot in slots:
            hit = ctx.ir[slot].defs & owned
            for reg in sorted(hit):
                out.append(Diagnostic(
                    "ZV004", "error",
                    f"{ctx.ir[slot].mnemonic} at "
                    f"{hex(ctx.ir[slot].address)} writes "
                    f"{register_name(reg)}, an index register the "
                    f"controller owns, inside the watched body of "
                    f"loop {lp.loop_id}",
                    pc_lo=lp.body_pc, pc_hi=lp.span_end))
    return out


def check_single_entry(ctx: VerifyContext) -> list[Diagnostic]:
    """ZV005: bodies without entry records are single-entry regions."""
    plan = ctx.plan
    assert plan is not None
    idom = dominators(ctx.cfg)
    out: list[Diagnostic] = []
    for lp in plan.loops:
        if lp.has_entry_record:
            continue
        slots = _body_slots(ctx, lp)
        if slots is None or len(slots) == 0:
            continue
        header = ctx.cfg.block_of_slot[slots[0]]
        body_blocks = {ctx.cfg.block_of_slot[s] for s in slots}
        for bid in sorted(body_blocks):
            if idom[bid] is None:
                continue  # unreachable code inside the span
            if not dominates(idom, header, bid):
                block = ctx.cfg.blocks[bid]
                out.append(Diagnostic(
                    "ZV005", "warning",
                    f"block at {hex(ctx.ir[block.start].address)} "
                    f"inside the watched body of loop {lp.loop_id} is "
                    "not dominated by the body header (undeclared "
                    "side entry)",
                    pc_lo=lp.body_pc, pc_hi=lp.span_end))
                break
    return out
