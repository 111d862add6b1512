"""Loop-resident traces: the one mechanism that keeps a ZOLC loop's
fire → re-entry cycle inside generated code.

In hardware the ZOLC makes a loop's trigger fire and the jump back to
the body free; the traced tier (:mod:`repro.cpu.engine.traced`) models
that steady state with a *trace*: one generated Python function that
runs whole ``body → fire → re-enter`` iterations without returning to
the engine loop.  A straight-line body is the zero-guard case — one
path, one outcome.  A branchy body (``me_fss``, ``vecmax_early``,
``viterbi``) gets its *hot path* recorded across its forward branches
and lowered with inlined **guards** at every divergence point,
RPython-style (minus machine code: traces are Python source like the
megahandlers, compiled once and cached).

Promotion.  A ZOLC trigger whose fire redirect re-enters a natural
loop (recovered by :func:`~repro.cpu.analysis.cfg.natural_loops` over
the post-transform CFG, with the controller's redirect edges
reinstated) makes that loop a *candidate*.  At its
:data:`HOT_THRESHOLD`-th loop-back fire, a body with no conditional
branch compiles straight from the empty event list.  A branchy body
instead has the traced engine record one full iteration — the
``(slot, taken)`` outcome of every conditional branch between the loop
entry and the next trigger fire — and the path is rebuilt from those
events and lowered.  Any fire that is not the candidate's own direct
loop-back ends the recording: an expiry or a fired exit/entry watch
abandons it (the candidate re-arms, up to :data:`MAX_RETRIES` times);
an indirect jump, ``halt`` or ``mtz``/``mfz`` retired mid-recording
kills the candidate for good.

Guards.  A conditional branch on the hot path becomes a guard: the
branch-condition expression (the one shared
:func:`~repro.cpu.engine.emit.branch_cond_expr` idiom) is tested
*before* the branch retires, and if the actual direction disagrees
with the recorded one, the trace **side-exits**: it returns the
side-exit outcome, whose statically precomputed deltas retire exactly
the members *before* the guard, and the engine re-executes the branch
itself on the per-region tier — so the side exit is architecturally
exact (registers, memory, cycles, stats, controller counters),
including ``dbne``, whose counter decrement is only committed after
its guard passes.  A guard whose opposite side turns hot
(:data:`BRIDGE_THRESHOLD` side exits through it) gets a *bridge*
recorded from the side exit to the next loop-back fire and spliced in:
the trace is rebuilt from the merged path set, the once-guard becoming
a two-sided split with both continuations inlined.

Timing.  Every outcome — each leaf of the guard tree and each side
exit — carries static ``(steps, cycles, stall, flush, taken)`` deltas
accumulated along its exact path, so path-dependent timing stays
bit-identical to ``step``; the only runtime timing check is the
incoming load-use stall against the first member (same contract as
fused regions).  Faults inside a trace reconcile through the shared
:func:`~repro.cpu.engine.emit.fault_entry` walk into a line →
pre-fault-state table.  A trace's code, outcome table, fault table and
recorded paths are one :class:`~repro.cpu.engine.emit.CodegenRecord`
in the program's code table, bound per simulator through
:func:`~repro.cpu.engine.emit.instantiate` like a region's.  See
DESIGN.md §12.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.cpu.analysis.cfg import build_cfg, natural_loops
from repro.util.bitops import MASK32

from repro.cpu.engine.dispatch import SPAN_IDS, PredecodedProgram
from repro.cpu.engine.emit import (
    REGION_HELPERS,
    CodegenRecord,
    branch_cond_expr,
    codegen_records,
    fault_entry,
    instantiate,
    member_lines,
    record_codegen,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.simulator import Simulator

#: Loop-back fires observed before a candidate is promoted (compiled
#: outright when its body has no conditional branch, else recorded).
HOT_THRESHOLD = 8
#: Side exits through one guard before a bridge is recorded for it.
BRIDGE_THRESHOLD = 8
#: Maximum recorded paths (initial + bridges) per trace.
MAX_PATHS = 8
#: Maximum members along any single recorded path.
MAX_MEMBERS = 96
#: Maximum branch events per recording (runaway inner-cycle backstop).
MAX_EVENTS = 128
#: Abandoned recordings tolerated before a candidate / bridge is dead.
MAX_RETRIES = 4


class TraceOutcome(NamedTuple):
    """One return value of a generated trace function.

    The traced loop unpacks the whole record per execution, so the
    field order is load-bearing.  ``members`` matches the region
    member shape ``(slot, base_cycles, static_stall, load_dest)`` so
    trace executions share the engine's retired-count expansion.
    """

    rid: int                    # span identity (shared with regions)
    steps: int                  # members retired by this outcome
    cycles: int                 # static cycle delta along the path
    stall: int                  # static stall portion of cycles
    flush: int                  # taken-branch flush portion of cycles
    taken: int                  # taken branches retired
    members: tuple              # (slot, base_cycles, stall, load_dest)
    out_pending: int | None     # pending load dest after the outcome
    is_exit: bool               # guard side exit (guard NOT retired)
    pc: int                     # side exit: the guard's address;
                                # leaf: the retiring member's address
    prefix: tuple               # side exit: (slot, taken) branch
                                # decisions before the guard — the
                                # bridge recording's path prefix
    key: tuple | None           # side exit: (guard slot, cold
                                # direction) — stable across rebuilds


class TraceCandidate:
    """One trigger loop being profiled toward trace promotion."""

    __slots__ = ("loop_id", "entry_slot", "entry_pc", "trigger_pc",
                 "count", "fails", "dead")

    def __init__(self, loop_id: int, entry_slot: int, entry_pc: int,
                 trigger_pc: int) -> None:
        self.loop_id = loop_id
        self.entry_slot = entry_slot
        self.entry_pc = entry_pc
        self.trigger_pc = trigger_pc
        self.count = 0          # loop-back fires observed
        self.fails = 0          # abandoned recordings
        self.dead = False


class Trace:
    """A compiled trace: its loop-resident driver plus outcome table.

    ``run`` is the guard tree with the trigger fire, index writes and
    loop-back test inlined at every leaf, called as ``run(fire_trigger,
    budget, cell)`` (everything else binds as generated-function
    defaults).  A straight-line body is the zero-guard case: one path,
    one leaf outcome.  The outcome table, line → fault table and
    recorded paths come from the trace's code-table record.
    """

    __slots__ = ("run", "outcomes", "first_uses", "max_steps",
                 "loop_id", "entry_pc", "entry_slot", "trigger_pc",
                 "line_fault", "fail", "bridge_fails", "no_bridge",
                 "paths", "cand")

    def __init__(self, run, record: CodegenRecord,
                 first_uses: frozenset[int],
                 cand: TraceCandidate) -> None:
        self.run = run
        self.outcomes = record.outcomes
        self.first_uses = first_uses
        self.max_steps = max(o.steps for o in record.outcomes)
        self.loop_id = cand.loop_id
        self.entry_pc = cand.entry_pc
        self.entry_slot = cand.entry_slot
        self.trigger_pc = cand.trigger_pc
        self.line_fault = record.line_fault
        self.fail: dict = {}          # exit key -> side-exit count
        self.bridge_fails: dict = {}  # exit key -> abandoned bridges
        self.no_bridge: set = set()   # exit keys never to bridge
        self.paths = list(record.paths)  # recorded event tuples, in order
        self.cand = cand


class TraceTable:
    """One plan state's trace state: the dense dispatch table and the
    candidates (held by the traced tier's per-plan table)."""

    __slots__ = ("slots", "cands", "watched", "exit_pcs")

    def __init__(self, slots: list, cands: dict,
                 watched: frozenset[int],
                 exit_pcs: frozenset[int]) -> None:
        self.slots = slots      # dense: entry slot -> Trace | None
        self.cands = cands      # loop_id -> TraceCandidate
        self.watched = watched  # every watched next pc of the plan
        self.exit_pcs = exit_pcs  # exit-watched branch pcs


class TraceRecorder:
    """One in-flight recording (initial path or bridge)."""

    __slots__ = ("cand", "trace", "exit_key", "prefix", "events")

    def __init__(self, cand: TraceCandidate, trace: Trace | None,
                 exit_key: tuple | None, prefix: tuple) -> None:
        self.cand = cand
        self.trace = trace          # None for the initial recording
        self.exit_key = exit_key    # None for the initial recording
        self.prefix = prefix        # branch decisions before the guard
        self.events: list = []      # recorded (slot, taken) decisions


# ---------------------------------------------------------------------------
# Candidate discovery
# ---------------------------------------------------------------------------

#: Program attribute caching candidate geometry per (plan key, fire
#: targets): the CFG build, natural-loop detection and legality scan
#: depend only on the program's IR and the plan's watch content, so
#: every simulator of one program shares one discovery.
_JIT_CANDS_ATTR = "_trace_jit_cands"


def _candidate_geometry(program, ir, base: int, plan,
                        watched: frozenset[int],
                        trigger_edges: dict) -> tuple:
    """Statically scope the plan's trigger loops to trace candidates.

    A candidate is a trigger whose fire redirect heads a natural loop
    (straight-line or branchy) whose body retires no ``mtz``/``mfz``, no
    indirect jump or ``halt``, and contains no *foreign* watched
    address — those would fire mid-trace, which a trace cannot model.
    The loop's own trigger slot is exempt: it is the dead latch, and
    arrival at it *ends* the iteration, so no trace path retires it
    (loops sharing an entry pull the sibling's latch into the merged
    natural-loop body, which must not disqualify the innermost).  The
    trigger address itself must not double as an entry watch (the
    trace fires ``fire_trigger`` directly at its leaf, exactly
    as the per-slot path would after its entry watch declined).  An
    outer ZOLC loop is rejected by the watched-address check (its body
    contains the inner loop's trigger), so only innermost loops trace.

    Returns ``(loop_id, entry_slot, entry_pc, trigger_pc)`` rows,
    cached on the program object (the scan is pure in the IR and the
    plan's watch/target content, which the cache key captures).
    """
    per_program = program.__dict__.get(_JIT_CANDS_ATTR)
    if per_program is None:
        per_program = program.__dict__[_JIT_CANDS_ATTR] = {}
    key = (plan.key, tuple(sorted(trigger_edges.items())))
    geometry = per_program.get(key)
    if geometry is not None:
        return geometry
    cfg = build_cfg(ir, base, watch_pcs=watched,
                    trigger_edges=trigger_edges)
    by_header = {loop.header: loop for loop in natural_loops(cfg)}
    entry_watch_pcs = {pc for pc, _ in plan.entries}
    claimed: set[int] = set()
    rows = []
    for pc, loop_id in plan.triggers:
        entry_pc = trigger_edges.get(pc)
        if entry_pc is None or pc in entry_watch_pcs \
                or entry_pc in watched:
            continue
        entry_slot = cfg.slot_of(entry_pc)
        if entry_slot is None or entry_slot in claimed \
                or not cfg.is_leader(entry_pc):
            continue
        loop = by_header.get(cfg.block_of_slot[entry_slot])
        if loop is None:
            continue
        if ir[entry_slot].is_branch:
            # A guard as the very first member could side-exit having
            # retired nothing, which has no exact out-pending state.
            continue
        legal = True
        for bid in loop.body:
            block = cfg.blocks[bid]
            for slot in range(block.start, block.end + 1):
                op = ir[slot]
                if (op.is_zolc_init
                        or op.mnemonic in ("jr", "jalr", "halt")
                        or (op.address not in (entry_pc, pc)
                            and op.address in watched)):
                    legal = False
                    break
            if not legal:
                break
        if not legal:
            continue
        claimed.add(entry_slot)
        rows.append((loop_id, entry_slot, entry_pc, pc))
    geometry = tuple(rows)
    per_program[key] = geometry
    return geometry


def discover_traces(sim: "Simulator", predecoded: PredecodedProgram,
                    plan) -> TraceTable:
    """Build the per-simulator trace table for one plan state.

    The static scan lives in :func:`_candidate_geometry` (cached on
    the program); this binds it to one simulator — fresh candidate
    counters, and compiled traces instantiated straight from the
    program's code table where a previous simulator already recorded
    them.  The traced tier calls it once per plan state, on the first
    resident resolve, and keeps the table in its per-plan table.
    """
    ir = predecoded.ir
    n = len(ir)
    watched = frozenset(plan.watched_next_pcs()) if plan else frozenset()
    exit_pcs = frozenset(pc for pc, _ in plan.exits) if plan \
        else frozenset()
    table = TraceTable([None] * n, {}, watched, exit_pcs)
    fire_target = plan.fire_target if plan is not None else None
    if fire_target is None or not ir:
        return table
    base = sim.program.text_base
    trigger_edges: dict[int, int] = {}
    for pc, loop_id in plan.triggers:
        target = fire_target(loop_id)
        if target is not None:
            trigger_edges[pc] = target
    if not trigger_edges:
        return table
    geometry = _candidate_geometry(sim.program, ir, base, plan, watched,
                                   trigger_edges)
    records = codegen_records(sim.program)
    for loop_id, entry_slot, entry_pc, pc in geometry:
        cand = TraceCandidate(loop_id, entry_slot, entry_pc, pc)
        record = records.get(_record_key(sim, table, cand))
        if record is not None:
            # A previous simulator of this program already recorded and
            # compiled this loop's trace: bind it now, skipping the
            # profiling warm-up entirely.
            table.slots[entry_slot] = _instantiate_trace(
                sim, predecoded, record, cand)
        else:
            table.cands[loop_id] = cand
    return table


# ---------------------------------------------------------------------------
# Path reconstruction and merging
# ---------------------------------------------------------------------------

def _walk(cand: TraceCandidate, table: TraceTable, ir, base: int,
          n: int, events: tuple) -> list | None:
    """Replay recorded branch events into a path item list.

    Items: ``('m', slot)`` plain member, ``('j', slot)`` unconditional
    jump, ``('g', slot, taken)`` conditional branch with its recorded
    direction.  The path ends when a member's next pc is the trigger
    address (the leaf).  ``None`` when the events are
    inconsistent with the IR or the path is untraceable (a watched or
    out-of-text address, a taken exit-watched branch — its fire must
    stay on the per-slot path —, an indirect jump, a ZOLC port access,
    or :data:`MAX_MEMBERS` overflow).
    """
    items: list = []
    slot = cand.entry_slot
    trigger_pc = cand.trigger_pc
    watched = table.watched
    exit_pcs = table.exit_pcs
    ei = 0
    n_events = len(events)
    while True:
        if len(items) >= MAX_MEMBERS:
            return None
        op = ir[slot]
        m = op.mnemonic
        if op.is_zolc_init or m in ("jr", "jalr", "halt"):
            return None
        if op.is_branch:
            if ei >= n_events:
                return None
            eslot, taken = events[ei]
            ei += 1
            if eslot != slot or (taken and op.target is None):
                return None
            if taken and op.address in exit_pcs:
                return None
            items.append(("g", slot, taken))
            next_pc = op.target if taken else op.link
        elif m in ("j", "jal"):
            if op.target is None:
                return None
            items.append(("j", slot))
            next_pc = op.target
        else:
            items.append(("m", slot))
            next_pc = op.link
        if next_pc == trigger_pc:
            return items if ei == n_events else None
        if next_pc in watched:
            return None
        offset = next_pc - base
        if offset < 0 or offset & 3 or offset >> 2 >= n:
            return None
        slot = offset >> 2


def _merge(tree: list, path: list) -> list | None:
    """Merge one plain path into a guard tree; ``None`` on mismatch.

    A tree is an item list whose only compound node is a trailing
    ``('split', slot, taken_subtree, fall_subtree)`` — everything
    after a divergence lives inside the subtrees, so a split is always
    the last element of its level.  Paths may only diverge at a
    same-slot guard with opposite directions; any other divergence
    (different slots, guard vs member) is unmergeable.
    """
    out: list = []
    i = 0
    while i < len(tree) and i < len(path):
        ti = tree[i]
        pi = path[i]
        if ti == pi:
            out.append(ti)
            i += 1
            continue
        if ti[0] == "split":
            if pi[0] == "g" and pi[1] == ti[1]:
                if pi[2]:
                    sub = _merge(ti[2], path[i + 1:])
                    if sub is None:
                        return None
                    out.append(("split", ti[1], sub, ti[3]))
                else:
                    sub = _merge(ti[3], path[i + 1:])
                    if sub is None:
                        return None
                    out.append(("split", ti[1], ti[2], sub))
                return out
            return None
        if ti[0] == "g" and pi[0] == "g" and ti[1] == pi[1] \
                and ti[2] != pi[2]:
            rest_t = list(tree[i + 1:])
            rest_p = list(path[i + 1:])
            if ti[2]:
                out.append(("split", ti[1], rest_t, rest_p))
            else:
                out.append(("split", ti[1], rest_p, rest_t))
            return out
        return None
    return out if i == len(tree) and i == len(path) else None


# ---------------------------------------------------------------------------
# Lowering: guard tree -> generated Python source
# ---------------------------------------------------------------------------

class _TraceAbort(Exception):
    """An untraceable construct surfaced during emission."""


class _EmitCtx:
    """Mutable emission state shared across the recursive tree walk.

    ``counts`` is the per-outcome counts-dict expression every return
    of the driver carries; the outcome count is known before emission
    (:func:`_outcome_count`), so one walk emits the driver and
    allocates the outcome table together.
    """

    __slots__ = ("lines", "line_fault", "line_member", "outcomes",
                 "sites", "guards", "ops", "ir", "base", "load_use",
                 "ord", "loop_id", "entry_pc", "counts")

    def __init__(self, ops, ir, base: int, load_use: int,
                 cand: TraceCandidate, counts: str) -> None:
        self.lines: list[str] = []
        # Index 0 is the def line (tb_lineno is 1-based), like the
        # region emitters' line_member convention.
        self.line_fault: list = [None]
        self.line_member: list = [None]
        self.outcomes: list[TraceOutcome] = []
        self.sites: list[tuple[int, int]] = []   # (_h ordinal, slot)
        self.guards: list[tuple] = []            # (lineno, slot, hot)
        self.ops = ops
        self.ir = ir
        self.base = base
        self.load_use = load_use
        self.ord = 0
        self.loop_id = cand.loop_id
        self.entry_pc = cand.entry_pc
        self.counts = counts


def _outcome_count(tree: list) -> int:
    """Outcomes a guard tree lowers to: one per one-sided guard (its
    side exit) plus one per leaf."""
    count = 0
    for item in tree:
        if item[0] == "g":
            count += 1
        elif item[0] == "split":
            return count + _outcome_count(item[2]) \
                + _outcome_count(item[3])
    return count + 1


def _snapshot(acc: list, fault_pc: int) -> tuple:
    """The precomputed pre-fault state for a line: everything the
    engine needs to retire the members before the faulting one."""
    return (acc[0], acc[1], acc[2], acc[3], acc[4],
            tuple(member[0] for member in acc[5]), acc[6], fault_pc)


def _clone(acc: list) -> list:
    return [acc[0], acc[1], acc[2], acc[3], acc[4], list(acc[5]),
            acc[6], list(acc[7])]


def _emit(ctx: _EmitCtx, depth: int, text: str, fault: tuple | None,
          slot: int | None) -> int:
    """Append one source line; returns its 0-based source line index."""
    lineno = len(ctx.line_fault)
    ctx.lines.append("    " * (depth + 1) + text)
    ctx.line_fault.append(fault)
    ctx.line_member.append(slot)
    return lineno


def _member_source(ctx: _EmitCtx, slot: int) -> list[str]:
    """The member's statements, registering a fallback site if used."""
    fb: list[int] = []
    lines = member_lines(ctx.ir[slot], ctx.ord, fb)
    if fb:
        ctx.sites.append((ctx.ord, slot))
    return lines


def _static_stall(ctx: _EmitCtx, acc: list, uses) -> int:
    """Load-use stall of the next member against the running pending
    destination — static for every member but the first (whose stall
    against the *incoming* pending is the one runtime timing check)."""
    return ctx.load_use if acc[5] and acc[6] is not None \
        and acc[6] in uses else 0


def _retire(acc: list, slot: int, bc: int, ss: int,
            load_dest: int | None, pen: int, taken: bool) -> None:
    """Fold one retiring member into the accumulator."""
    acc[0] += 1
    acc[1] += bc + ss + (pen if taken else 0)
    acc[2] += ss
    if taken:
        acc[3] += pen
        acc[4] += 1
    acc[5].append((slot, bc, ss, load_dest))
    acc[6] = load_dest


def _outcome(ctx: _EmitCtx, acc: list, is_exit: bool, pc: int,
             key: tuple | None) -> int:
    """Allocate the next outcome from the accumulator; its index."""
    ctx.outcomes.append(TraceOutcome(
        rid=next(SPAN_IDS), steps=acc[0], cycles=acc[1], stall=acc[2],
        flush=acc[3], taken=acc[4], members=tuple(acc[5]),
        out_pending=acc[6], is_exit=is_exit, pc=pc,
        prefix=tuple(acc[7]) if is_exit else (), key=key))
    return len(ctx.outcomes) - 1


def _emit_acc(ctx: _EmitCtx, acc: list, k: int, depth: int,
              fault: tuple | None, slot: int | None) -> None:
    """Fold one outcome's static deltas into the running totals (zero
    terms elided at generation time)."""
    _emit(ctx, depth, f"_o{k} += 1", fault, slot)
    for name, value in (("_steps", acc[0]), ("_cycles", acc[1]),
                        ("_stall", acc[2]), ("_flush", acc[3]),
                        ("_taken", acc[4])):
        if value:
            _emit(ctx, depth, f"{name} += {value}", fault, slot)


def _emit_escape(ctx: _EmitCtx, acc: list, k: int, depth: int,
                 fault: tuple, slot: int) -> None:
    """The guard's cold direction: fold the side exit's deltas and
    return the accounting tuple (the engine re-executes the guard
    per-slot)."""
    _emit_acc(ctx, acc, k, depth, fault, slot)
    _emit(ctx, depth,
          f"return ({ctx.counts}, _steps, _cycles, _stall, "
          f"_flush, _taken, _fires, _iw, _out[{k}], None)",
          fault, slot)


def _emit_guard(ctx: _EmitCtx, acc: list, slot: int, hot: bool,
                depth: int) -> None:
    """One-sided guard: test the branch condition *before* retirement;
    the cold direction returns the side-exit outcome (the branch does
    not retire — the engine re-executes it per-slot), the hot direction
    commits any side effect (``dbne``'s decrement) and retires."""
    op = ctx.ir[slot]
    _fn, bc, uses, _ld, pen = ctx.ops[slot]
    ss = _static_stall(ctx, acc, uses)
    fault = _snapshot(acc, op.address)
    k = _outcome(ctx, acc, True, op.address, (slot, not hot))
    if op.mnemonic == "dbne":
        _emit(ctx, depth, f"_v = (_g[{op.rs}] - 1) & {MASK32}", fault,
              slot)
        lineno = _emit(ctx, depth, "if not _v:" if hot else "if _v:",
                       fault, slot)
        _emit_escape(ctx, acc, k, depth + 1, fault, slot)
        for line in () if op.rs == 0 else (f"_g[{op.rs}] = _v",):
            _emit(ctx, depth, line, fault, slot)
    else:
        cond = branch_cond_expr(op)
        if cond is None:
            raise _TraceAbort
        lineno = _emit(ctx, depth,
                       f"if not ({cond}):" if hot else f"if {cond}:",
                       fault, slot)
        _emit_escape(ctx, acc, k, depth + 1, fault, slot)
    ctx.guards.append((lineno, slot, hot))
    _retire(acc, slot, bc, ss, None, pen, hot)
    acc[7].append((slot, hot))


def _emit_tree(ctx: _EmitCtx, tree: list, acc: list,
               depth: int) -> None:
    """Recursively lower one tree level; leaves emit their outcome.

    ``ctx.ord`` counts every path item, so along a zero-guard path a
    member's ``_h`` ordinal is its position on the path (the ordinal
    the AU001/AU002 audit of such a trace expects).
    """
    for item in tree:
        kind = item[0]
        if kind == "m":
            slot = item[1]
            op = ctx.ir[slot]
            _fn, bc, uses, ld, _pen = ctx.ops[slot]
            ss = _static_stall(ctx, acc, uses)
            fault = _snapshot(acc, op.address)
            for line in _member_source(ctx, slot):
                _emit(ctx, depth, line, fault, slot)
            _retire(acc, slot, bc, ss, ld, 0, False)
        elif kind == "j":
            slot = item[1]
            op = ctx.ir[slot]
            _fn, bc, uses, _ld, pen = ctx.ops[slot]
            ss = _static_stall(ctx, acc, uses)
            if op.mnemonic == "jal":
                _emit(ctx, depth, f"_g[31] = {op.link}",
                      _snapshot(acc, op.address), slot)
            _retire(acc, slot, bc, ss, None, pen, True)
        elif kind == "g":
            _emit_guard(ctx, acc, item[1], item[2], depth)
        else:  # split: always the last item of its level
            slot = item[1]
            op = ctx.ir[slot]
            _fn, bc, uses, _ld, pen = ctx.ops[slot]
            ss = _static_stall(ctx, acc, uses)
            fault = _snapshot(acc, op.address)
            if op.mnemonic == "dbne":
                _emit(ctx, depth, f"_v = (_g[{op.rs}] - 1) & {MASK32}",
                      fault, slot)
                # Both directions retire the branch: the decrement
                # commits unconditionally, before the split.
                if op.rs:
                    _emit(ctx, depth, f"_g[{op.rs}] = _v", fault, slot)
                test = "_v"
            else:
                test = branch_cond_expr(op)
                if test is None:
                    raise _TraceAbort
            lineno = _emit(ctx, depth, f"if {test}:", fault, slot)
            ctx.guards.append((lineno, slot, None))
            ctx.ord += 1
            taken_acc = _clone(acc)
            _retire(taken_acc, slot, bc, ss, None, pen, True)
            taken_acc[7].append((slot, True))
            _emit_tree(ctx, item[2], taken_acc, depth + 1)
            _emit(ctx, depth, "else:", fault, slot)
            fall_acc = _clone(acc)
            _retire(fall_acc, slot, bc, ss, None, pen, False)
            fall_acc[7].append((slot, False))
            _emit_tree(ctx, item[3], fall_acc, depth + 1)
            return
        ctx.ord += 1
    # Leaf: the last member's next pc is the trigger address.  The
    # fire epilogue is inlined here — account the iteration, fire the
    # trigger (``_leaf`` marks the in-fire window for the fault cell),
    # apply the index writes and either loop back or return the
    # terminating decision.  None of these lines can raise
    # synchronously, so their fault entries stay ``None``
    # (reconciliation then lands on the loop entry with no pending
    # load — exactly the post-fire architectural state).
    k = _outcome(ctx, acc, False, ctx.base + 4 * acc[5][-1][0], None)
    _emit_acc(ctx, acc, k, depth, None, None)
    # Loop-back fast path: with the engagement-hoisted record valid,
    # un-cascaded and still looping back, the task-selection decision
    # is exactly "bump the iteration counter, write the next index
    # value" — inlined here, skipping the Decision allocation.  Expiry
    # (and anything the prelude could not prove static) falls through
    # to the real fire handler.  A halt observed after the fire leaves
    # through the budget return: the caller re-enters per-slot at the
    # loop entry and sees ``state.halted`` exactly as a terminating
    # decision would have left it.
    for step, text in (
            (0, "if _fast:"),
            (1, "_done = _stat.iterations_done + 1"),
            (1, "if _done < _trips:"),
            (2, "_stat.iterations_done = _done"),
            (2, "_ctl.task_switches += 1"),
            (2, "_fires += 1"),
            (2, "_iw += 1"),
            (2, "if _ir:"),
            (3, f"_g[_ir] = (_init + _done * _stride) & {MASK32}"),
            (2, "if _state.halted:"),
            (3, "break"),
            (2, "continue"),
            (0, f"_leaf = {k}"),
            (0, f"_d = _fire({ctx.loop_id})"),
            (0, "_leaf = -1"),
            (0, "_fires += 1"),
            (0, "_w = _d.index_writes"),
            (0, "if len(_w) == 1:"),
            (1, "_r, _v = _w[0]"),
            (1, "if _r:"),
            (2, f"_g[_r] = _v & {MASK32}"),
            (0, "else:"),
            (1, "for _r, _v in _w:"),
            (2, "if _r:"),
            (3, f"_g[_r] = _v & {MASK32}"),
            (0, "_iw += len(_w)"),
            (0, f"if _d.next_pc != {ctx.entry_pc} or _state.halted:"),
            (1, f"return ({ctx.counts}, _steps, _cycles, _stall, "
                f"_flush, _taken, _fires, _iw, _out[{k}], _d)"),
            (0, "continue")):
        _emit(ctx, depth + step, text, None, None)


def _record_key(sim: "Simulator", table: TraceTable,
                cand: TraceCandidate) -> tuple:
    """Code-table key of a compiled trace blueprint.

    ``"trace"`` plus the blueprint's identity.  The per-sim path
    profiles converge (one program, one data image), so later
    simulators of the same program instantiate traces at discovery time
    without re-recording.  Unlike region source, the blueprint's
    outcome/fault tables bake in static cycle and stall deltas, so the
    pipeline config is part of the key (a pipeline sweep compiles per
    configuration).
    """
    return ("trace", cand.loop_id, cand.entry_slot, cand.trigger_pc,
            table.watched, table.exit_pcs, sim.timing.config)


def trace_record_keys(sim: "Simulator", entry_slot: int, trigger_pc: int,
                      loop_id: int) -> list[tuple]:
    """Code-table keys of one loop's trace under ``sim``'s trace tables.

    A trace's :class:`~repro.cpu.engine.emit.CodegenRecord` is filed
    under :func:`_record_key`, so the auditor reads exactly the
    blueprints this simulator runs (its pipeline config and each plan
    state's watch sets), one key per distinct table; empty until the
    simulator has run.
    """
    cand = TraceCandidate(loop_id, entry_slot,
                          sim.program.text_base + 4 * entry_slot,
                          trigger_pc)
    return list(dict.fromkeys(
        _record_key(sim, plan_table.traces, cand)
        for plan_table in sim._plan_tables.values()
        if plan_table.traces is not None))


def _compile_trace(sim: "Simulator", predecoded: PredecodedProgram,
                   table: TraceTable, cand: TraceCandidate,
                   paths: list) -> CodegenRecord | None:
    """Walk, merge and lower a path set into a trace blueprint.

    The one emission pass builds the outcome table and the
    loop-resident driver together.  The driver runs whole ``trace →
    fire → re-enter`` iterations without returning to the engine loop:
    per-outcome counters and the accounting totals accumulate in
    locals, every leaf fires the trigger and applies the index writes
    inline, and a single zero-cost ``try`` publishes progress into the
    caller's ``_cell`` only when a fault unwinds (its last outcome is
    set only for a fault raised by the fire itself, after the
    iteration retired whole).  Returns ``None`` when any path fails to
    replay against the IR or the paths are unmergeable (divergence
    anywhere but a same-slot guard) — the caller marks the candidate
    dead or the bridge unbridgeable.  The blueprint is filed in the
    program's code table under :func:`_record_key`, so a bridge rebuild
    overwrites its predecessor's record.
    """
    # Function-level import: repro.core's package __init__ imports the
    # controller, which reaches back into repro.cpu.engine.
    from repro.core.tables import FLAG_VALID

    ir = predecoded.ir
    ops = predecoded.ops
    base = sim.program.text_base
    n = len(ops)
    walked = []
    for events in paths:
        items = _walk(cand, table, ir, base, n, events)
        if items is None:
            return None
        walked.append(items)
    tree = walked[0]
    for path in walked[1:]:
        tree = _merge(tree, path)
        if tree is None:
            return None
    n_out = _outcome_count(tree)
    counts = ("{_k: _c for _k, _c in ("
              + ", ".join(f"({k}, _o{k})" for k in range(n_out))
              + ",) if _c}")
    ctx = _EmitCtx(ops, ir, base, sim.timing.config.load_use_stall,
                   cand, counts)
    loop_id = cand.loop_id
    # Engagement prelude: hoist the trigger loop's record and status
    # out of the compiled fire handler (``_fire`` is the controller's
    # bound method per the plan contract).  No ``mtz``/``mfz`` can
    # retire inside a trace, so the record fields are frozen for the
    # whole engagement; ``_fast`` proves the loop-back arm of
    # ``decide()`` — valid record, direct loop-back to this entry, no
    # valid descendants to re-initialise — can be inlined at the
    # leaves.  Anything unexpected (a port whose handler is not the
    # controller method) just disables the fast path.
    for depth, text in (
            (0, " = ".join(f"_o{k}" for k in range(n_out)) + " = 0"),
            (0, "_steps = _cycles = _stall = _flush = _taken = "
                "_fires = _iw = 0"),
            (0, "_leaf = -1"),
            (0, "_fast = False"),
            (0, "try:"),
            (1, "_ctl = _fire.__self__"),
            (1, f"_rec = _ctl.tables.loops[{loop_id}]"),
            (1, f"_stat = _ctl.unit.status[{loop_id}]"),
            (1, "_trips = _rec.trips"),
            (1, "_init = _rec.initial"),
            (1, "_stride = _rec.step"),
            (1, "_ir = _rec.index_reg"),
            (1, f"_fast = (bool(_rec.flags & {FLAG_VALID}) "
                f"and _rec.body_pc == {cand.entry_pc} "
                "and _fire.__func__ is _FT "
                "and _ctl._decide.__func__ is _DEC)"),
            (1, "if _fast:"),
            (2, f"for _c in _ctl.unit.descendants({loop_id}):"),
            (3, f"if _ctl.tables.loops[_c].flags & {FLAG_VALID}:"),
            (4, "_fast = False"),
            (4, "break"),
            (0, "except Exception:"),
            (1, "_fast = False"),
            (0, "try:")):
        _emit(ctx, depth, text, None, None)
    # The loop header bounds each iteration by its longest outcome,
    # known once the tree is lowered: emit a placeholder, fill it in.
    header = _emit(ctx, 1, "", None, None) - 1
    try:
        _emit_tree(ctx, tree, [0, 0, 0, 0, 0, [], None, []], 2)
    except _TraceAbort:
        return None
    max_out = max(o.steps for o in ctx.outcomes)
    ctx.lines[header] = f"        while _steps + {max_out} <= _budget:"
    for depth, text in (
            (1, f"return ({counts}, _steps, _cycles, _stall, _flush, "
                "_taken, _fires, _iw, None, None)"),
            (0, "except BaseException:"),
            (1, f"_cell[:] = [{counts}, _steps, _cycles, _stall, _flush, "
                "_taken, _fires, _iw, "
                "_out[_leaf] if _leaf >= 0 else None, None]"),
            (1, "raise")):
        _emit(ctx, depth, text, None, None)
    params = ", ".join(
        f"{name}={name}"
        for name in REGION_HELPERS
        + tuple(f"_h{k}" for k, _ in ctx.sites)
        + ("_out", "_FT", "_DEC"))
    return record_codegen(
        sim.program, _record_key(sim, table, cand),
        f"def _trace(_fire, _budget, _cell, {params}):\n"
        + "\n".join(ctx.lines),
        kind="trace", start=cand.entry_slot, term=cand.entry_slot,
        line_member=tuple(ctx.line_member), fallbacks=tuple(ctx.sites),
        loop_id=loop_id, guards=tuple(ctx.guards), paths=tuple(paths),
        outcomes=tuple(ctx.outcomes), line_fault=tuple(ctx.line_fault))


def _instantiate_trace(sim: "Simulator", predecoded: PredecodedProgram,
                       record: CodegenRecord,
                       cand: TraceCandidate) -> Trace:
    """Bind a blueprint record to one simulator's architectural state."""
    # Imported here, not at module level: repro.core.__init__ pulls in
    # the controller, which reaches back into cpu.engine.
    from repro.core.controller import ZolcController
    from repro.core.task_select import TaskSelectionUnit

    ops = predecoded.ops
    bindings = {f"_h{k}": ops[slot][0] for k, slot in record.fallbacks}
    bindings.update(_out=record.outcomes,
                    _FT=ZolcController.fire_trigger,
                    _DEC=TaskSelectionUnit.decide)
    return Trace(instantiate(sim, record.code, "_trace", bindings),
                 record, ops[cand.entry_slot][2], cand)


def build_trace(sim: "Simulator", predecoded: PredecodedProgram,
                table: TraceTable, cand: TraceCandidate,
                paths: list) -> Trace | None:
    """Compile (or fetch) the blueprint for ``paths`` and bind it.

    The blueprint record lives in the program's code table — fresh
    simulators of one program skip walk/merge/codegen entirely, and a
    bridge splice (a grown path set) recompiles and overwrites it.
    """
    record = codegen_records(sim.program).get(_record_key(sim, table, cand))
    if record is None or record.paths != tuple(paths):
        record = _compile_trace(sim, predecoded, table, cand, paths)
        if record is None:
            return None
    return _instantiate_trace(sim, predecoded, record, cand)


# ---------------------------------------------------------------------------
# Recording hooks (called from the traced engine's dispatch loop)
# ---------------------------------------------------------------------------

def _kill_soft(rec: TraceRecorder) -> None:
    """Abandon a recording without condemning its subject: the
    iteration was unlucky (expiry, a fired exit/entry watch).  The
    candidate/bridge re-arms, up to :data:`MAX_RETRIES` abandons."""
    if rec.exit_key is None:
        cand = rec.cand
        cand.fails += 1
        if cand.fails > MAX_RETRIES:
            cand.dead = True
        else:
            cand.count = 0
    else:
        trace = rec.trace
        fails = trace.bridge_fails.get(rec.exit_key, 0) + 1
        trace.bridge_fails[rec.exit_key] = fails
        if fails > MAX_RETRIES:
            trace.no_bridge.add(rec.exit_key)
        else:
            trace.fail[rec.exit_key] = 0


def _kill_hard(rec: TraceRecorder) -> None:
    """A structurally untraceable construct retired mid-recording."""
    if rec.exit_key is None:
        rec.cand.dead = True
    else:
        rec.trace.no_bridge.add(rec.exit_key)


def abandon_recording(rec: TraceRecorder) -> None:
    """Soft-kill hook for fired exit/entry watches; returns ``None``
    so the caller can rebind its recorder local in one statement."""
    _kill_soft(rec)
    return None


def record_step(rec: TraceRecorder, op, taken: bool
                ) -> TraceRecorder | None:
    """Observe one retirement mid-recording.

    Conditional branches append their ``(slot, taken)`` event — the
    only dynamic information a path replay needs; anything a trace
    cannot contain (indirect jump, ``halt``, port access) kills the
    recording hard.  Returns the recorder, or ``None`` when killed.
    """
    if op.is_branch:
        if len(rec.events) >= MAX_EVENTS:
            _kill_hard(rec)
            return None
        rec.events.append((op.index, taken))
        return rec
    if op.is_zolc_init or op.mnemonic in ("jr", "jalr", "halt"):
        _kill_hard(rec)
        return None
    return rec


def note_fire(sim: "Simulator", predecoded: PredecodedProgram,
              table: TraceTable, rec: TraceRecorder | None,
              loop_id: int, decision) -> TraceRecorder | None:
    """Post-``fire_trigger`` hook: finish a recording or profile one.

    With a recorder active, any fire ends it: the candidate's own
    direct loop-back completes the path (built, or spliced into the
    existing trace); anything else abandons it.  Without one, a
    loop-back fire advances the candidate's counter; at
    :data:`HOT_THRESHOLD` a straight-line body is compiled on the spot
    and a branchy one starts its initial recording.  Returns the (new)
    recorder state — recording always ends at a fire, so this is
    either ``None`` or a freshly started initial recording.
    """
    if rec is None:
        cand = table.cands.get(loop_id)
        if (cand is None or cand.dead
                or table.slots[cand.entry_slot] is not None
                or decision.next_pc != cand.entry_pc):
            return None
        cand.count += 1
        if cand.count < HOT_THRESHOLD:
            return None
        # A body with no conditional branch has exactly one path, so
        # it compiles from the empty event list with no recording — a
        # recording could be abandoned every time (a 3-trip inner
        # loop's HOT_THRESHOLD-th loop-back can always precede its
        # expiry).  A branchy body fails that walk at its first branch.
        trace = build_trace(sim, predecoded, table, cand, [()])
        if trace is None:
            return TraceRecorder(cand, None, None, ())
        table.slots[cand.entry_slot] = trace
        return None
    cand = rec.cand
    if loop_id != cand.loop_id or decision.next_pc != cand.entry_pc:
        _kill_soft(rec)
        return None
    path = rec.prefix + tuple(rec.events)
    old = rec.trace
    if old is None:
        trace = build_trace(sim, predecoded, table, cand, [path])
        if trace is None:
            cand.dead = True
        else:
            table.slots[cand.entry_slot] = trace
        return None
    if path in old.paths or len(old.paths) >= MAX_PATHS:
        old.no_bridge.add(rec.exit_key)
        return None
    trace = build_trace(sim, predecoded, table, cand,
                        old.paths + [path])
    if trace is None:
        old.no_bridge.add(rec.exit_key)
    else:
        trace.no_bridge |= old.no_bridge
        table.slots[cand.entry_slot] = trace
    return None


def note_side_exit(trace: Trace, out: TraceOutcome,
                   rec: TraceRecorder | None) -> TraceRecorder | None:
    """Post-side-exit hook: profile the guard's cold direction.

    At :data:`BRIDGE_THRESHOLD` exits through one guard (and no
    recording in flight, bridging not forbidden for it, and path
    headroom left) a bridge recording starts: its path prefix is the
    outcome's branch-decision prefix, and its first recorded event
    will be the guard itself, re-executed per-slot in its actual
    (cold) direction.  Returns the (possibly new) recorder.
    """
    key = out.key
    fails = trace.fail.get(key, 0) + 1
    trace.fail[key] = fails
    if (rec is None and fails >= BRIDGE_THRESHOLD
            and key not in trace.no_bridge
            and len(trace.paths) < MAX_PATHS
            and not trace.cand.dead):
        trace.fail[key] = 0
        return TraceRecorder(trace.cand, trace, key, out.prefix)
    return rec


# ---------------------------------------------------------------------------
# Execution: fault reconciliation
# ---------------------------------------------------------------------------
#
# The loop-resident driver itself is *generated* per trace (see
# :func:`_compile_trace` and ``Trace.run``): one plain Python loop
# executing whole ``trace → fire → re-enter`` iterations without
# returning to the engine loop, until the fire decision stops looping
# back, a guard side-exits, or the (watchdog-derived) step budget
# cannot fit another worst-case iteration.  It is called as
# ``run(fire_trigger, budget, cell)`` and returns ``(counts, steps,
# cycles, stall, flush, taken, fires, index_writes, last_outcome,
# decision)`` — ``decision`` is ``None`` when the budget ran out or
# ``last_outcome`` is a side exit; ``cell`` publishes the same tuple
# only when a fault unwinds, with ``last_outcome`` set only when the
# fire itself raised.


def reconcile_trace_fault(exc: BaseException, trace: Trace,
                          retired: list[int]) -> tuple:
    """Account a fault raised inside a generated trace driver.

    Maps the generated frame's line number through the trace's
    precomputed line → pre-fault-state table: every member *before*
    the faulting one retires (``retired`` is bumped in place) and the
    architectural pc lands on the faulting member, exactly as the
    per-instruction engines leave it.  Returns
    ``(steps, cycles, stall, flush, taken, out_pending, pc)``; with
    ``steps == 0`` the caller must leave its pending state untouched.
    """
    fault = fault_entry(exc, trace.line_fault)
    if fault is None:
        return (0, 0, 0, 0, 0, None, trace.entry_pc)
    steps, cycles, stall, flush, taken, member_idxs, out_pending, pc = \
        fault
    for idx in member_idxs:
        retired[idx] += 1
    return steps, cycles, stall, flush, taken, out_pending, pc
