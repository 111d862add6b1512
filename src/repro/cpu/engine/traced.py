"""The predecoded run loop (``engine="auto"``): fused regions and the
dispatch loop that drives loop-resident traces.

Retiring one predecoded slot at a time still pays one full dispatch
iteration per instruction: a bounds check, a tuple unpack, a handler
call, a pending load-use probe and the taken/not-taken triage.  For
straight-line code all of that triage is static, so the run loop
partitions the ``pc >> 2`` handler array into maximal
*straight-line regions* — the shared
:func:`~repro.cpu.ir.straightline_terms` scan — and lowers each region
through the shared emitter (:mod:`repro.cpu.engine.emit`) into one
generated "megahandler" that executes the whole block with a single
Python call.  Timing/stat bookkeeping is applied in batch: a region's
base cycles and intra-region load-use stalls are static (the pending
destination after member *i* is member *i*'s own load destination), so
only the stall of the region's *first* instruction against the incoming
pending load remains a runtime check.  Per-slot retirement counts
accumulate per region and are expanded into per-slot counts once, at
sync time.

Compilation is tiered (:func:`_hot_region`): a region start counts its
entries, and its megahandler is fused only once the count reaches
:data:`~repro.cpu.engine.trace.HOT_THRESHOLD` — the constant that also
gates trace promotion — or on first entry when the Program already
holds the region's code.  Until then the slot runs on the single-slot
path, so a cold cell pays codegen only for its hot loops.

Every dispatch table of one controller plan state — the region table,
its heat, the watch arrays and the trace table — lives in one
:class:`PlanTable`, one dict probe away on the simulator (keyed by the
plan's watch-set content key, ``None`` while unarmed), re-resolved at
exactly the points the run loop re-queries the plan: after an expiring
trigger fire and after every retired ``mtz`` to ``CTRL_ARM`` or
``CTRL_RESET`` (:attr:`~repro.cpu.ir.IROp.zolc_ctrl`), the only port
accesses that can change the armed state or the watch sets.  Table writes and
``mfz`` retire inside regions, and a ``reset … writes … arm``
preheader runs as one region that re-queries the plan once, after
the arm (DESIGN.md §8).  A re-arm epoch change therefore invalidates
and re-slices the regions before the next batched dispatch.

A hot ZOLC loop leaves the region tier altogether: at its entry slot the
loop turns *resident*, and its trace (:mod:`repro.cpu.engine.trace`)
runs whole ``body → fire → re-enter`` iterations inside generated code —
a straight-line body as a zero-guard trace, a branchy one with guards.

A fault inside a fused region (memory access error, ZOLC fault) is
reconciled from the traceback's line number back to the faulting member
(the shared :func:`~repro.cpu.engine.emit.fault_entry` walk),
so the partial retirement is accounted exactly as the stepped
interpreter would have: members before the fault retire (steps, cycles,
stalls, counts), the faulting member does not, and ``state.pc`` lands on
the faulting instruction.  See DESIGN.md §8, §9 and §12.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.cpu.exceptions import InvalidFetchError, WatchdogError
from repro.cpu.ir import build_ir, straightline_terms

from repro.cpu.engine.dispatch import HALT, SPAN_IDS, PredecodedProgram
from repro.cpu.engine.emit import (
    REGION_HELPERS,
    CodegenRecord,
    codegen_records,
    fault_entry,
    instantiate,
    member_lines,
    record_codegen,
    term_lines,
)
from repro.cpu.engine.trace import (
    HOT_THRESHOLD,
    TraceTable,
    abandon_recording,
    discover_traces,
    note_fire,
    note_side_exit,
    reconcile_trace_fault,
    record_step,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.simulator import Simulator

#: Region identities draw from the engine-wide span-id sequence, shared
#: with trace outcomes: the traced loop keys its per-run execution
#: counts by this int (``rcounts``), so ids must never collide across
#: artifact kinds.
_REGION_IDS = SPAN_IDS


class TraceRegion(NamedTuple):
    """One fused straight-line region of the dispatch array.

    The traced loop *unpacks* the whole record in one sequence unpack
    (NamedTuple attribute access would cost a descriptor chase per
    field per execution), so the field order below is load-bearing.
    """

    mega: Callable[[], object]         # runs every member; returns the
                                       # terminator's handler result
    size: int                          # member count, terminator included
    cycles: int                        # static cycles: bases + inner stalls
    stall: int                         # the static stall portion of cycles
    first_uses: frozenset[int]         # register uses of member 0
    out_pending: int | None            # load destination of the terminator
    term_pc: int
    term_idx: int
    term_taken_penalty: int
    rid: int                           # per-process region identity
    start_idx: int
    #: per-member (slot index, base cycles, static stall, load dest) —
    #: used for fault reconciliation and retired-count expansion.
    members: tuple
    #: generated-source line number (0-based) -> member ordinal.
    line_member: tuple


def _region_record(program, start: int, term: int) -> CodegenRecord:
    """The code-table record of the megahandler for slots ``start..term``.

    Compiled on first use and filed in the program's code table: the
    generated source is lowered from the program's IR and depends only
    on it and the region span — the register list, memory methods and
    fallback closures arrive per simulator through :func:`instantiate`
    — so every simulator of one :class:`~repro.asm.assembler.Program`
    (repeated benchmark runs, the suite runner re-simulating a prepared
    kernel, another pipeline config) shares one compile.
    """
    record = codegen_records(program).get(("region", start, term, None))
    if record is not None:
        return record
    ir = build_ir(program)
    lines: list[str] = []
    line_member: list[int | None] = [None]      # line 1 is the def line
    fallbacks: list[int] = []
    for ordinal, i in enumerate(range(start, term + 1)):
        source = (term_lines if i == term else member_lines)(
            ir[i], ordinal, fallbacks)
        for statement in source:
            lines.append("    " + statement)
            line_member.append(ordinal)
    params = ", ".join(
        f"{name}={name}"
        for name in REGION_HELPERS + tuple(f"_h{k}" for k in fallbacks))
    # `lines` is never empty: term_lines always ends in a `return`.
    return record_codegen(
        program, ("region", start, term, None),
        f"def _mega({params}):\n" + "\n".join(lines),
        kind="region", start=start, term=term,
        line_member=tuple(line_member),
        fallbacks=tuple((k, start + k) for k in fallbacks))


def _build_region(sim: "Simulator", predecoded: PredecodedProgram,
                  start: int, term: int, load_use: int) -> TraceRegion:
    """Fuse slots ``start..term`` into one compiled megahandler."""
    ops = predecoded.ops
    base = sim.program.text_base
    record = _region_record(sim.program, start, term)
    mega = instantiate(sim, record.code, "_mega", {
        f"_h{k}": ops[slot][0] for k, slot in record.fallbacks})
    cycles = stall = 0
    members: list[tuple[int, int, int, int | None]] = []
    prev_dest: int | None = None
    for ordinal, i in enumerate(range(start, term + 1)):
        _fn, base_cycles, uses, load_dest, _penalty = ops[i]
        static_stall = load_use if (ordinal and prev_dest is not None
                                    and prev_dest in uses) else 0
        cycles += base_cycles + static_stall
        stall += static_stall
        members.append((i, base_cycles, static_stall, load_dest))
        prev_dest = load_dest
    return TraceRegion(
        mega=mega, size=term - start + 1,
        cycles=cycles, stall=stall, first_uses=ops[start][2],
        out_pending=ops[term][3], term_pc=base + 4 * term, term_idx=term,
        term_taken_penalty=ops[term][4],
        rid=next(_REGION_IDS), start_idx=start,
        members=tuple(members), line_member=record.line_member)


def _hot_region(sim: "Simulator", predecoded: PredecodedProgram,
                regions: list, heat: list[int], idx: int, term: int,
                load_use: int) -> TraceRegion | None:
    """Tiering policy for an unfused region start: its region, or ``None``.

    A region is fused once it is hot — its entry count at ``idx``
    reaches :data:`~repro.cpu.engine.trace.HOT_THRESHOLD`, the constant
    that also gates trace promotion — or on first entry when the
    Program already holds its compiled code, since only ``exec`` is
    left to pay.  Otherwise the entry is counted and ``None`` sends the
    caller down the single-slot path, which retires exactly what the
    fused region would have.
    """
    count = heat[idx] + 1
    if count < HOT_THRESHOLD and ("region", idx, term, None) \
            not in codegen_records(sim.program):
        heat[idx] = count
        return None
    region = _build_region(sim, predecoded, idx, term, load_use)
    regions[idx] = region
    return region


def _reconcile_region_fault(exc: BaseException, region: TraceRegion,
                            base: int, retired: list[int], steps: int,
                            cycles: int, stall: int, pending: int | None,
                            load_use: int):
    """Account a fault raised inside a fused megahandler.

    Walks the traceback to the generated frame, maps its line number
    back to the faulting member, and retires every member *before* it —
    exactly the state the per-instruction engines leave behind when a
    handler raises.  Returns the updated ``(steps, cycles, stall,
    pending, pc)`` bundle; ``retired`` is updated in place.
    """
    faulting = fault_entry(exc, region.line_member) or 0
    if faulting:
        if pending is not None and pending in region.first_uses:
            cycles += load_use
            stall += load_use
        for idx, base_cycles, static_stall, _dest in \
                region.members[:faulting]:
            retired[idx] += 1
            cycles += base_cycles + static_stall
            stall += static_stall
        pending = region.members[faulting - 1][3]
    steps += faulting
    pc = base + 4 * (region.start_idx + faulting)
    return steps, cycles, stall, pending, pc


def _compile_watch_arrays(plan, n: int, base: int):
    """Fold a compiled controller plan into dense per-slot watch arrays.

    Returns ``(next_watch, exit_watch, far_watch)``:

    * ``next_watch[idx]`` — ``None`` for unwatched slots, else
      ``(entry_record_id | None, trigger_loop_id | None)`` consulted
      against the *next* pc of every retirement (entry records take
      precedence, falling through to the trigger when the entry does
      not fire — the same order ``on_retire`` checks);
    * ``exit_watch[idx]`` — exit record id at the retiring pc, consulted
      only for taken transfers;
    * ``far_watch`` — next-pc watch entries whose address falls outside
      (or misaligns with) the text image; consulted only when a
      transfer leaves the dense array, so hand-programmed tables keep
      exact ``on_retire`` semantics.
    """
    limit = 4 * n
    next_watch: list[tuple[int | None, int | None] | None] = [None] * n
    exit_watch: list[int | None] = [None] * n
    far_watch: dict[int, tuple[int | None, int | None]] = {}
    entry_at = dict(plan.entries)
    trigger_at = dict(plan.triggers)
    for pc in entry_at.keys() | trigger_at.keys():
        record = (entry_at.get(pc), trigger_at.get(pc))
        offset = pc - base
        if 0 <= offset < limit and not offset & 3:
            next_watch[offset >> 2] = record
        else:
            far_watch[pc] = record
    for pc, record_id in plan.exits:
        offset = pc - base
        if 0 <= offset < limit and not offset & 3:
            exit_watch[offset >> 2] = record_id
        # An exit branch outside the text image can never retire: no
        # dense slot, and the current pc is always in range, so it is
        # dropped rather than mirrored into far_watch.
    return next_watch, exit_watch, far_watch


class PlanTable:
    """Every dispatch table of one controller plan state.

    ``regions`` is the shared :func:`straightline_terms` scan under the
    plan's watched next pcs: ``None`` for slots that cannot begin a
    region of at least two instructions, else the terminator slot index
    (an ``int``) — a region start not yet fused, which
    :func:`_hot_region` replaces by its :class:`TraceRegion` once the
    region is hot.  ``heat`` holds one entry counter per slot for
    :func:`_hot_region`.  The watch arrays are
    :func:`_compile_watch_arrays`' (``None`` while unarmed), and
    ``traces`` is the :class:`~repro.cpu.engine.trace.TraceTable`,
    discovered on the first resident resolve (``None`` until then, and
    always while unarmed).

    Cached on the simulator by the plan's watch-set content key
    (``None`` while unarmed), so re-arming the same tables re-uses the
    slicing, the watch arrays, every fused megahandler and trace *and*
    the heat gathered so far.  The cache is cleared whenever the
    program is re-predecoded (ZOLC port swap).  The slicing and the
    watch arrays depend only on the program and the plan's watch sets,
    so they are computed once per program and plan key
    (:func:`_plan_geometry`); a new simulator copies the slicing and
    shares the watch arrays, which nothing writes.
    """

    __slots__ = ("regions", "heat", "next_watch", "exit_watch",
                 "far_watch", "traces")

    def __init__(self, program, predecoded: PredecodedProgram, plan,
                 n: int, base: int) -> None:
        regions, self.next_watch, self.exit_watch, self.far_watch = \
            _plan_geometry(program, predecoded, plan, n, base)
        self.regions = list(regions)
        self.heat = [0] * n
        self.traces: TraceTable | None = None


#: Program attribute caching :func:`_plan_geometry` per plan key.
_PLAN_GEOMETRY_ATTR = "_plan_geometry"


def _plan_geometry(program, predecoded: PredecodedProgram, plan, n: int,
                   base: int) -> tuple:
    """One plan state's region slicing and watch arrays, per program.

    ``(regions, next_watch, exit_watch, far_watch)``: the
    :func:`straightline_terms` scan under the plan's watched next pcs
    (a tuple, copied into each :class:`PlanTable`) and
    :func:`_compile_watch_arrays`' arrays (``None`` while unarmed).
    Both are pure in the program's IR and the plan's watch sets, so
    every simulator of one program (a uZOLC kernel re-arming one plan
    per loop, on every cell) shares one scan per plan key.
    """
    per_program = program.__dict__.get(_PLAN_GEOMETRY_ATTR)
    if per_program is None:
        per_program = program.__dict__[_PLAN_GEOMETRY_ATTR] = {}
    key = None if plan is None else plan.key
    geometry = per_program.get(key)
    if geometry is None:
        if plan is None:
            regions = straightline_terms(predecoded.metas, base,
                                         frozenset())
            watch = (None, None, None)
        else:
            regions = straightline_terms(predecoded.metas, base,
                                         plan.watched_next_pcs())
            watch = _compile_watch_arrays(plan, n, base)
        geometry = per_program[key] = (tuple(regions), *watch)
    return geometry


def _traced_dispatch_state(plan, sim: "Simulator",
                           predecoded: PredecodedProgram, n: int,
                           base: int, zolc, no_regions: list,
                           resident: bool, memo: dict):
    """Resolve the run loop's dispatch state from a plan query.

    Returns the local-variable bundle the run loop runs on:
    ``(next_watch, exit_watch, far_watch, fire_exit, fire_entry,
    decisions, epoch, active_without_plan, regions, heat, traces,
    jit)``, read from the plan's :class:`PlanTable`: found by the key
    object's identity when this run already resolved it (an identical
    re-arm hands out the same key object; ``memo`` maps ``id(key)`` to
    ``(key, table)``), else by one dict probe that hashes the key.
    With no plan the watch arrays, fire handlers and epoch are
    ``None``; ``active_without_plan`` then reports whether the port is
    active anyway (the transient arm-writes-pending window).  In that
    window every retirement must reach ``on_retire``, so batching
    pauses: the all-``None`` ``no_regions`` table is served until the
    plan appears.  The same all-``None`` table stands in for the trace
    table whenever there is no compiled plan (traces only exist against
    one — their leaves call the plan's decision closures directly) or
    ``resident`` is off, in which case no trace is bound; ``jit`` is
    the :class:`~repro.cpu.engine.trace.TraceTable` or ``None``.
    ``heat`` is the region table's entry counters (``None`` beside the
    all-``None`` table, which has no region start to count).
    """
    if plan is None and zolc is not None and zolc.active:
        return (None, None, None, None, None, None, None, True,
                no_regions, None, no_regions, None)
    key = None if plan is None else plan.key
    known = memo.get(id(key))
    if known is not None:
        table = known[1]
    else:
        table = sim._plan_tables.get(key)
        if table is None:
            table = sim._plan_tables[key] = PlanTable(
                sim.program, predecoded, plan, n, base)
        # The memo holds the key itself, so its id stays unique.
        memo[id(key)] = (key, table)
    if plan is None:
        return (None, None, None, None, None, None, None, False,
                table.regions, table.heat, no_regions, None)
    jit = None
    if resident:
        jit = table.traces
        if jit is None:
            jit = table.traces = discover_traces(sim, predecoded, plan)
    return (table.next_watch, table.exit_watch, table.far_watch,
            plan.fire_exit, plan.fire_entry, plan.decisions,
            plan.epoch, False, table.regions, table.heat,
            no_regions if jit is None else jit.slots, jit)


def run_traced(sim: "Simulator", max_steps: int,
               predecoded: PredecodedProgram,
               resident: bool = True) -> None:
    """Trace-batched run loop: fused regions over the predecoded array.

    Retires *identical* (pc, regs, memory, cycles, stats, controller
    counters) sequences to the stepped oracle — the invariant pinned by
    ``tests/test_engine_fuzz.py``.  Batching is skipped wherever it
    could be observed: a region only executes when its full length fits
    under the watchdog budget (so ``max_steps`` semantics are exact),
    and the transient armed-without-plan window runs per-instruction.
    ``sim.zolc`` must be ``None`` or expose ``zolc_plan``: a port
    without one needs every retirement offered to ``on_retire``, which
    only the stepped interpreter does, so ``Simulator.run`` routes it
    there (and a direct call with one raises ``AttributeError``).

    One loop serves every machine.  Each iteration engages a trace,
    or retires a fused region or one predecoded slot and then
    dispatches that retirement: one taken/HALT triage, then either the
    plan-compiled watch check or the ``on_retire`` oracle path (an
    arm/reset slot, or an active port without a plan).  A machine
    without a ZOLC runs the same loop with no plan: its port accesses
    raise before they reach the dispatch.

    ``resident`` enables loop-resident traces
    (:mod:`~repro.cpu.engine.trace`): a hot ZOLC loop — straight-line
    or branchy — runs as a generated ``body → fire → re-enter`` driver,
    executing whole iteration batches per engine-loop entry (watchdog
    budget, cycle / stall / retired / controller bookkeeping and fault
    reconciliation all preserved per iteration).  ``resident=False``
    leaves the region tier alone — the throughput benchmark's reference
    column; ``Simulator.run`` is always resident.
    """
    zolc = sim.zolc
    plan_fn = zolc.zolc_plan if zolc is not None else None

    state = sim.state
    timing = sim.timing
    stats = sim.stats
    ops = predecoded.ops
    metas = predecoded.metas

    base = sim.program.text_base
    n = len(ops)
    limit = 4 * n
    load_use = timing.config.load_use_stall
    zolc_switch_extra = timing.config.zolc_switch_cycles

    pc = state.pc
    pending = timing._pending_load_dest
    cycles = stats.cycles
    stall = timing.stall_cycles
    flush = timing.flush_cycles
    taken_branches = stats.taken_branches
    index_writes = 0
    task_switches = 0
    retired = [0] * n
    rcounts: dict[int, int] = {}          # span rid -> executions
    rmembers_by_id: dict[int, tuple] = {}  # span rid -> members
    steps = 0
    halted = state.halted
    # Trace state: the in-flight recording (if any) and the residency
    # tally published to the simulator at sync time.
    jit_rec = None
    trace_steps = 0

    regs_write = state.regs.write
    g = state.regs._regs
    # Decision closures write index registers themselves: one per fire,
    # plus what the port counts as extra (descendants, cascades).
    extra_writes0 = zolc.extra_index_writes if zolc is not None else 0
    ctrl = [meta.zolc_ctrl is not None for meta in metas]
    irops = predecoded.ir
    no_regions: list = [None] * n

    memo: dict = {}

    def resync(plan):
        return _traced_dispatch_state(plan, sim, predecoded, n, base,
                                      zolc, no_regions, resident, memo)

    try:
        (znext, zexit, zfar, fire_exit, fire_entry, decisions,
         zepoch, zactive, regions, heat, traces, jit) = resync(
            plan_fn() if plan_fn is not None else None)
        while not halted:
            if steps >= max_steps:
                raise WatchdogError(
                    f"no halt after {max_steps} instructions (pc={pc:#x})")
            offset = pc - base
            if offset < 0 or offset >= limit or offset & 3:
                raise InvalidFetchError(pc)
            idx = offset >> 2
            # -- engage a trace -------------------------------------------
            trace = traces[idx]
            if (trace is not None and jit_rec is None
                    and steps + trace.max_steps <= max_steps):
                # Loop-resident from the entry slot: the driver's first
                # iteration IS the trace execution.  The driver assumes
                # post-fire entry (pending None); the caller settles the
                # incoming load-use hazard itself, charging it only if
                # the first member actually retired.  A fault leaves the
                # same accounting in ``cell``, with the last outcome set
                # only when the fire itself raised.
                stall0 = (load_use if pending is not None
                          and pending in trace.first_uses else 0)
                cell: list = []
                fault = None
                try:
                    resident_run = trace.run(decisions[trace.loop_id],
                                             max_steps - steps, cell)
                except BaseException as exc:
                    fault = exc
                    resident_run = cell
                (ccounts, csteps, ccycles, cstall, cflush, ctaken,
                 cfires, last_rec, target) = resident_run
                for outcome, cc in zip(trace.outcomes, ccounts):
                    if cc:
                        crid = outcome.rid
                        ccount = rcounts.get(crid)
                        if ccount is None:
                            rcounts[crid] = cc
                            rmembers_by_id[crid] = outcome.members
                        else:
                            rcounts[crid] = ccount + cc
                steps += csteps
                cycles += ccycles + cfires * zolc_switch_extra
                stall += cstall
                flush += cflush
                taken_branches += ctaken
                task_switches += cfires
                index_writes += cfires
                trace_steps += csteps
                if csteps and stall0:
                    cycles += stall0
                    stall += stall0
                if fault is not None:
                    if last_rec is not None:
                        # The fire itself raised: the last trace
                        # execution retired whole; post-mortem pc is
                        # its retiring member.
                        pending = last_rec.out_pending
                        pc = last_rec.pc
                    else:
                        # Fault inside a trace body.  Only the very
                        # first iteration can carry incoming pending;
                        # later ones enter post-fire.
                        (fsteps, fcycles, fstall, fflush, ftaken,
                         fpending, fpc) = reconcile_trace_fault(
                            fault, trace, retired)
                        if fsteps and not csteps and stall0:
                            fcycles += stall0
                            fstall += stall0
                        steps += fsteps
                        cycles += fcycles
                        stall += fstall
                        flush += fflush
                        taken_branches += ftaken
                        pending = (fpending if fsteps
                                   else None if csteps else pending)
                        pc = fpc
                    raise fault
                halted = state.halted
                if last_rec is None or last_rec.is_exit:
                    if last_rec is not None:
                        # The guard did not retire: the engine
                        # re-executes the branch per-slot at its own
                        # address, watches and all — the side exit is
                        # architecturally exact.
                        pending = last_rec.out_pending
                        jit_rec = note_side_exit(trace, last_rec, jit_rec)
                        pc = last_rec.pc
                        continue
                    # Watchdog budget exhausted after a loop-back fire:
                    # per-slot dispatch finishes the tail exactly from
                    # the loop entry.
                    pending = None
                    pc = trace.entry_pc
                    continue
                # A fire ended the run: ``target`` is its next pc.
                pending = None
                if target is None:
                    # Expiry: the only decision that can disarm.
                    plan = plan_fn()
                    if plan is None or plan.epoch != zepoch:
                        (znext, zexit, zfar, fire_exit, fire_entry,
                         decisions, zepoch, zactive, regions, heat,
                         traces, jit) = resync(plan)
                        jit_rec = None
                    pc = trace.trigger_pc
                else:
                    # Cascade redirect (or halted mid loop-back): the
                    # plan is still valid.
                    pc = target
                continue
            # -- retire: a fused region or one predecoded slot ------------
            region = regions[idx]
            if region is not None and region.__class__ is int:
                region = _hot_region(sim, predecoded, regions, heat, idx,
                                     region, load_use)
            # A region only runs whole under the watchdog budget
            # (``region[1]`` is its size); the boundary retires per slot,
            # so max_steps is exact.
            if region is not None and steps + region[1] <= max_steps:
                # The region retires through its terminator: ``pc`` and
                # ``idx`` move there, so the watch dispatch below sees
                # the retiring instruction and a fault raised by a fire
                # handler post-mortems at it, exactly like the
                # per-instruction engines.  The interior slots are
                # unwatched by construction.
                (mega, size, rcycles, rstall, first_uses, out_pending,
                 pc, idx, penalty, rid, _start, rmembers,
                 _lines) = region
                try:
                    res = mega()
                except BaseException as exc:
                    steps, cycles, stall, pending, pc = \
                        _reconcile_region_fault(
                            exc, region, base, retired, steps,
                            cycles, stall, pending, load_use)
                    raise
                steps += size
                cycles += rcycles
                stall += rstall
                if pending is not None and pending in first_uses:
                    cycles += load_use
                    stall += load_use
                count = rcounts.get(rid)
                if count is None:
                    rcounts[rid] = 1
                    rmembers_by_id[rid] = rmembers
                else:
                    rcounts[rid] = count + 1
                pending = out_pending
            else:
                # Single slot: a cold region, a jump into a region, a
                # port-active window or the watchdog boundary.
                fn, base_cycles, uses, load_dest, penalty = ops[idx]
                res = fn(pc)
                steps += 1
                retired[idx] += 1
                cycles += base_cycles
                if pending is not None and pending in uses:
                    cycles += load_use
                    stall += load_use
                pending = load_dest
            # -- dispatch the retirement ----------------------------------
            if res is None:
                next_pc = pc + 4
                taken = False
            elif res is HALT:
                halted = True
                next_pc = pc
                taken = False
            else:
                next_pc = res
                taken = True
                taken_branches += 1
                cycles += penalty
                flush += penalty
            if jit_rec is not None:
                # Region interiors are straight-line, so the retiring
                # slot is the only one whose outcome a path recording
                # needs.
                jit_rec = record_step(jit_rec, irops[idx], taken)
            if zolc is None or halted:
                # No port to watch the retirement (a portless machine's
                # port accesses raise before they retire), or the
                # machine halted.
                pass
            elif znext is not None and not ctrl[idx]:
                # Plan-compiled watch check: a taken exit branch, then
                # the next pc's entry record, then its trigger — the
                # order ``on_retire`` checks.
                fired = False
                if taken:
                    record_id = zexit[idx]
                    if record_id is not None:
                        fired = fire_exit(record_id, next_pc, True)
                        if fired and jit_rec is not None:
                            jit_rec = abandon_recording(jit_rec)
                if not fired:
                    noffset = next_pc - base
                    if 0 <= noffset < limit and not noffset & 3:
                        watch = znext[noffset >> 2]
                    elif zfar:
                        watch = zfar.get(next_pc)
                    else:
                        watch = None
                    if watch is not None:
                        entry_id, trigger_loop = watch
                        if entry_id is not None:
                            fired = fire_entry(entry_id, pc, next_pc)
                            if fired and jit_rec is not None:
                                jit_rec = abandon_recording(jit_rec)
                        if not fired and trigger_loop is not None:
                            fired = True
                            target = decisions[trigger_loop](g)
                            if jit is not None and (jit_rec is not None
                                                    or jit.cands):
                                jit_rec = note_fire(
                                    sim, predecoded, jit, jit_rec,
                                    trigger_loop, target)
                            task_switches += 1
                            index_writes += 1
                            pending = None
                            cycles += zolc_switch_extra
                            if target is not None:
                                next_pc = target
                            else:
                                # Only a non-redirecting (expiry)
                                # decision can disarm: re-query the
                                # plan exactly there.
                                plan = plan_fn()
                                if plan is None or plan.epoch != zepoch:
                                    (znext, zexit, zfar, fire_exit,
                                     fire_entry, decisions, zepoch,
                                     zactive, regions, heat, traces,
                                     jit) = resync(plan)
                                    jit_rec = None
                if fired:
                    halted = state.halted
            elif zactive or ctrl[idx]:
                # Oracle path: an arm/reset slot, or an active port
                # with arm-time writes pending and no plan yet.  Offer
                # the retirement to ``on_retire`` unless the port is
                # unarmed and inactive (e.g. after a reset), then
                # re-query the plan.  The dispatch state is re-derived
                # when the epoch moved or, with no plan, when there was
                # one or the port is or was active.
                if zolc.active:
                    action = zolc.on_retire(pc, next_pc, taken=taken)
                    if action is not None:
                        writes = action.index_writes
                        if writes:
                            for reg, value in writes:
                                regs_write(reg, value)
                            index_writes += len(writes)
                        if action.next_pc is not None:
                            next_pc = action.next_pc
                            # Any PC redirect crosses a fetch boundary:
                            # the load-use pairing cannot survive it.
                            pending = None
                        if action.is_task_switch:
                            task_switches += 1
                            pending = None
                            cycles += zolc_switch_extra
                    halted = state.halted
                plan = plan_fn()
                if (plan.epoch != zepoch if plan is not None
                        else zepoch is not None or zactive or zolc.active):
                    (znext, zexit, zfar, fire_exit, fire_entry,
                     decisions, zepoch, zactive, regions, heat,
                     traces, jit) = resync(plan)
                    jit_rec = None
            pc = next_pc
    finally:
        state.pc = pc
        timing._pending_load_dest = pending
        timing.stall_cycles = stall
        timing.flush_cycles = flush
        stats.cycles = cycles
        stats.taken_branches = taken_branches
        stats.instructions += steps
        stats.stall_cycles = stall
        stats.flush_cycles = flush
        if zolc is not None:
            index_writes += zolc.extra_index_writes - extra_writes0
        stats.zolc_index_writes += index_writes
        stats.zolc_task_switches += task_switches
        # Residency tallies live on the Simulator, NOT in Stats: the
        # fuzz harness pins Stats bit-identity across engines, and
        # only this run loop can be resident.  Every trace is
        # loop-resident, so both tallies count the same steps.
        sim.trace_resident_steps += trace_steps
        sim.chain_resident_steps += trace_steps
        for rid, count in rcounts.items():
            for idx, _cycles, _stall, _dest in rmembers_by_id[rid]:
                retired[idx] += count
        by_category = stats.by_category
        for idx, count in enumerate(retired):
            if count:
                meta = metas[idx]
                key = meta.category_key
                by_category[key] = by_category.get(key, 0) + count
                if meta.is_zolc_init:
                    stats.zolc_init_instructions += count
