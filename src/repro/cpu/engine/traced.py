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

Region tables are sliced per controller plan state (keyed by the plan's
watch-set content key, ``None`` while unarmed) and re-resolved at exactly
the points the run loop re-queries the plan: after an expiring trigger
fire and after every retired ``mtz`` to ``CTRL_ARM`` or ``CTRL_RESET``
(:attr:`~repro.cpu.ir.IROp.zolc_ctrl`), the only port accesses that
can change the armed state or the watch sets.  Table writes and
``mfz`` retire inside regions, and a ``reset … writes … arm``
preheader runs as one region that re-queries the plan once, after
the arm (DESIGN.md §8).  A re-arm epoch change therefore invalidates
and re-slices the regions before the next batched dispatch.

A hot ZOLC loop leaves the region tier altogether: at its entry slot the
loop turns *resident*, and its trace (:mod:`repro.cpu.engine.trace`)
runs whole ``body → fire → re-enter`` iterations inside generated code —
a straight-line body as a zero-guard trace, a branchy one with guards.

A fault inside a fused region (memory access error, ZOLC fault) is
reconciled from the traceback's line number back to the faulting member,
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
    member_lines,
    record_codegen,
    region_namespace,
    term_lines,
)
from repro.cpu.engine.fast import _apply_action, _plan_dispatch_state
from repro.cpu.engine.trace import (
    HOT_THRESHOLD,
    abandon_recording,
    note_fire,
    note_side_exit,
    reconcile_trace_fault,
    record_step,
    trace_table,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.simulator import Simulator

#: compile() filename marker for fused megahandlers; fault reconciliation
#: recognises generated frames by it.
_REGION_FILENAME = "<trace-region>"

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
    term_is_ctrl: bool                 # terminator arms/resets the port
    rid: int                           # per-process region identity
    start_idx: int
    #: per-member (slot index, base cycles, static stall, load dest) —
    #: used for fault reconciliation and retired-count expansion.
    members: tuple
    #: generated-source line number (0-based) -> member ordinal.
    line_member: tuple


def _region_code(program, start: int, term: int):
    """Compile (or fetch) the megahandler code for slots ``start..term``.

    Returns ``(code, fallback_ordinals, line_member)``.  The compiled
    code is cached *on the program object*: the generated source is
    lowered from the program's IR and depends only on it and the region
    span — the register list, memory methods and fallback closures
    arrive per simulator through the exec namespace — so every
    simulator of one :class:`~repro.asm.assembler.Program` (repeated
    benchmark runs, the suite runner re-simulating a prepared kernel)
    shares one compile.
    """
    per_program = program.__dict__.get("_trace_region_code")
    if per_program is None:
        per_program = program.__dict__["_trace_region_code"] = {}
    entry = per_program.get((start, term))
    if entry is not None:
        return entry
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
    src = f"def _mega({params}):\n" + "\n".join(lines)
    code = compile(src, _REGION_FILENAME, "exec")
    entry = (code, tuple(fallbacks), tuple(line_member))
    per_program[(start, term)] = entry
    record_codegen(program, CodegenRecord(
        kind="region", start=start, term=term, source=src,
        line_member=entry[2], fallbacks=entry[1]))
    return entry


def _build_region(sim: "Simulator", predecoded: PredecodedProgram,
                  start: int, term: int, load_use: int) -> TraceRegion:
    """Fuse slots ``start..term`` into one compiled megahandler."""
    ops = predecoded.ops
    metas = predecoded.metas
    base = sim.program.text_base
    code, fallbacks, line_member = _region_code(sim.program, start, term)
    ns = region_namespace(sim)
    for ordinal in fallbacks:
        ns[f"_h{ordinal}"] = ops[start + ordinal][0]
    exec(code, ns)
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
        mega=ns["_mega"], size=term - start + 1,
        cycles=cycles, stall=stall, first_uses=ops[start][2],
        out_pending=ops[term][3], term_pc=base + 4 * term, term_idx=term,
        term_taken_penalty=ops[term][4],
        term_is_ctrl=metas[term].zolc_ctrl is not None,
        rid=next(_REGION_IDS), start_idx=start,
        members=tuple(members), line_member=line_member)


def _slice_regions(predecoded: PredecodedProgram, base: int, plan) -> list:
    """Partition the dispatch array into straight-line region starts.

    One delegation to the shared :func:`straightline_terms` scan:
    ``None`` for slots that cannot begin a region of at least two
    instructions, else the terminator slot index (an ``int``) — a
    region start not yet fused, which :func:`_hot_region` replaces by
    its :class:`TraceRegion` once the region is hot.
    """
    watched_next: frozenset[int] | set[int] = frozenset()
    if plan is not None:
        watched_next = plan.watched_next_pcs()
    return straightline_terms(predecoded.metas, base, watched_next)


def _trace_regions(sim: "Simulator", predecoded: PredecodedProgram,
                   plan) -> tuple[list, list[int]]:
    """Resolve (or slice) the region table for one plan state.

    Returns ``(regions, heat)``: the region table and, beside it, one
    entry counter per slot for :func:`_hot_region`.  Both are cached on
    the simulator by the plan's watch-set content key (``None`` while
    unarmed), so re-arming the same tables re-uses the slicing, every
    fused megahandler *and* the heat gathered so far.  The cache is
    cleared whenever the program is re-predecoded (ZOLC port swap).
    """
    key = None if plan is None else plan.key
    table = sim._trace_region_cache.get(key)
    if table is None:
        regions = _slice_regions(predecoded, sim.program.text_base, plan)
        table = sim._trace_region_cache[key] = (regions, [0] * len(regions))
    return table


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
    if count < HOT_THRESHOLD:
        compiled = sim.program.__dict__.get("_trace_region_code")
        if compiled is None or (idx, term) not in compiled:
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
    faulting = 0
    line_member = region.line_member
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == _REGION_FILENAME:
            line = tb.tb_lineno - 1
            if 0 <= line < len(line_member) \
                    and line_member[line] is not None:
                faulting = line_member[line]
        tb = tb.tb_next
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


def _traced_dispatch_state(plan, sim: "Simulator",
                           predecoded: PredecodedProgram, n: int,
                           base: int, zolc, no_regions: list,
                           resident: bool):
    """`_plan_dispatch_state` plus the matching region + trace tables.

    While the port is active without a plan (arm-time writes pending),
    every retirement must reach ``on_retire``, so batching pauses: the
    all-``None`` ``no_regions`` table is served until the plan appears.
    The same all-``None`` table stands in for the trace table whenever
    there is no compiled plan (traces only exist against one — their
    leaves fire the plan's trigger handler directly) or ``resident`` is
    off; ``jit`` is the :class:`~repro.cpu.engine.trace.TraceTable` or
    ``None``.  ``heat`` is the region table's entry counters (``None``
    beside the all-``None`` table, which has no region start to count).
    """
    (znext, zexit, zfar, fire_exit, fire_entry, fire_trigger, zepoch,
     zactive) = _plan_dispatch_state(plan, sim, n, base, zolc)
    if znext is None and zactive:
        regions = no_regions
        heat = None
        traces: list = no_regions
        jit = None
    else:
        regions, heat = _trace_regions(sim, predecoded, plan)
        if plan is None or not resident:
            traces = no_regions
            jit = None
        else:
            jit = trace_table(sim, predecoded, plan)
            traces = jit.slots
    return (znext, zexit, zfar, fire_exit, fire_entry, fire_trigger,
            zepoch, zactive, regions, heat, traces, jit)


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

    try:
      if plan_fn is None:
        # -- no ZOLC port: pure region dispatch -------------------------
        regions, heat = _trace_regions(sim, predecoded, None)
        while not halted:
            if steps >= max_steps:
                raise WatchdogError(
                    f"no halt after {max_steps} instructions (pc={pc:#x})")
            offset = pc - base
            if offset < 0 or offset >= limit or offset & 3:
                raise InvalidFetchError(pc)
            idx = offset >> 2
            region = regions[idx]
            if region is not None and region.__class__ is int:
                region = _hot_region(sim, predecoded, regions, heat, idx,
                                     region, load_use)
            if region is not None:
                (mega, size, rcycles, rstall, first_uses, out_pending,
                 term_pc, _term_idx, term_penalty, _term_ctrl, rid,
                 _start, rmembers, _lines) = region
                if steps + size <= max_steps:
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
                    if res is None:
                        pc = term_pc + 4
                    elif res is HALT:
                        halted = True
                        pc = term_pc
                    else:
                        pc = res
                        taken_branches += 1
                        cycles += term_penalty
                        flush += term_penalty
                    continue
            # -- single-slot path (jump into a region, tiny or cold
            #    region, watchdog boundary) ----------------------------
            fn, base_cycles, uses, load_dest, taken_penalty = ops[idx]
            res = fn(pc)
            steps += 1
            retired[idx] += 1
            cycles += base_cycles
            if pending is not None and pending in uses:
                cycles += load_use
                stall += load_use
            pending = load_dest
            if res is None:
                pc = pc + 4
            elif res is HALT:
                halted = True
            else:
                pc = res
                taken_branches += 1
                cycles += taken_penalty
                flush += taken_penalty
      else:
        # -- plan-compiled ZOLC port ------------------------------------
        regs_write = state.regs.write
        ctrl = [meta.zolc_ctrl is not None for meta in metas]
        irops = predecoded.ir
        no_regions: list = [None] * n

        def resync(plan):
            return _traced_dispatch_state(plan, sim, predecoded, n, base,
                                          zolc, no_regions, resident)

        (znext, zexit, zfar, fire_exit, fire_entry, fire_trigger,
         zepoch, zactive, regions, heat, traces, jit) = resync(plan_fn())
        while not halted:
            if steps >= max_steps:
                raise WatchdogError(
                    f"no halt after {max_steps} instructions (pc={pc:#x})")
            offset = pc - base
            if offset < 0 or offset >= limit or offset & 3:
                raise InvalidFetchError(pc)
            idx = offset >> 2
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
                    resident_run = trace.run(fire_trigger,
                                             max_steps - steps, cell)
                except BaseException as exc:
                    fault = exc
                    resident_run = cell
                (ccounts, csteps, ccycles, cstall, cflush, ctaken,
                 cfires, ciw, last_rec, done) = resident_run
                for ck, cc in ccounts.items():
                    crid = trace.outcomes[ck].rid
                    ccount = rcounts.get(crid)
                    if ccount is None:
                        rcounts[crid] = cc
                        rmembers_by_id[crid] = trace.outcomes[ck].members
                    else:
                        rcounts[crid] = ccount + cc
                steps += csteps
                cycles += ccycles + cfires * zolc_switch_extra
                stall += cstall
                flush += cflush
                taken_branches += ctaken
                task_switches += cfires
                index_writes += ciw
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
                if done is None:
                    if last_rec is not None and last_rec.is_exit:
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
                pending = None
                if done.next_pc is None:
                    # Expiry: the only decision that can disarm.
                    plan = plan_fn()
                    if plan is None or plan.epoch != zepoch:
                        (znext, zexit, zfar, fire_exit, fire_entry,
                         fire_trigger, zepoch, zactive, regions, heat,
                         traces, jit) = resync(plan)
                        jit_rec = None
                    pc = trace.trigger_pc
                else:
                    # Cascade redirect (or halted mid loop-back): the
                    # plan is still valid.
                    pc = done.next_pc
                continue
            region = regions[idx]
            if region is not None and region.__class__ is int:
                region = _hot_region(sim, predecoded, regions, heat, idx,
                                     region, load_use)
            if region is not None:
                (mega, size, rcycles, rstall, first_uses, out_pending,
                 term_pc, term_idx, term_penalty, term_ctrl, rid,
                 _start, rmembers, _lines) = region
                if steps + size <= max_steps:
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
                    # The region retired through its terminator: keep the
                    # architectural pc there, so a fault raised by a fire
                    # handler below post-mortems at the retiring
                    # instruction, exactly like the per-instruction
                    # engines.
                    pc = term_pc
                    if res is None:
                        next_pc = term_pc + 4
                        taken = False
                    elif res is HALT:
                        halted = True
                        next_pc = term_pc
                        taken = False
                    else:
                        next_pc = res
                        taken = True
                        taken_branches += 1
                        cycles += term_penalty
                        flush += term_penalty
                    if jit_rec is not None:
                        # Region interiors are straight-line, so the
                        # terminator is the only slot whose outcome a
                        # path recording needs.
                        jit_rec = record_step(jit_rec, irops[term_idx],
                                              taken)
                    # Terminator watch dispatch: the same contract as the
                    # single-slot path below, with pc := term_pc.  The
                    # region's interior slots are unwatched by
                    # construction, so only the terminator can fire.
                    if halted:
                        pass
                    elif znext is not None:
                        if not term_ctrl:
                            fired = False
                            if taken:
                                record_id = zexit[term_idx]
                                if record_id is not None:
                                    fired = fire_exit(record_id, next_pc,
                                                      True)
                                    if fired and jit_rec is not None:
                                        jit_rec = abandon_recording(
                                            jit_rec)
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
                                        fired = fire_entry(entry_id,
                                                           term_pc, next_pc)
                                        if fired and jit_rec is not None:
                                            jit_rec = abandon_recording(
                                                jit_rec)
                                    if not fired and trigger_loop is not None:
                                        fired = True
                                        decision = fire_trigger(trigger_loop)
                                        if jit is not None and (
                                                jit_rec is not None
                                                or jit.cands):
                                            jit_rec = note_fire(
                                                sim, predecoded, jit,
                                                jit_rec, trigger_loop,
                                                decision)
                                        writes = decision.index_writes
                                        if writes:
                                            for reg, value in writes:
                                                regs_write(reg, value)
                                            index_writes += len(writes)
                                        task_switches += 1
                                        pending = None
                                        cycles += zolc_switch_extra
                                        if decision.next_pc is not None:
                                            next_pc = decision.next_pc
                                        else:
                                            # Only a non-redirecting
                                            # (expiry) decision can
                                            # disarm: re-query there.
                                            plan = plan_fn()
                                            if plan is None \
                                                    or plan.epoch != zepoch:
                                                (znext, zexit, zfar,
                                                 fire_exit, fire_entry,
                                                 fire_trigger, zepoch,
                                                 zactive, regions, heat,
                                                 traces, jit) = resync(plan)
                                                jit_rec = None
                            if fired:
                                halted = state.halted
                        else:
                            # Arm/reset terminator: full oracle path,
                            # then re-sync plan + regions.  Any reset
                            # inside the region left the port unarmed
                            # and inactive until this arm, so the
                            # members after it fired nothing.
                            if zolc.active:
                                action = zolc.on_retire(term_pc, next_pc,
                                                        taken=taken)
                                if action is not None:
                                    (next_pc, pending, index_writes,
                                     task_switches, cycles) = _apply_action(
                                        action, regs_write, next_pc,
                                        pending, index_writes,
                                        task_switches, cycles,
                                        zolc_switch_extra)
                                halted = state.halted
                            plan = plan_fn()
                            if plan is None or plan.epoch != zepoch:
                                (znext, zexit, zfar, fire_exit, fire_entry,
                                 fire_trigger, zepoch, zactive, regions, heat,
                                 traces, jit) = resync(plan)
                                jit_rec = None
                    elif term_ctrl:
                        # No plan, port inactive until this very arm
                        # may have armed it: offer the retirement, then
                        # re-sync (skipped while the port stays unarmed
                        # and inactive — nothing observable moved).
                        if not halted and zolc.active:
                            action = zolc.on_retire(term_pc, next_pc,
                                                    taken=taken)
                            if action is not None:
                                (next_pc, pending, index_writes,
                                 task_switches, cycles) = _apply_action(
                                    action, regs_write, next_pc, pending,
                                    index_writes, task_switches, cycles,
                                    zolc_switch_extra)
                            halted = state.halted
                        plan = plan_fn()
                        if plan is not None or zactive or zolc.active:
                            (znext, zexit, zfar, fire_exit, fire_entry,
                             fire_trigger, zepoch, zactive, regions, heat,
                             traces, jit) = resync(plan)
                            jit_rec = None
                    pc = next_pc
                    continue
            # -- single-slot path (cold region, jump into a region,
            #    watchdog boundary) ------------------------------------
            fn, base_cycles, uses, load_dest, taken_penalty = ops[idx]
            res = fn(pc)
            steps += 1
            retired[idx] += 1
            cycles += base_cycles
            if pending is not None and pending in uses:
                cycles += load_use
                stall += load_use
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
                cycles += taken_penalty
                flush += taken_penalty
            pending = load_dest
            if jit_rec is not None:
                jit_rec = record_step(jit_rec, irops[idx], taken)
            if znext is not None:
                if halted:
                    pass
                elif not ctrl[idx]:
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
                                decision = fire_trigger(trigger_loop)
                                if jit is not None and (
                                        jit_rec is not None
                                        or jit.cands):
                                    jit_rec = note_fire(
                                        sim, predecoded, jit, jit_rec,
                                        trigger_loop, decision)
                                writes = decision.index_writes
                                if writes:
                                    for reg, value in writes:
                                        regs_write(reg, value)
                                    index_writes += len(writes)
                                task_switches += 1
                                pending = None
                                cycles += zolc_switch_extra
                                if decision.next_pc is not None:
                                    next_pc = decision.next_pc
                                else:
                                    # Only a non-redirecting (expiry)
                                    # decision can disarm: re-query
                                    # the plan exactly there.
                                    plan = plan_fn()
                                    if plan is None \
                                            or plan.epoch != zepoch:
                                        (znext, zexit, zfar, fire_exit,
                                         fire_entry, fire_trigger,
                                         zepoch, zactive, regions, heat,
                                         traces, jit) = resync(plan)
                                        jit_rec = None
                    if fired:
                        halted = state.halted
                else:
                    if zolc.active:
                        action = zolc.on_retire(pc, next_pc, taken=taken)
                        if action is not None:
                            (next_pc, pending, index_writes,
                             task_switches, cycles) = _apply_action(
                                action, regs_write, next_pc, pending,
                                index_writes, task_switches, cycles,
                                zolc_switch_extra)
                        halted = state.halted
                    plan = plan_fn()
                    if plan is None or plan.epoch != zepoch:
                        (znext, zexit, zfar, fire_exit, fire_entry,
                         fire_trigger, zepoch, zactive, regions, heat,
                         traces, jit) = resync(plan)
                        jit_rec = None
            elif zactive or ctrl[idx]:
                if not halted and zolc.active:
                    action = zolc.on_retire(pc, next_pc, taken=taken)
                    if action is not None:
                        (next_pc, pending, index_writes,
                         task_switches, cycles) = _apply_action(
                            action, regs_write, next_pc, pending,
                            index_writes, task_switches, cycles,
                            zolc_switch_extra)
                    halted = state.halted
                # No compiled plan: either the port is inactive (only a
                # retired arm can change that) or it is active with
                # arm-time writes pending (every retirement must reach
                # on_retire until the plan appears).  An unarmed,
                # inactive port retiring a reset cannot have moved the
                # dispatch state, so it is not re-derived.
                plan = plan_fn()
                if plan is not None or zactive or zolc.active:
                    (znext, zexit, zfar, fire_exit, fire_entry,
                     fire_trigger, zepoch, zactive, regions, heat,
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
