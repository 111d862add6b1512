"""Trace-batched tier (``engine="traced"``) and loop-resident chains.

The fast tier still pays one full dispatch iteration per retired
instruction: a bounds check, a tuple unpack, a handler call, a pending
load-use probe and the taken/not-taken triage.  For straight-line code all
of that triage is static, so the traced tier partitions the ``pc >> 2``
handler array into maximal *straight-line regions* — the shared
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

Region tables are sliced per controller plan state (keyed by the plan's
watch-set content key, ``None`` while unarmed) and re-resolved at exactly
the points the fast engine re-queries the plan: after every trigger fire
and after every retired ``mtz``/``mfz``.  A re-arm epoch change therefore
invalidates and re-slices the regions before the next batched dispatch.

A fault inside a fused region (memory access error, ZOLC fault) is
reconciled from the traceback's line number back to the faulting member,
so the partial retirement is accounted exactly as the per-instruction
engines would have: members before the fault retire (steps, cycles,
stalls, counts), the faulting member does not, and ``state.pc`` lands on
the faulting instruction.  See DESIGN.md §8–§9.
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
from repro.cpu.engine.fast import (
    _apply_action,
    _plan_dispatch_state,
    run_fast,
)
from repro.cpu.engine.trace import (
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
    term_is_zolc: bool                 # terminator is mtz/mfz
    rid: int                           # per-process region identity
    start_idx: int
    #: per-member (slot index, base cycles, static stall, load dest) —
    #: used for fault reconciliation and retired-count expansion.
    members: tuple
    #: generated-source line number (0-based) -> member ordinal.
    line_member: tuple
    #: Whether the region may anchor a loop-resident chain: the
    #: terminator is a plain sequential instruction (terminated only by
    #: a watched next pc / end of text), so every execution falls
    #: through into the same watched address and a trigger loop-back
    #: re-enters this very region.
    chain_ok: bool


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
    term_meta = metas[term]
    return TraceRegion(
        mega=ns["_mega"], size=term - start + 1,
        cycles=cycles, stall=stall, first_uses=ops[start][2],
        out_pending=ops[term][3], term_pc=base + 4 * term, term_idx=term,
        term_taken_penalty=ops[term][4],
        term_is_zolc=term_meta.is_zolc_init,
        rid=next(_REGION_IDS), start_idx=start,
        members=tuple(members), line_member=line_member,
        chain_ok=not (term_meta.can_transfer or term_meta.is_zolc_init))


def _slice_regions(predecoded: PredecodedProgram, base: int, plan) -> list:
    """Partition the dispatch array into straight-line region starts.

    One delegation to the shared :func:`straightline_terms` scan:
    ``None`` for slots that cannot begin a region of at least two
    instructions, else the terminator slot index (an ``int``) —
    megahandlers are fused lazily on first arrival, so cold slots never
    pay codegen.
    """
    watched_next: frozenset[int] | set[int] = frozenset()
    if plan is not None:
        watched_next = plan.watched_next_pcs()
    return straightline_terms(predecoded.metas, base, watched_next)


def _trace_regions(sim: "Simulator", predecoded: PredecodedProgram,
                   plan) -> list:
    """Resolve (or slice) the region table for one plan state.

    Cached on the simulator by the plan's watch-set content key
    (``None`` while unarmed), so re-arming the same tables re-uses both
    the slicing *and* every lazily fused megahandler.  The cache is
    cleared whenever the program is re-predecoded (ZOLC port swap).
    """
    key = None if plan is None else plan.key
    regions = sim._trace_region_cache.get(key)
    if regions is None:
        regions = _slice_regions(predecoded, sim.program.text_base, plan)
        sim._trace_region_cache[key] = regions
    return regions


def _fault_member(exc: BaseException, filename: str,
                  line_member: tuple) -> int:
    """Map a fault raised in generated code back to its member ordinal.

    Walks the traceback to the generated frame (recognised by
    ``filename``) and translates its line number through the code's
    line → member table; lines outside the table (chain bookkeeping,
    the def line) resolve to member 0.
    """
    faulting = 0
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == filename:
            line = tb.tb_lineno - 1
            if 0 <= line < len(line_member) \
                    and line_member[line] is not None:
                faulting = line_member[line]
        tb = tb.tb_next
    return faulting


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
    faulting = _fault_member(exc, _REGION_FILENAME, region.line_member)
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


# ---------------------------------------------------------------------------
# Loop-resident chains: batching the trigger-fire → region-re-entry cycle
# ---------------------------------------------------------------------------
#
# The canonical ZOLC steady state is a loop whose entire body is one fused
# region: the region falls through into a watched trigger address, the
# trigger's fire handler decides "loop back", and the redirect target is the
# region's own entry.  The traced loop used to pay one full engine-loop
# round trip per iteration for that cycle (region fetch + 15-field unpack,
# watchdog compare, watch lookup, plan re-query).  A *chain* fuses the
# cycle into generated code: one Python call runs ``body → fire → re-enter``
# until the decision stops looping back (expiry / cascade redirect /
# halt) or the iteration budget — derived from the watchdog — runs out.
#
# Chaining is legal exactly while the compiled plan cannot change under
# the loop: the region interior retires no ``mtz``/``mfz`` (regions never
# contain them), and a loop-back fire never invalidates the plan (only an
# *expiry* can disarm a single-shot controller, and an expiry decision by
# definition does not redirect to the entry, so it terminates the chain).
# The chain re-checks ``state.halted`` after every fire, and the engine
# re-queries the plan when the chain returns a terminating decision —
# the same points the unchained loop re-queries.  See DESIGN.md §9.

#: compile() filename marker for generated chain drivers.
_CHAIN_FILENAME = "<trace-chain>"


def _chain_code(program, start: int, term: int, loop_id: int):
    """Compile (or fetch) the chain-driver code for a region + trigger.

    Like :func:`_region_code`, the generated source is lowered from the
    program's IR and depends only on it, the region span, the trigger's
    loop id and the (program-constant) entry address, so the code
    object is cached on the Program.  Returns ``(code,
    fallback_ordinals, line_member)``.
    """
    per_program = program.__dict__.get("_trace_chain_code")
    if per_program is None:
        per_program = program.__dict__["_trace_chain_code"] = {}
    entry = per_program.get((start, term, loop_id))
    if entry is not None:
        return entry
    # Imported here, not at module level: repro.core.__init__ pulls in
    # the controller, which reaches back into cpu.engine.
    from repro.core.tables import FLAG_VALID

    base = program.text_base
    ir = build_ir(program)
    entry_pc = base + 4 * start
    # Progress is tracked through zero-cost try/except (CPython 3.11+):
    # the happy path stores nothing per iteration, and the except
    # blocks publish (bodies, fires, index writes) into the ``_c`` cell
    # only when a fault actually unwinds.
    #
    # The prelude hoists the trigger loop's record/status so the common
    # loop-back fire inlines to a handful of int ops (the exact
    # loop-back arm of ``TaskSelectionUnit.decide``).  Legal because no
    # ``mtz``/``mfz`` can retire inside the chain, so the record is
    # frozen for the duration of the call; any surprise (planless port,
    # foreign fire handler, monkeypatched decision path — a patched
    # plain function has no ``__func__``) falls back to the real
    # ``_fire``.
    prologue = ["    _fast = False",
                "    try:",
                "        _ctl = _fire.__self__",
                f"        _rec = _ctl.tables.loops[{loop_id}]",
                f"        _stat = _ctl.unit.status[{loop_id}]",
                "        _trips = _rec.trips",
                "        _init = _rec.initial",
                "        _stride = _rec.step",
                "        _ir = _rec.index_reg",
                f"        _fast = (bool(_rec.flags & {FLAG_VALID}) "
                f"and _rec.body_pc == {entry_pc} "
                "and _fire.__func__ is _FT "
                "and _ctl._decide.__func__ is _DEC)",
                "        if _fast:",
                f"            for _dc in _ctl.unit.descendants({loop_id}):",
                f"                if _ctl.tables.loops[_dc].flags "
                f"& {FLAG_VALID}:",
                "                    _fast = False",
                "                    break",
                "    except Exception:",
                "        _fast = False",
                "    _n = 0",
                "    _iw = 0",
                "    while True:",
                "        try:"]
    lines: list[str] = list(prologue)
    # def line is 1; prologue statements fill the next lines.
    line_member: list[int | None] = [None] * (len(prologue) + 1)
    fallbacks: list[int] = []
    for ordinal, i in enumerate(range(start, term + 1)):
        for statement in member_lines(ir[i], ordinal, fallbacks):
            lines.append("            " + statement)
            line_member.append(ordinal)
    epilogue = [
        "        except BaseException:",
        "            _c[0] = _n",
        "            _c[1] = _n",
        "            _c[2] = _iw",
        "            raise",
        "        if _fast:",
        "            try:",
        "                _done = _stat.iterations_done + 1",
        "                if _done < _trips:",
        "                    _stat.iterations_done = _done",
        "                    _ctl.task_switches += 1",
        "                    if _ir:",
        "                        _g[_ir] = (_init + _done * _stride)"
        " & 4294967295",
        "                    _n = _n + 1",
        "                    _iw = _iw + 1",
        "                    if _state.halted or _n >= _budget:",
        "                        return _n, _iw, None",
        "                    continue",
        "            except BaseException:",
        "                _c[0] = _n + 1",
        "                _c[1] = _n",
        "                _c[2] = _iw",
        "                raise",
        "        try:",
        f"            _d = _fire({loop_id})",
        "        except BaseException:",
        "            _c[0] = _n + 1",
        "            _c[1] = _n",
        "            _c[2] = _iw",
        "            raise",
        "        _n = _n + 1",
        "        _w = _d.index_writes",
        "        if len(_w) == 1:",
        "            _r, _v = _w[0]",
        "            if _r:",
        "                _g[_r] = _v & 4294967295",
        "        else:",
        "            for _r, _v in _w:",
        "                if _r:",
        "                    _g[_r] = _v & 4294967295",
        "        _iw = _iw + len(_w)",
        f"        if _d.next_pc != {entry_pc} or _state.halted:",
        "            return _n, _iw, _d",
        "        if _n >= _budget:",
        "            return _n, _iw, None",
    ]
    lines += epilogue
    line_member += [None] * len(epilogue)
    params = ", ".join(
        f"{name}={name}"
        for name in REGION_HELPERS + tuple(f"_h{k}" for k in fallbacks)
        + ("_FT", "_DEC"))
    src = f"def _chain(_budget, _c, _fire, {params}):\n" + "\n".join(lines)
    code = compile(src, _CHAIN_FILENAME, "exec")
    entry = (code, tuple(fallbacks), tuple(line_member))
    per_program[(start, term, loop_id)] = entry
    record_codegen(program, CodegenRecord(
        kind="chain", start=start, term=term, source=src,
        line_member=entry[2], fallbacks=entry[1], loop_id=loop_id))
    return entry


#: Cache sentinel: this (region, loop) pair was probed and is not
#: chainable (the fire target is not the region entry).
_NO_CHAIN = object()


def _resolve_chain(sim: "Simulator", predecoded: PredecodedProgram,
                   region: TraceRegion, loop_id: int, plan_fn):
    """The chain driver for (region, trigger loop), or ``None``.

    Built lazily on the first loop-back that re-enters ``region`` and
    cached on the simulator by ``(rid, loop_id)`` — region ids are
    unique per build and region tables are keyed by plan watch-set
    content (which includes the trigger loop ids), so a cached chain
    can never be served against a mismatched plan; the cache is
    cleared with the region cache on re-predecode.  The plan's
    ``fire_target`` pre-flight keeps chaining to the canonical
    direct loop-back (a cascade whose redirect merely coincides with
    the entry address stays on the unchained path), and the fire
    handler itself is passed per call, so a re-arm's fresh plan is
    honoured without rebuilding.  Returns ``(chain_fn, cell,
    line_member)``; ``cell`` is the progress cell fault reconciliation
    reads.
    """
    key = (region.rid, loop_id)
    cached = sim._trace_chain_cache.get(key)
    if cached is not None:
        return None if cached is _NO_CHAIN else cached
    entry_pc = sim.program.text_base + 4 * region.start_idx
    plan = plan_fn()
    fire_target = plan.fire_target if plan is not None else None
    if fire_target is None or fire_target(loop_id) != entry_pc:
        sim._trace_chain_cache[key] = _NO_CHAIN
        return None
    code, fallbacks, line_member = _chain_code(
        sim.program, region.start_idx, region.term_idx, loop_id)
    from repro.core.controller import ZolcController
    from repro.core.task_select import TaskSelectionUnit
    ns = region_namespace(sim)
    ns["_FT"] = ZolcController.fire_trigger
    ns["_DEC"] = TaskSelectionUnit.decide
    for ordinal in fallbacks:
        ns[f"_h{ordinal}"] = predecoded.ops[region.start_idx
                                            + ordinal][0]
    exec(code, ns)
    chain = (ns["_chain"], [0, 0, 0], line_member)
    sim._trace_chain_cache[key] = chain
    return chain


def _traced_dispatch_state(plan, sim: "Simulator",
                           predecoded: PredecodedProgram, n: int,
                           base: int, zolc, no_regions: list):
    """`_plan_dispatch_state` plus the matching region + trace tables.

    While the port is active without a plan (arm-time writes pending),
    every retirement must reach ``on_retire``, so batching pauses: the
    all-``None`` ``no_regions`` table is served until the plan appears.
    The same all-``None`` table stands in for the trace table whenever
    there is no compiled plan (traces only exist against one — their
    chain leaves fire the plan's trigger handler directly); ``jit`` is
    the :class:`~repro.cpu.engine.trace.TraceTable` or ``None``.
    """
    (znext, zexit, zfar, fire_exit, fire_entry, fire_trigger, zepoch,
     zactive) = _plan_dispatch_state(plan, sim, n, base, zolc)
    if znext is None and zactive:
        regions = no_regions
        traces: list = no_regions
        jit = None
    else:
        regions = _trace_regions(sim, predecoded, plan)
        if plan is None or not sim._trace_jit_enabled:
            traces = no_regions
            jit = None
        else:
            jit = trace_table(sim, predecoded, plan)
            traces = jit.slots
    return (znext, zexit, zfar, fire_exit, fire_entry, fire_trigger,
            zepoch, zactive, regions, traces, jit)


def run_traced(sim: "Simulator", max_steps: int,
               predecoded: PredecodedProgram, chain: bool = True,
               jit: bool = True) -> None:
    """Trace-batched run loop: fused regions over the predecoded array.

    Retires *identical* (pc, regs, memory, cycles, stats, controller
    counters) sequences to :func:`run_fast` and the stepped oracle —
    the invariant pinned by ``tests/test_engine_fuzz.py``.  Batching is
    skipped wherever it could be observed: a region only executes when
    its full length fits under the watchdog budget (so ``max_steps``
    semantics are exact), ports without a compiled plan fall back to
    :func:`run_fast` (their ``on_retire`` must see every retirement),
    and the transient armed-without-plan window runs per-instruction.

    ``chain`` enables the loop-resident tier: trigger fires whose
    loop-back redirect re-enters the region that just retired run as a
    generated ``body → fire → re-enter`` chain, executing whole
    iteration batches per engine-loop entry (watchdog budget, cycle /
    stall / retired / controller bookkeeping and fault reconciliation
    all preserved per iteration).  The flag exists so the throughput
    benchmark can measure the unchained region tier; ``Simulator.run``
    always chains.

    ``jit`` enables the guard-based trace JIT over branchy loop bodies
    (:mod:`~repro.cpu.engine.trace`).  ``jit=False`` reproduces the
    pre-trace loop-resident tier exactly — the benchmark's reference
    column for the trace speedup gate; ``Simulator.run`` always JITs.
    """
    sim._trace_jit_enabled = jit
    zolc = sim.zolc
    plan_fn = getattr(zolc, "zolc_plan", None) if zolc is not None else None
    if zolc is not None and plan_fn is None:
        # A planless port's on_retire must be offered every retirement:
        # nothing to batch.  The fast engine implements that contract.
        run_fast(sim, max_steps, predecoded)
        return

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
    # Trace-JIT state: the in-flight recording (if any) and the
    # residency tallies published to the simulator at sync time.
    jit_rec = None
    trace_steps = 0
    chain_steps = 0

    try:
      if plan_fn is None:
        # -- no ZOLC port: pure region dispatch -------------------------
        regions = _trace_regions(sim, predecoded, None)
        while not halted:
            if steps >= max_steps:
                raise WatchdogError(
                    f"no halt after {max_steps} instructions (pc={pc:#x})")
            offset = pc - base
            if offset < 0 or offset >= limit or offset & 3:
                raise InvalidFetchError(pc)
            idx = offset >> 2
            region = regions[idx]
            if region is not None:
                if region.__class__ is int:
                    region = _build_region(sim, predecoded, idx, region,
                                           load_use)
                    regions[idx] = region
                (mega, size, rcycles, rstall, first_uses, out_pending,
                 term_pc, _term_idx, term_penalty, _term_zolc, rid,
                 _start, rmembers, _lines, _chain_ok) = region
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
            # -- single-slot path (jump into a region, tiny region,
            #    watchdog boundary) -----------------------------------
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
        zops = [meta.is_zolc_init for meta in metas]
        irops = predecoded.ir
        no_regions: list = [None] * n
        (znext, zexit, zfar, fire_exit, fire_entry, fire_trigger,
         zepoch, zactive, regions, traces, jit) = _traced_dispatch_state(
            plan_fn(), sim, predecoded, n, base, zolc, no_regions)
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
                if chain:
                    # Trace-resident from the entry slot: the generated
                    # driver's first iteration IS the trace execution,
                    # so there is no standalone execute-then-detect
                    # round trip.  The driver assumes post-fire entry
                    # (pending None); the caller settles the incoming
                    # load-use hazard itself, charging it only if the
                    # first member actually retired — exactly the
                    # standalone accounting.
                    stall0 = (load_use if pending is not None
                              and pending in trace.first_uses else 0)
                    cell: list = []
                    try:
                        (ccounts, csteps, ccycles, cstall, cflush,
                         ctaken, cfires, ciw, last_rec,
                         done) = trace.chain(
                            fire_trigger, max_steps - steps, cell)
                    except BaseException as exc:
                        (ccounts, csteps, ccycles, cstall, cflush,
                         ctaken, cfires, ciw, in_fire, last_rec) = cell
                        for ck, cc in ccounts.items():
                            crid = trace.outcomes[ck].rid
                            ccount = rcounts.get(crid)
                            if ccount is None:
                                rcounts[crid] = cc
                                rmembers_by_id[crid] = \
                                    trace.outcomes[ck].members
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
                        chain_steps += csteps
                        if csteps and stall0:
                            cycles += stall0
                            stall += stall0
                        if in_fire:
                            # The fire itself raised: the last trace
                            # execution retired whole; post-mortem pc
                            # is its retiring member.
                            pending = last_rec.out_pending
                            pc = last_rec.pc
                        else:
                            # Fault inside a trace body.  Only the
                            # very first iteration can carry incoming
                            # pending; later ones enter post-fire.
                            (fsteps, fcycles, fstall, fflush, ftaken,
                             fpending, fpc) = reconcile_trace_fault(
                                exc, trace, retired)
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
                        raise
                    for ck, cc in ccounts.items():
                        crid = trace.outcomes[ck].rid
                        ccount = rcounts.get(crid)
                        if ccount is None:
                            rcounts[crid] = cc
                            rmembers_by_id[crid] = \
                                trace.outcomes[ck].members
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
                    chain_steps += csteps
                    if csteps and stall0:
                        cycles += stall0
                        stall += stall0
                    halted = state.halted
                    if done is None:
                        if last_rec is not None and last_rec.is_exit:
                            # The guard did not retire: the engine
                            # re-executes the branch per-slot at its
                            # own address, watches and all — the side
                            # exit is architecturally exact.
                            pending = last_rec.out_pending
                            jit_rec = note_side_exit(trace, last_rec,
                                                     jit_rec)
                            pc = last_rec.pc
                            continue
                        # Watchdog budget exhausted after a loop-back
                        # fire: per-slot dispatch finishes the tail
                        # exactly from the loop entry.
                        pending = None
                        pc = trace.entry_pc
                        continue
                    pending = None
                    if done.next_pc is None:
                        # Expiry: the only decision that can disarm.
                        plan = plan_fn()
                        if plan is None or plan.epoch != zepoch:
                            (znext, zexit, zfar, fire_exit, fire_entry,
                             fire_trigger, zepoch, zactive, regions,
                             traces, jit) = _traced_dispatch_state(
                                plan, sim, predecoded, n, base, zolc,
                                no_regions)
                            jit_rec = None
                        pc = trace.trigger_pc
                    else:
                        # Cascade redirect (or halted mid loop-back):
                        # the plan is still valid.
                        pc = done.next_pc
                    continue
                # Unchained traced mode: one standalone trace
                # execution, then the generic fire protocol.
                try:
                    k = trace.fn()
                except BaseException as exc:
                    (fsteps, fcycles, fstall, fflush, ftaken,
                     fpending, fpc) = reconcile_trace_fault(
                        exc, trace, retired)
                    if fsteps:
                        if pending is not None \
                                and pending in trace.first_uses:
                            fcycles += load_use
                            fstall += load_use
                        pending = fpending
                    steps += fsteps
                    cycles += fcycles
                    stall += fstall
                    flush += fflush
                    taken_branches += ftaken
                    pc = fpc
                    raise
                (rid, rsteps, rcycles, rstall, rflush, rtaken,
                 rmembers, out_pending, is_exit, rpc, _rprefix,
                 _rkey) = trace.outcomes[k]
                if pending is not None and pending in trace.first_uses:
                    cycles += load_use
                    stall += load_use
                steps += rsteps
                cycles += rcycles
                stall += rstall
                flush += rflush
                taken_branches += rtaken
                trace_steps += rsteps
                count = rcounts.get(rid)
                if count is None:
                    rcounts[rid] = 1
                    rmembers_by_id[rid] = rmembers
                else:
                    rcounts[rid] = count + 1
                pending = out_pending
                if is_exit:
                    # The guard did not retire: the engine re-executes
                    # the branch per-slot at its own address, watches
                    # and all — the side exit is architecturally exact.
                    jit_rec = note_side_exit(trace, trace.outcomes[k],
                                             jit_rec)
                    pc = rpc
                    continue
                # Chain leaf: the last retired member fell through (or
                # branched) into the trigger watch.  Mirror the
                # per-slot fire semantics with pc at the retiring
                # member, so a fire fault post-mortems there.
                pc = rpc
                decision = fire_trigger(trace.loop_id)
                writes = decision.index_writes
                if writes:
                    for reg, value in writes:
                        regs_write(reg, value)
                    index_writes += len(writes)
                task_switches += 1
                pending = None
                cycles += zolc_switch_extra
                halted = state.halted
                if decision.next_pc is None:
                    # Expiry: the only decision that can disarm.
                    plan = plan_fn()
                    if plan is None or plan.epoch != zepoch:
                        (znext, zexit, zfar, fire_exit, fire_entry,
                         fire_trigger, zepoch, zactive, regions,
                         traces, jit) = _traced_dispatch_state(
                            plan, sim, predecoded, n, base, zolc,
                            no_regions)
                        jit_rec = None
                    pc = trace.trigger_pc
                    continue
                pc = decision.next_pc
                continue
            region = regions[idx]
            if region is not None:
                if region.__class__ is int:
                    region = _build_region(sim, predecoded, idx, region,
                                           load_use)
                    regions[idx] = region
                (mega, size, rcycles, rstall, first_uses, out_pending,
                 term_pc, term_idx, term_penalty, term_zolc, rid,
                 _start, rmembers, _lines, chain_ok) = region
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
                        if not term_zolc:
                            fired = False
                            chain_loop = None
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
                                        if decision.next_pc is None:
                                            # Only a non-redirecting
                                            # (expiry) decision can
                                            # disarm: re-query there.
                                            plan = plan_fn()
                                            if plan is None \
                                                    or plan.epoch != zepoch:
                                                (znext, zexit, zfar,
                                                 fire_exit, fire_entry,
                                                 fire_trigger, zepoch,
                                                 zactive, regions,
                                                 traces, jit) = \
                                                    _traced_dispatch_state(
                                                        plan, sim,
                                                        predecoded, n,
                                                        base, zolc,
                                                        no_regions)
                                                jit_rec = None
                                        else:
                                            next_pc = decision.next_pc
                                            if (chain and chain_ok
                                                    and entry_id is None
                                                    and next_pc
                                                    == base + 4 * _start):
                                                # The canonical ZOLC
                                                # loop-back: go resident.
                                                chain_loop = trigger_loop
                            if fired:
                                halted = state.halted
                            if chain_loop is not None and not halted:
                                budget = (max_steps - steps) // size
                                resolved = _resolve_chain(
                                    sim, predecoded, region, chain_loop,
                                    plan_fn) if budget > 0 else None
                                if resolved is not None:
                                    chain_fn, cell, clines = resolved
                                    try:
                                        iters, ciw, done = chain_fn(
                                            budget, cell, fire_trigger)
                                    except BaseException as exc:
                                        bodies, fires, ciw = cell
                                        steps += bodies * size
                                        cycles += (bodies * rcycles
                                                   + fires
                                                   * zolc_switch_extra)
                                        stall += bodies * rstall
                                        task_switches += fires
                                        index_writes += ciw
                                        if bodies:
                                            rcounts[rid] += bodies
                                        if bodies > fires:
                                            # The fire itself raised:
                                            # the last region retired
                                            # whole, so the post-mortem
                                            # pc is its terminator —
                                            # the retiring instruction,
                                            # as in every engine.
                                            pending = out_pending
                                            pc = term_pc
                                        else:
                                            # Fault inside the next
                                            # iteration's region body:
                                            # retire its prefix, land
                                            # on the faulting member.
                                            faulting = _fault_member(
                                                exc, _CHAIN_FILENAME,
                                                clines)
                                            steps += faulting
                                            for (midx, mbc, mss,
                                                 _md) in \
                                                    rmembers[:faulting]:
                                                retired[midx] += 1
                                                cycles += mbc + mss
                                                stall += mss
                                            pending = rmembers[
                                                faulting - 1][3] \
                                                if faulting else None
                                            pc = base + 4 * (_start
                                                             + faulting)
                                        raise
                                    if iters:
                                        steps += iters * size
                                        cycles += iters * (
                                            rcycles + zolc_switch_extra)
                                        stall += iters * rstall
                                        task_switches += iters
                                        index_writes += ciw
                                        rcounts[rid] += iters
                                        chain_steps += iters * size
                                    if done is None:
                                        # Watchdog budget exhausted
                                        # (or halted on an inlined
                                        # loop-back fire): back to the
                                        # region entry, per-slot
                                        # dispatch finishes the tail
                                        # exactly.
                                        next_pc = base + 4 * _start
                                        halted = state.halted
                                    elif done.next_pc is not None:
                                        # Chain left through a cascade
                                        # redirect (or halted mid
                                        # loop-back): the plan is
                                        # still valid.
                                        next_pc = done.next_pc
                                        halted = state.halted
                                    else:
                                        next_pc = term_pc + 4
                                        halted = state.halted
                                        plan = plan_fn()
                                        if plan is None \
                                                or plan.epoch != zepoch:
                                            (znext, zexit, zfar,
                                             fire_exit, fire_entry,
                                             fire_trigger, zepoch,
                                             zactive, regions,
                                             traces, jit) = \
                                                _traced_dispatch_state(
                                                    plan, sim,
                                                    predecoded, n, base,
                                                    zolc, no_regions)
                                            jit_rec = None
                        else:
                            # mtz/mfz terminator: full oracle path, then
                            # re-sync plan + regions.
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
                                 fire_trigger, zepoch, zactive, regions,
                                 traces, jit) = _traced_dispatch_state(
                                    plan, sim, predecoded, n, base,
                                    zolc, no_regions)
                                jit_rec = None
                    elif term_zolc:
                        # No plan, port inactive until this very mtz/mfz
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
                             fire_trigger, zepoch, zactive, regions,
                             traces, jit) = _traced_dispatch_state(
                                plan, sim, predecoded, n, base,
                                zolc, no_regions)
                            jit_rec = None
                    pc = next_pc
                    continue
            # -- single-slot path (identical to run_fast's plan loop) ---
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
                elif not zops[idx]:
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
                                         zepoch, zactive, regions,
                                         traces, jit) = \
                                            _traced_dispatch_state(
                                                plan, sim, predecoded,
                                                n, base, zolc,
                                                no_regions)
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
                         fire_trigger, zepoch, zactive, regions,
                         traces, jit) = \
                            _traced_dispatch_state(plan, sim, predecoded,
                                                   n, base, zolc,
                                                   no_regions)
                        jit_rec = None
            elif zactive or zops[idx]:
                if not halted and zolc.active:
                    action = zolc.on_retire(pc, next_pc, taken=taken)
                    if action is not None:
                        (next_pc, pending, index_writes,
                         task_switches, cycles) = _apply_action(
                            action, regs_write, next_pc, pending,
                            index_writes, task_switches, cycles,
                            zolc_switch_extra)
                    halted = state.halted
                # Same no-change shortcut as the fast loop: an unarmed,
                # inactive port retiring mtz table writes cannot have
                # moved the dispatch state.
                plan = plan_fn()
                if plan is not None or zactive or zolc.active:
                    (znext, zexit, zfar, fire_exit, fire_entry,
                     fire_trigger, zepoch, zactive, regions,
                     traces, jit) = \
                        _traced_dispatch_state(plan, sim, predecoded, n,
                                               base, zolc, no_regions)
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
        # 4-way harness pins Stats bit-identity across engines, and
        # only the traced tier can be resident.
        sim.trace_resident_steps += trace_steps
        sim.chain_resident_steps += chain_steps
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
