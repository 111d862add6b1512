"""The generated-code auditor: prove emitted Python matches the IR.

Every codegen tier files a :class:`~repro.cpu.engine.emit.CodegenRecord`
(the exact compiled source plus fault-reconciliation metadata) next to
its code cache.  This module forces generation over the canonical span
cover of a program, re-parses each record with :mod:`ast`, and
cross-checks it against the IR — *what the generated code touches must
equal what the IR says the region touches*:

AU001  the constant-register accesses in the source (``_g[N]`` reads
       and writes) equal the IR operand sets of the region's members,
       under the emitter's documented dead-write rule (a non-memory op
       whose only destination is r0 emits nothing).
AU002  the byte displacements in emitted addressing code
       (``_a = (_g[rs] + imm) & MASK``) equal the IR displacement
       multiset of the region's loads and stores.
AU003  the compiled :class:`~repro.cpu.engine.traced.TraceRegion`
       timing constants equal the per-op ``op_base_cycles`` /
       ``op_taken_penalty`` sums recomputed from the IR, including the
       static load-use stalls.
AU004  the fault-reconciliation line map is total: it covers every
       source line, maps every member ordinal, and is non-decreasing.
AU005  a trace record's guard table matches the IR: replaying the
       guard directions over the IR from the trace entry meets a
       branch exactly where each guard sits (one guard per recorded
       divergence), every side exit re-enters per-slot dispatch inside
       the watched body, and the per-outcome step constants baked into
       the trace driver equal the replay's member counts.

Member ordinals emitted as fallback closures (``_h<k>(...)``) are
opaque to the parser and are excluded from AU001/AU002 expectations
(the record names them, so the exclusion is itself audited input).
Every trace record gets AU005.  A zero-guard trace (a straight-line
body: one path, no guard) is additionally AU001/AU002/AU004 audited
over that path, every member through the interior templates; a
guarded trace's member lowering is the same shared templates, so
AU001/AU002 over regions and zero-guard traces cover it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.cpu.ir import (
    IROp,
    build_ir,
    ir_failure,
    op_base_cycles,
    op_taken_penalty,
    span_breaks,
    straightline_terms,
)
from repro.isa.instructions import Category

from repro.cpu.analysis.verify import Diagnostic

if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    from repro.cpu.engine.emit import CodegenRecord
    from repro.cpu.simulator import Simulator


class SourceTouches:
    """What one generated artifact touches, per its ``ast`` parse."""

    __slots__ = ("reg_reads", "reg_writes", "mem_offsets")

    def __init__(self) -> None:
        self.reg_reads: set[int] = set()
        self.reg_writes: set[int] = set()
        self.mem_offsets: list[int] = []


def source_touches(source: str) -> SourceTouches:
    """Parse generated source and collect its constant accesses.

    Register file accesses are ``_g[<constant>]`` subscripts (dynamic
    subscripts — a trace leaf's controller index writes — carry
    no constant and are skipped); addressing displacements are the
    constant addend of the canonical ``_a = (_g[rs] + imm) & MASK``
    statement the emitter produces for every load/store.
    """
    touches = SourceTouches()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "_g"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, int)):
            if isinstance(node.ctx, ast.Store):
                touches.reg_writes.add(node.slice.value)
            else:
                touches.reg_reads.add(node.slice.value)
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_a"
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.BitAnd)
                and isinstance(node.value.left, ast.BinOp)
                and isinstance(node.value.left.op, ast.Add)):
            try:
                offset = ast.literal_eval(node.value.left.right)
            except ValueError:
                continue
            if isinstance(offset, int):
                touches.mem_offsets.append(offset)
    return touches


class ExpectedTouches:
    """What the IR says a generated artifact must touch."""

    __slots__ = ("reg_reads", "reg_writes", "mem_offsets")

    def __init__(self) -> None:
        self.reg_reads: set[int] = set()
        self.reg_writes: set[int] = set()
        self.mem_offsets: list[int] = []


def _member_expect(op: IROp, expect: ExpectedTouches) -> None:
    """Expected accesses of one *interior* member (emitter rules)."""
    if op.category_key == Category.LOAD.value:
        expect.reg_reads.add(op.rs)
        expect.reg_writes.update(op.defs)
        expect.mem_offsets.append(op.imm)
        return
    if op.category_key == Category.STORE.value:
        expect.reg_reads.update((op.rs, op.rt))
        expect.mem_offsets.append(op.imm)
        return
    if not op.defs:
        # The emitter drops the whole statement when the only
        # destination is r0 (set_reg's generation-time discard).
        return
    expect.reg_reads.update(op.reads)
    expect.reg_writes.update(op.defs)


def _term_expect(op: IROp, expect: ExpectedTouches) -> None:
    """Expected accesses of a span *terminator* (emitter rules)."""
    m = op.mnemonic
    if op.is_branch and m != "dbne":
        expect.reg_reads.update(op.reads)
        return
    if m == "dbne":
        expect.reg_reads.add(op.rs)
        expect.reg_writes.update(op.defs)
        return
    if m == "j":
        return
    if m == "jal":
        expect.reg_writes.add(31)
        return
    if m == "jr":
        expect.reg_reads.add(op.rs)
        return
    if m == "jalr":
        expect.reg_reads.add(op.rs)
        expect.reg_writes.update(op.defs)
        return
    if m == "halt":
        return
    if op.is_zolc_init:
        return  # fallback closure: opaque, excluded by caller
    # Sequential terminator: member semantics plus the result line.
    _member_expect(op, expect)


def expected_touches(ops: Sequence[IROp], kind: str,
                     fallbacks: Iterable[int]) -> ExpectedTouches:
    """The IR-derived access sets for one generated artifact.

    ``ops`` is the span's member slice in ordinal order.  ``kind``
    selects the tier's lowering shape: megahandler regions emit their
    last member through the terminator templates; traces emit *every*
    member through the interior templates (the trigger fire replaces
    the terminator).
    """
    excluded = frozenset(fallbacks)
    expect = ExpectedTouches()
    for ordinal, op in enumerate(ops):
        if ordinal in excluded:
            continue
        if kind == "region" and ordinal == len(ops) - 1:
            _term_expect(op, expect)
        else:
            _member_expect(op, expect)
    return expect


def audit_record(record: CodegenRecord,
                 ops: Sequence[IROp]) -> list[Diagnostic]:
    """AU001/AU002/AU004 for one codegen record against its IR slice."""
    out: list[Diagnostic] = []
    label = (f"{record.kind} {hex(ops[0].address)}.."
             f"{hex(ops[-1].address)}")
    pc_lo, pc_hi = ops[0].address, ops[-1].address
    expect = expected_touches(ops, record.kind, record.fallbacks)
    actual = source_touches(record.source)
    if actual.reg_reads != expect.reg_reads:
        out.append(Diagnostic(
            "AU001", "error",
            f"{label}: emitted code reads registers "
            f"{sorted(actual.reg_reads)}, IR expects "
            f"{sorted(expect.reg_reads)}", pc_lo=pc_lo, pc_hi=pc_hi))
    if actual.reg_writes != expect.reg_writes:
        out.append(Diagnostic(
            "AU001", "error",
            f"{label}: emitted code writes registers "
            f"{sorted(actual.reg_writes)}, IR expects "
            f"{sorted(expect.reg_writes)}", pc_lo=pc_lo, pc_hi=pc_hi))
    if sorted(actual.mem_offsets) != sorted(expect.mem_offsets):
        out.append(Diagnostic(
            "AU002", "error",
            f"{label}: emitted addressing displacements "
            f"{sorted(actual.mem_offsets)} do not match the IR "
            f"multiset {sorted(expect.mem_offsets)}",
            pc_lo=pc_lo, pc_hi=pc_hi))
    out.extend(_audit_line_map(record, ops, label, pc_lo, pc_hi))
    return out


def _audit_line_map(record: CodegenRecord, ops: Sequence[IROp],
                    label: str, pc_lo: int,
                    pc_hi: int) -> list[Diagnostic]:
    """AU004: the line map is total over source lines and ordinals."""
    out: list[Diagnostic] = []
    nlines = record.source.count("\n") + 1
    if len(record.line_member) != nlines:
        out.append(Diagnostic(
            "AU004", "error",
            f"{label}: line map covers {len(record.line_member)} "
            f"lines but the source has {nlines}",
            pc_lo=pc_lo, pc_hi=pc_hi))
    mapped = [m for m in record.line_member if m is not None]
    expected = list(range(len(ops)))
    if record.kind == "trace":
        # A trace's line map names slots, and a plain jump emits no
        # line: the path position is the ordinal.
        ordinal = {op.index: k for k, op in enumerate(ops)}
        mapped = [ordinal.get(m, -1) for m in mapped]
        expected = [k for k, op in enumerate(ops) if op.mnemonic != "j"]
    if sorted(set(mapped)) != expected:
        out.append(Diagnostic(
            "AU004", "error",
            f"{label}: line map reaches ordinals "
            f"{sorted(set(mapped))}, expected {expected}",
            pc_lo=pc_lo, pc_hi=pc_hi))
    if mapped != sorted(mapped):
        out.append(Diagnostic(
            "AU004", "error",
            f"{label}: line map is not non-decreasing (a fault line "
            "could reconcile to the wrong member)",
            pc_lo=pc_lo, pc_hi=pc_hi))
    return out


def _audit_region_timing(sim: Simulator, ops: Sequence[IROp],
                         region_cycles: int, region_stall: int,
                         term_penalty: int) -> list[Diagnostic]:
    """AU003: region timing constants vs IR-recomputed sums."""
    config = sim.timing.config
    load_use = config.load_use_stall
    cycles = stall = 0
    prev_dest: int | None = None
    for ordinal, op in enumerate(ops):
        static_stall = load_use if (ordinal and prev_dest is not None
                                    and prev_dest in op.uses) else 0
        cycles += op_base_cycles(op, config) + static_stall
        stall += static_stall
        prev_dest = op.load_dest
    penalty = op_taken_penalty(ops[-1], config)
    out: list[Diagnostic] = []
    label = f"region {hex(ops[0].address)}..{hex(ops[-1].address)}"
    if (region_cycles, region_stall) != (cycles, stall):
        out.append(Diagnostic(
            "AU003", "error",
            f"{label}: compiled static timing (cycles="
            f"{region_cycles}, stall={region_stall}) does not match "
            f"the IR recomputation (cycles={cycles}, stall={stall})",
            pc_lo=ops[0].address, pc_hi=ops[-1].address))
    if term_penalty != penalty:
        out.append(Diagnostic(
            "AU003", "error",
            f"{label}: compiled taken penalty {term_penalty} does not "
            f"match op_taken_penalty {penalty}",
            pc_lo=ops[0].address, pc_hi=ops[-1].address))
    return out


def _replay_guards(ir: Sequence[IROp], base: int, entry_slot: int,
                   trigger_pc: int, guards: Sequence[tuple]
                   ) -> tuple[dict, list, list]:
    """Replay a record's guard table over the IR (AU005).

    Walks the trace tree the guard table describes — from the entry
    slot, following each guard's hot direction and both arms of a
    split (``hot is None``), taken arm first, matching the emitter's
    pre-order — allocating outcome indices in the emitter's order.
    Returns ``(escapes, leaves, problems)``: ``escapes`` maps guard
    ordinal to ``(outcome index, steps retired before the guard)``,
    ``leaves`` lists ``(outcome index, steps per iteration)`` per
    leaf, and ``problems`` collects replay inconsistencies (the
    walk meeting a branch with no guard, a guard sitting on the wrong
    slot, a path leaving the text section or never reaching the
    trigger).
    """
    n = len(ir)
    escapes: dict[int, tuple[int, int]] = {}
    leaves: list[tuple[int, int]] = []
    problems: list[str] = []
    cursor = [0, 0]  # next guard ordinal, next outcome index

    def walk(slot: int, steps: int) -> None:
        while not problems:
            if steps > n:
                problems.append(
                    "replay exceeds the program length (the guard "
                    "tree walks a cycle)")
                return
            op = ir[slot]
            if op.is_branch:
                if cursor[0] >= len(guards):
                    problems.append(
                        "replay reaches an unguarded branch at "
                        f"{hex(op.address)}")
                    return
                idx = cursor[0]
                _lineno, gslot, hot = guards[idx]
                cursor[0] += 1
                if gslot != slot:
                    problems.append(
                        f"guard {idx} sits on slot {gslot} but the "
                        f"replay reaches the branch at slot {slot} "
                        f"({hex(op.address)})")
                    return
                if hot is None:
                    if op.target is None:
                        problems.append(
                            f"split guard {idx} on a branch with no "
                            f"static target ({hex(op.address)})")
                        return
                    if op.target == trigger_pc:
                        leaves.append((cursor[1], steps + 1))
                        cursor[1] += 1
                    else:
                        offset = op.target - base
                        if offset < 0 or offset & 3 \
                                or offset >> 2 >= n:
                            problems.append(
                                f"split guard {idx} jumps out of the "
                                f"text section ({hex(op.target)})")
                            return
                        walk(offset >> 2, steps + 1)
                    next_pc = op.link
                else:
                    escapes[idx] = (cursor[1], steps)
                    cursor[1] += 1
                    next_pc = op.target if hot else op.link
                    if next_pc is None:
                        problems.append(
                            f"guard {idx}'s hot direction has no "
                            f"static target ({hex(op.address)})")
                        return
                steps += 1
            elif op.mnemonic in ("j", "jal"):
                if op.target is None:
                    problems.append(
                        f"jump with no static target at "
                        f"{hex(op.address)} inside the trace")
                    return
                next_pc = op.target
                steps += 1
            elif op.can_transfer or op.is_zolc_init:
                problems.append(
                    f"untraceable member {op.mnemonic} at "
                    f"{hex(op.address)} inside the trace")
                return
            else:
                next_pc = op.link
                steps += 1
            if next_pc == trigger_pc:
                leaves.append((cursor[1], steps))
                cursor[1] += 1
                return
            offset = next_pc - base
            if offset < 0 or offset & 3 or offset >> 2 >= n:
                problems.append(
                    f"path leaves the text section at {hex(next_pc)}")
                return
            slot = offset >> 2

    walk(entry_slot, 0)
    if not problems and cursor[0] != len(guards):
        problems.append(
            f"guard table records {len(guards)} divergences but the "
            f"replay consumed {cursor[0]}")
    return escapes, leaves, problems


def _scan_blocks(node: ast.stmt) -> list[tuple[list, int | None]]:
    """A statement's nested blocks with their owning-``if`` lineno.

    Only an ``if``'s *body* is owned by it — the emitter places a
    guard's escape there; ``else`` arms and loop/try bodies pass
    ``None`` so their sites classify as leaves.
    """
    if isinstance(node, ast.If):
        return [(node.body, node.lineno), (node.orelse, None)]
    if isinstance(node, (ast.While, ast.For)):
        return [(node.body, None), (node.orelse, None)]
    if isinstance(node, ast.Try):
        return ([(node.body, None), (node.orelse, None),
                 (node.finalbody, None)]
                + [(handler.body, None) for handler in node.handlers])
    return []


def _bump_sites(source: str) -> list[tuple[int | None, int, int]]:
    """Outcome bumps in a trace source: ``(if lineno, k, steps)``.

    A site is one ``_o<k> += 1`` statement; its steps delta is the
    constant of the adjacent ``_steps += n`` (0 when elided).  The
    first element is the lineno of the ``if`` whose body directly
    holds the site — matching a guard's lineno classifies the site as
    that guard's escape — or ``None`` at leaf/top-level placement.
    """
    sites: list[tuple[int | None, int, int]] = []

    def scan(stmts: list, owner: int | None) -> None:
        for i, node in enumerate(stmts):
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id[:2] == "_o"
                    and node.target.id[2:].isdigit()):
                delta = 0
                follow = stmts[i + 1] if i + 1 < len(stmts) else None
                if (isinstance(follow, ast.AugAssign)
                        and isinstance(follow.target, ast.Name)
                        and follow.target.id == "_steps"
                        and isinstance(follow.value, ast.Constant)):
                    delta = follow.value.value
                sites.append((owner, int(node.target.id[2:]), delta))
            for block, block_owner in _scan_blocks(node):
                scan(block, block_owner)

    scan(ast.parse(source).body[0].body, None)
    return sites


def audit_trace_record(record: CodegenRecord, ir: Sequence[IROp],
                       base: int,
                       trigger_pc: int) -> list[Diagnostic]:
    """AU005 for one ``trace`` record against the IR."""
    entry_pc = base + 4 * record.start
    label = f"{record.kind} loop {record.loop_id} @ {hex(entry_pc)}"
    out: list[Diagnostic] = []

    def flag(message: str) -> None:
        out.append(Diagnostic("AU005", "error", f"{label}: {message}",
                              pc_lo=entry_pc, pc_hi=trigger_pc))

    lines = record.source.splitlines()
    n = len(ir)
    for idx, (lineno, slot, hot) in enumerate(record.guards):
        if not 0 <= slot < n or not ir[slot].is_branch:
            flag(f"guard {idx} sits on slot {slot}, which is not a "
                 "branch in the IR")
            continue
        if not (0 <= lineno < len(lines)
                and lines[lineno].lstrip().startswith("if ")):
            flag(f"guard {idx} points at source line {lineno}, which "
                 "is not a conditional")
        if lineno < len(record.line_member) \
                and record.line_member[lineno] != slot:
            flag(f"guard {idx} disagrees with the fault line map "
                 f"(line {lineno} reconciles to member "
                 f"{record.line_member[lineno]}, the guard says "
                 f"slot {slot})")
        pc = ir[slot].address
        if hot is not None and not entry_pc <= pc < trigger_pc:
            flag(f"guard {idx}'s side exit at {hex(pc)} lies outside "
                 f"the watched body [{hex(entry_pc)}, "
                 f"{hex(trigger_pc)})")
    if out:
        return out
    escapes, leaves, problems = _replay_guards(
        ir, base, record.start, trigger_pc, record.guards)
    if problems:
        for problem in problems:
            flag(problem)
        return out
    # AST linenos are 1-based over the full source (the ``def`` line
    # is 1); record linenos index ``splitlines()`` with the def at 0.
    escape_guard = {lineno + 1: idx
                    for idx, (lineno, _slot, hot)
                    in enumerate(record.guards) if hot is not None}
    seen: dict[int, tuple[int, int]] = {}
    leaf_sites: list[tuple[int, int]] = []
    for owner, k, delta in _bump_sites(record.source):
        idx = escape_guard.get(owner) if owner is not None else None
        if idx is not None:
            seen[idx] = (k, delta)
        else:
            leaf_sites.append((k, delta))
    for idx, (k, steps) in sorted(escapes.items()):
        got = seen.get(idx)
        if got is None:
            flag(f"guard {idx} has no outcome bump inside its "
                 "escape arm")
        elif got != (k, steps):
            flag(f"guard {idx}'s side exit books outcome {got[0]} "
                 f"with {got[1]} steps, the IR replay expects "
                 f"outcome {k} with {steps} steps")
    if sorted(leaf_sites) != sorted(leaves):
        flag(f"leaf outcomes {sorted(leaf_sites)} do not match the "
             f"IR replay's {sorted(leaves)} (outcome, steps) pairs")
    return out


def span_starts(ir: Sequence[IROp], base: int,
                watched: frozenset[int],
                terms: Sequence[int | None]) -> list[int]:
    """Slots beginning a *maximal* straight-line span: the first
    slot, and each slot after a span break (:func:`span_breaks`)."""
    breaks = span_breaks(ir, base, watched)
    return [j for j in range(len(ir))
            if terms[j] is not None
            and (j == 0 or breaks[j - 1] is not None)]


#: Step budget of the warm-up run that materialises trace records
#: for AU005 (traces only compile once a path goes hot, so the audit
#: must execute the program; suite kernels halt far below this).
TRACE_AUDIT_BUDGET = 2_000_000


def _straight_path(ir: Sequence[IROp], base: int, start: int,
                   trigger_pc: int) -> list[IROp]:
    """A zero-guard trace's members: its one path from the entry slot
    to the trigger (already replayed by AU005, so it ends there)."""
    path: list[IROp] = []
    slot = start
    while True:
        op = ir[slot]
        path.append(op)
        next_pc = op.link
        if op.mnemonic in ("j", "jal") and op.target is not None:
            next_pc = op.target
        if next_pc == trigger_pc:
            return path
        slot = (next_pc - base) >> 2


def audit_codegen(sim: Simulator,
                  watched: frozenset[int] = frozenset(),
                  traces: Iterable[tuple[int, int, int]] = ()
                  ) -> list[Diagnostic]:
    """Force codegen over the canonical span cover and audit it all.

    ``watched`` is the plan's next-pc watch set (it shapes the span
    slicing exactly as it does at run time); ``traces`` lists the
    ``(entry slot, trigger slot, loop id)`` triples of the watched
    loops the traced tier may promote to loop-resident traces (see
    :func:`repro.cpu.analysis.verify.trace_candidate_bodies`).  Unlike
    regions, trace codegen cannot be forced statically — a trace
    exists only after its loop went hot — so a non-empty ``traces``
    triggers one bounded warm-up run of ``sim`` before the trace
    audit; candidates that never promote are reported as ``info``.
    Trace records are read under ``sim``'s own blueprint keys, so a
    program simulated at several pipeline configs is audited at the
    one ``sim`` runs.
    """
    from repro.cpu.engine import traced as traced_mod
    from repro.cpu.engine.emit import codegen_records
    from repro.cpu.engine.trace import trace_record_keys
    from repro.cpu.exceptions import SimulationError

    program = sim.program
    ir = build_ir(program)
    if ir is None:
        return [Diagnostic(
            "AU001", "info",
            "program has no IR, nothing to audit "
            f"({ir_failure(program)})")]
    predecoded = sim._ensure_predecoded()
    if predecoded is False:
        return [Diagnostic(
            "AU001", "info",
            "program cannot be predecoded, nothing to audit "
            f"({sim._predecode_failure})")]
    base = program.text_base
    terms = straightline_terms(ir, base, watched)
    out: list[Diagnostic] = []
    load_use = sim.timing.config.load_use_stall
    for start in span_starts(ir, base, watched, terms):
        term = terms[start]
        assert term is not None
        ops = ir[start:term + 1]
        traced_mod._region_code(program, start, term)
        record = codegen_records(program)[("region", start, term, None)]
        out.extend(audit_record(record, ops))
        region = traced_mod._build_region(
            sim, predecoded, start, term, load_use)
        out.extend(_audit_region_timing(
            sim, ops, region.cycles, region.stall,
            region.term_taken_penalty))
    trace_rows = list(traces)

    def sim_records(start: int, tslot: int,
                    loop_id: int) -> list[CodegenRecord]:
        """This simulator's trace records for one loop (its pipeline
        config, its plan states' watch sets)."""
        records = codegen_records(program)
        return [records[key] for key in trace_record_keys(
            sim, start, base + 4 * tslot, loop_id) if key in records]

    if trace_rows:
        if not all(sim_records(*row) for row in trace_rows):
            try:
                sim.run(max_steps=TRACE_AUDIT_BUDGET)
            except SimulationError:
                pass  # records up to the fault still audit
        for start, tslot, loop_id in trace_rows:
            entry_pc = base + 4 * start
            trigger_pc = base + 4 * tslot
            found = sim_records(start, tslot, loop_id)
            if not found:
                out.append(Diagnostic(
                    "AU005", "info",
                    f"trace candidate loop {loop_id} at "
                    f"{hex(entry_pc)} never promoted during the "
                    "audit run, no generated code to audit",
                    pc_lo=entry_pc, pc_hi=trigger_pc))
                continue
            for record in found:
                findings = audit_trace_record(record, ir, base,
                                              trigger_pc)
                out.extend(findings)
                if not record.guards and not findings:
                    out.extend(audit_record(record, _straight_path(
                        ir, base, start, trigger_pc)))
    return out
