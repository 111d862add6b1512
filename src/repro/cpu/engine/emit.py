"""The shared Python-text emitter: IR → generated statements.

Every code-generating tier — traced megahandlers and loop-resident
traces — lowers :class:`~repro.cpu.ir.IROp` records through
this one module, so operand formatting, immediate masking, the
``r0``-write drop, the sign-bias comparison idiom and the inlined
bounds-checked memory access exist exactly once.

:func:`member_lines` emits an *interior* span member;
:func:`term_lines` emits the span *terminator*, which returns the
handler-protocol result (``None`` / taken target / ``HALT``).  Both
consume IR fields only (the lowering-pass contract of DESIGN.md §10).

The rest of the generated-code pipeline lives here too, one copy for
both kinds: :func:`record_codegen` compiles an artifact and files it in
the program's code table (:func:`codegen_records`), :func:`instantiate`
binds one to a simulator (generated functions take
:data:`REGION_HELPERS` as default arguments), and :func:`fault_entry`
maps a fault raised in generated code back to its line-table entry.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cpu import alu
from repro.cpu.ir import IROp
from repro.util.bitops import MASK32

from repro.cpu.engine.dispatch import HALT


def set_reg(rd: int, expr: str) -> list[str]:
    """A guarded register write: ``r0`` writes are discarded, statically."""
    return [] if rd == 0 else [f"_g[{rd}] = {expr}"]


def member_lines(op: IROp, ordinal: int, fallbacks: list[int]) -> list[str]:
    """Source statement(s) executing one *interior* member.

    Inlines the handlers' semantics against the raw register list
    (``_g``) and the bound memory methods, so a fused member costs zero
    Python frames for ALU work and exactly one for a memory access.
    Values stay canonical unsigned-32 (every write masks or is already
    in range), and ``r0`` writes are dropped at generation time — the
    same contract :class:`~repro.cpu.state.RegisterFile` enforces
    dynamically.  Signed comparisons use the sign-bias identity
    ``signed(a) < signed(b)  <=>  (a ^ 2**31) < (b ^ 2**31)``.
    Mnemonics without a template fall back to calling the member's
    predecoded closure (recorded in ``fallbacks``, bound into the exec
    namespace as ``_h<ordinal>`` at region-build time).
    """
    m = op.mnemonic
    rs, rt, rd = op.rs, op.rt, op.rd
    M = MASK32
    B = 0x80000000
    if m == "add":
        return set_reg(rd, f"(_g[{rs}] + _g[{rt}]) & {M}")
    if m == "sub":
        return set_reg(rd, f"(_g[{rs}] - _g[{rt}]) & {M}")
    if m == "and":
        return set_reg(rd, f"_g[{rs}] & _g[{rt}]")
    if m == "or":
        return set_reg(rd, f"_g[{rs}] | _g[{rt}]")
    if m == "xor":
        return set_reg(rd, f"_g[{rs}] ^ _g[{rt}]")
    if m == "nor":
        return set_reg(rd, f"~(_g[{rs}] | _g[{rt}]) & {M}")
    if m == "slt":
        return set_reg(rd, f"1 if (_g[{rs}] ^ {B}) < (_g[{rt}] ^ {B}) else 0")
    if m == "sltu":
        return set_reg(rd, f"1 if _g[{rs}] < _g[{rt}] else 0")
    if m == "mul":
        # Low 32 product bits are signedness-independent (mod 2**32).
        return set_reg(rd, f"(_g[{rs}] * _g[{rt}]) & {M}")
    if m == "mulh":
        return set_reg(rd, f"_mulh(_g[{rs}], _g[{rt}])")
    if m == "sll":
        return set_reg(rd, f"(_g[{rt}] << {op.shamt & 31}) & {M}")
    if m == "srl":
        return set_reg(rd, f"_g[{rt}] >> {op.shamt & 31}")
    if m == "sra":
        if rd == 0:
            return []
        return [f"_v = _g[{rt}]",
                f"_g[{rd}] = ((_v - ((_v & {B}) << 1)) "
                f">> {op.shamt & 31}) & {M}"]
    if m == "sllv":
        return set_reg(rd, f"(_g[{rt}] << (_g[{rs}] & 31)) & {M}")
    if m == "srlv":
        return set_reg(rd, f"_g[{rt}] >> (_g[{rs}] & 31)")
    if m == "srav":
        if rd == 0:
            return []
        return [f"_v = _g[{rt}]",
                f"_g[{rd}] = ((_v - ((_v & {B}) << 1)) "
                f">> (_g[{rs}] & 31)) & {M}"]
    if m == "addi":
        return set_reg(rt, f"(_g[{rs}] + {op.imm & M}) & {M}")
    if m == "slti":
        return set_reg(rt, f"1 if (_g[{rs}] ^ {B}) < {(op.imm & M) ^ B} "
                           f"else 0")
    if m == "sltiu":
        return set_reg(rt, f"1 if _g[{rs}] < {op.imm & M} else 0")
    if m == "andi":
        return set_reg(rt, f"_g[{rs}] & {op.imm & 0xFFFF}")
    if m == "ori":
        return set_reg(rt, f"_g[{rs}] | {op.imm & 0xFFFF}")
    if m == "xori":
        return set_reg(rt, f"_g[{rs}] ^ {op.imm & 0xFFFF}")
    if m == "lui":
        return set_reg(rt, f"{(op.imm & 0xFFFF) << 16}")
    if m in ("lw", "lb", "lbu", "lh", "lhu"):
        # Inlined memory access: the in-bounds, aligned fast path reads
        # the raw memory buffer (``_mem``) directly — zero Python frames
        # — and anything else calls the bound :class:`Memory` method,
        # which raises the exact :class:`MemoryAccessError` the other
        # engines raise (the guard and ``Memory._check`` are
        # complementary: ``_a`` is masked non-negative, so a failed
        # guard *is* an out-of-bounds or misaligned access).  Signed
        # byte/half loads widen via the unsigned read + sign-bit OR,
        # staying in the canonical unsigned-32 representation.
        lines = [f"_a = (_g[{rs}] + {op.imm}) & {M}"]
        if m == "lw":
            value = ("_ifb(_mem[_a:_a + 4], 'little') "
                     "if _a <= _hi4 and not _a & 3 else _lw(_a)")
            # rt == 0 still performs the access (it can fault) and
            # discards the value.
            lines.append(value if rt == 0 else f"_g[{rt}] = {value}")
            return lines
        if m in ("lb", "lbu"):
            lines.append("_v = _mem[_a] if _a <= _hi1 "
                         "else _lb(_a, False)")
            widened = "_v | 4294967040 if _v & 128 else _v" \
                if m == "lb" else "_v"
        else:
            lines.append("_v = _ifb(_mem[_a:_a + 2], 'little') "
                         "if _a <= _hi2 and not _a & 1 "
                         "else _lh(_a, False)")
            widened = "_v | 4294901760 if _v & 32768 else _v" \
                if m == "lh" else "_v"
        if rt != 0:
            lines.append(f"_g[{rt}] = {widened}")
        return lines
    if m in ("sb", "sh", "sw"):
        # Same fast-path/fault-path split as the loads; the slice
        # assignment mutates the buffer in place, and register values
        # are already canonical unsigned-32, so ``to_bytes`` is safe.
        lines = [f"_a = (_g[{rs}] + {op.imm}) & {M}"]
        if m == "sb":
            lines += ["if _a <= _hi1:",
                      f"    _mem[_a] = _g[{rt}] & 255",
                      "else:",
                      f"    _sb(_a, _g[{rt}])"]
        elif m == "sh":
            lines += ["if _a <= _hi2 and not _a & 1:",
                      f"    _mem[_a:_a + 2] = "
                      f"(_g[{rt}] & 65535).to_bytes(2, 'little')",
                      "else:",
                      f"    _sh(_a, _g[{rt}])"]
        else:
            lines += ["if _a <= _hi4 and not _a & 3:",
                      f"    _mem[_a:_a + 4] = "
                      f"_g[{rt}].to_bytes(4, 'little')",
                      "else:",
                      f"    _sw(_a, _g[{rt}])"]
        return lines
    fallbacks.append(ordinal)
    return [f"_h{ordinal}({op.address})"]


def branch_cond_expr(op: IROp) -> str | None:
    """The taken-condition expression of a conditional branch, or None.

    The one place the branch comparison idiom exists: region span
    terminators bake it into the handler-protocol result, and trace
    guards test it directly (taking the side exit when the hot
    direction's condition fails).  ``dbne`` is excluded — its condition
    reads the *decremented* counter, which the caller must materialise
    first (it has a register side effect a pure guard cannot have).
    """
    rs, rt = op.rs, op.rt
    B = 0x80000000
    return {
        "beq": f"_g[{rs}] == _g[{rt}]",
        "bne": f"_g[{rs}] != _g[{rt}]",
        "blez": f"(_g[{rs}] ^ {B}) <= {B}",
        "bgtz": f"(_g[{rs}] ^ {B}) > {B}",
        "bltz": f"(_g[{rs}] ^ {B}) < {B}",
        "bgez": f"(_g[{rs}] ^ {B}) >= {B}",
    }.get(op.mnemonic)


def term_lines(op: IROp, ordinal: int, fallbacks: list[int]) -> list[str]:
    """Source statement(s) for the span *terminator*.

    Ends in a ``return`` carrying the handler-protocol value (``None``
    / taken target / ``HALT``), which the driving loop triages exactly
    like the per-instruction path does.
    """
    m = op.mnemonic
    rs, rt, rd = op.rs, op.rt, op.rd
    if op.is_branch and m != "dbne":
        cond = branch_cond_expr(op)
        if cond is not None:
            return [f"return {op.target} if {cond} else None"]
    if m == "dbne":
        lines = [f"_v = (_g[{rs}] - 1) & {MASK32}"]
        if rs:
            lines.append(f"_g[{rs}] = _v")
        lines.append(f"return {op.target} if _v else None")
        return lines
    if m == "j":
        return [f"return {op.target}"]
    if m == "jal":
        return [f"_g[31] = {op.link}",
                f"return {op.target}"]
    if m == "jr":
        return [f"return _g[{rs}]"]
    if m == "jalr":
        return ([f"_v = _g[{rs}]"]
                + set_reg(rd, f"{op.link}")
                + ["return _v"])
    if m == "halt":
        return ["_state.halted = True",
                "return _HALT"]
    if m in ("mtz", "mfz"):
        # Port accesses keep the predecoded closure, bound to the
        # attached port's per-selector writer or read (or raising the
        # same no-ZOLC fault the other engines raise).  An arm or a
        # reset ends its span here; a table write or an ``mfz`` only
        # when its next pc is watched or the text ends, and inside a
        # span it is the same closure call via member_lines' fallback.
        fallbacks.append(ordinal)
        return [f"return _h{ordinal}({op.address})"]
    # A sequential instruction terminating only because the next slot
    # starts a new span (watched next pc, end of text, ...).
    return member_lines(op, ordinal, fallbacks) + ["return None"]


#: Fixed exec-namespace names every fused region may reference.
#: ``_mem`` is the raw memory buffer (inlined loads/stores), ``_ifb``
#: a pre-bound ``int.from_bytes``, and ``_hi1``/``_hi2``/``_hi4`` the
#: per-simulator highest in-bounds address for each access width.
REGION_HELPERS = ("_g", "_mem", "_ifb", "_hi1", "_hi2", "_hi4",
                  "_lb", "_lh", "_lw", "_sb", "_sh", "_sw",
                  "_mulh", "_state", "_HALT")

#: compile() filename of all generated code; :func:`fault_entry`
#: recognises generated frames by it.
CODE_FILENAME = "<trace-jit>"


def instantiate(sim, code, name: str, bindings: dict):
    """Bind compiled generated code to one simulator; returns the function.

    Executes ``code`` in a fresh namespace of :data:`REGION_HELPERS` —
    the raw register list and memory buffer, mutated in place and never
    rebound, the bound memory methods serving the fault paths — plus
    ``bindings``, then pops the function ``name`` back out.  The
    namespace keeps no reference to the function it defined, so it is
    no reference cycle: a finished simulator's memory is freed as soon
    as the simulator is.
    """
    memory = sim.memory
    ns = {
        "_g": sim.state.regs._regs,
        "_mem": memory._bytes, "_ifb": int.from_bytes,
        "_hi1": memory.size - 1, "_hi2": memory.size - 2,
        "_hi4": memory.size - 4,
        "_lb": memory.load_byte, "_lh": memory.load_half,
        "_lw": memory.load_word,
        "_sb": memory.store_byte, "_sh": memory.store_half,
        "_sw": memory.store_word,
        "_mulh": alu.mul32_hi,
        "_state": sim.state, "_HALT": HALT,
    }
    ns.update(bindings)
    exec(code, ns)
    return ns.pop(name)


def fault_entry(exc: BaseException, line_table: tuple):
    """The line-table entry of the innermost generated frame of ``exc``.

    Walks the traceback to the last frame compiled under
    :data:`CODE_FILENAME` and returns ``line_table`` at its 0-based
    source line (index 0 is the ``def`` line), or ``None`` when no
    generated line with an entry raised.
    """
    entry = None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == CODE_FILENAME:
            line = tb.tb_lineno - 1
            if 0 <= line < len(line_table) \
                    and line_table[line] is not None:
                entry = line_table[line]
        tb = tb.tb_next
    return entry


#: Attribute the per-program code table lives under.
_CODE_TABLE_ATTR = "_codegen_records"


class CodegenRecord(NamedTuple):
    """One generated artifact: its source, code and line tables.

    The program's code table (:func:`codegen_records`) holds one record
    per artifact, and it is the only cache of generated code: the
    engine binds each record's ``code`` (:func:`instantiate`) and
    :mod:`repro.cpu.analysis.audit` re-parses the same record's
    ``source``, so the audit reads exactly what runs.  A region's key
    is ``("region", start, term, None)``; a trace's is ``"trace"`` plus
    its blueprint key (see
    :func:`~repro.cpu.engine.trace.trace_record_keys`), so one loop
    compiled under two pipeline configs or watch sets keeps one record
    per blueprint.  ``loop_id`` is ``None`` except for traces.
    """

    kind: str                   # "region" | "trace"
    start: int                  # first slot of the span
    term: int                   # terminator slot (inclusive)
    source: str                 # the compiled source text, verbatim
    code: object                # compile(source) — what the engine binds
    line_member: tuple          # line index -> member ordinal | None
                                # (traces: the member's slot)
    fallbacks: tuple            # (ordinal, slot) of each member emitted
                                # as an _h<ordinal> call
    loop_id: int | None = None
    #: Trace records only: one entry per emitted guard, as
    #: ``(source line index, guarded slot, hot direction)`` — the hot
    #: direction is ``True``/``False`` for a guard whose opposite side
    #: side-exits, ``None`` for a spliced (bridged) two-sided guard.
    #: The AU005 auditor re-derives each guard's expected condition
    #: from the IR and compares it against the emitted source.
    guards: tuple = ()
    #: Trace records only: the recorded branch-event paths the trace
    #: was lowered from, its outcome table and its line -> pre-fault
    #: snapshot table (see :mod:`repro.cpu.engine.trace`).
    paths: tuple = ()
    outcomes: tuple = ()
    line_fault: tuple = ()


def record_codegen(program, key: tuple, source: str,
                   **fields) -> CodegenRecord:
    """Compile ``source`` and file it in the program's code table under
    ``key``; returns the record (``fields`` fill the rest of it).

    Every generated function compiles at line 1 of the one filename
    :data:`CODE_FILENAME`, which :func:`fault_entry` walks, so the
    function's ``co_name`` is what tells them apart: it is renamed
    after its kind and span (``region_<start>_<term>``,
    ``trace_L<loop>_<start>``), giving each record its own profiler
    row.  The ``def`` statement still binds the source's name.
    """
    code = compile(source, CODE_FILENAME, "exec")
    name = (f"trace_L{fields['loop_id']}_{fields['start']}"
            if fields.get("loop_id") is not None
            else f"{fields['kind']}_{fields['start']}_{fields['term']}")
    code = code.replace(co_consts=tuple(
        const.replace(co_name=name, co_qualname=name)
        if hasattr(const, "co_code") else const
        for const in code.co_consts))
    record = CodegenRecord(source=source, code=code, **fields)
    codegen_records(program)[key] = record
    return record


def codegen_records(program) -> dict:
    """The program's code table: cache key -> :class:`CodegenRecord`
    (created empty on first use)."""
    table = program.__dict__.get(_CODE_TABLE_ATTR)
    if table is None:
        table = program.__dict__[_CODE_TABLE_ATTR] = {}
    return table
