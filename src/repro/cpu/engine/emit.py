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

The exec-namespace conventions live here too: generated functions
bind :data:`REGION_HELPERS` as default arguments
(:func:`region_namespace`).
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


def region_namespace(sim) -> dict:
    """The per-simulator exec namespace for generated region code.

    Everything here is stable for the simulator's lifetime: the raw
    register list and memory buffer are mutated in place, never
    rebound, and the bound memory methods serve the generated code's
    fault paths.
    """
    memory = sim.memory
    return {
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


#: Attribute the per-program codegen audit log lives under.
_AUDIT_LOG_ATTR = "_codegen_records"


class CodegenRecord(NamedTuple):
    """One generated artifact, kept for the static auditor.

    Every codegen tier records the exact source text it compiled (plus
    the fault-reconciliation metadata) alongside the cached code
    object, keyed like the code caches, so
    :mod:`repro.cpu.analysis.audit` can re-parse what actually runs
    instead of re-running the generator.  A region's key is
    ``("region", start, term, None)``; a trace's is ``"trace"`` plus
    its blueprint key (see
    :func:`~repro.cpu.engine.trace.trace_record_keys`), so one loop
    compiled under two pipeline configs or watch sets keeps one record
    per blueprint.  ``loop_id`` is ``None`` except for traces.
    """

    kind: str                   # "region" | "trace"
    start: int                  # first slot of the span
    term: int                   # terminator slot (inclusive)
    source: str                 # the compiled source text, verbatim
    line_member: tuple          # line index -> member ordinal | None
                                # (traces: the member's slot)
    fallbacks: tuple            # member ordinals emitted as _h<k> calls
    loop_id: int | None = None
    #: Trace records only: one entry per emitted guard, as
    #: ``(source line index, guarded slot, hot direction)`` — the hot
    #: direction is ``True``/``False`` for a guard whose opposite side
    #: side-exits, ``None`` for a spliced (bridged) two-sided guard.
    #: The AU005 auditor re-derives each guard's expected condition
    #: from the IR and compares it against the emitted source.
    guards: tuple = ()


def record_codegen(program, record: CodegenRecord,
                   key: tuple | None = None) -> None:
    """File one generated artifact in the program's audit log, under
    ``key`` (default ``(kind, start, term, loop_id)``)."""
    log = program.__dict__.get(_AUDIT_LOG_ATTR)
    if log is None:
        log = program.__dict__[_AUDIT_LOG_ATTR] = {}
    if key is None:
        key = (record.kind, record.start, record.term, record.loop_id)
    log[key] = record


def codegen_records(program) -> dict:
    """The program's audit log: cache key -> :class:`CodegenRecord`."""
    log = program.__dict__.get(_AUDIT_LOG_ATTR)
    return {} if log is None else log
