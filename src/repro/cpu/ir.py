"""A flat, explicit IR for decoded XR32 instructions.

Every execution tier used to re-derive the same facts straight from
:class:`~repro.isa.instructions.Instruction` — operand fields, absolute
control-transfer targets, register-use sets, load destinations, timing
categories — each in its own translator.  This module decodes them
*once* into :class:`IROp` records (one per text slot), and the engine
package's tiers (:mod:`repro.cpu.engine`) become lowering passes over
that array:

* the per-slot tier lowers each ``IROp`` to a bound handler closure;
* the traced/loop-resident tiers lower region spans to generated
  Python text through the shared emitter (:mod:`repro.cpu.engine.emit`).

The contract (see DESIGN.md §10): a lowering pass may consume **only**
``IROp`` fields plus the config-dependent helpers below; it never
reaches back into :class:`Instruction`.  The IR is pure decoded fact —
anything that depends on a :class:`~repro.cpu.pipeline.PipelineConfig`
(cycle counts, penalties) stays out of the record and is derived per
simulator via :func:`op_base_cycles` / :func:`op_taken_penalty`, so one
IR serves every machine/pipeline sharing the program.

The array is cached on the :class:`~repro.asm.assembler.Program` object
(the IR depends only on the instruction stream), mirroring the region-
and chain-code caches.  A program that *cannot* be decoded — a sparse
text image, or a mnemonic outside the ISA tables — caches a single
:class:`IRUnavailable` sentinel carrying the reason; :func:`build_ir`
returns ``None`` for it and :func:`ir_failure` surfaces the reason, so
every caller sees one consistent "no IR" signal instead of the old mix
of cached ``None`` (non-dense) and per-call exceptions (undecodable).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Protocol

from repro.cpu.exceptions import SimulationError
from repro.isa.instructions import (
    CTRL_ARM,
    CTRL_RESET,
    Category,
    Instruction,
)

if TYPE_CHECKING:
    from collections.abc import Container, Sequence

    from repro.asm.assembler import Program
    from repro.cpu.pipeline import PipelineConfig

#: Attribute name the per-program IR cache lives under.  The cached
#: value is either the IROp tuple or an :class:`IRUnavailable` sentinel
#: ("this program has no IR, and here is why"); presence is tested with
#: ``in``, not ``get``.
_IR_CACHE_ATTR = "_engine_ir"


class IRUnavailable:
    """Cache sentinel: the program has no IR.

    Stored in the per-program cache so repeated :func:`build_ir` calls
    neither re-scan the text image nor re-raise decode errors; the
    human-readable reason is what :func:`ir_failure` reports.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:
        return f"IRUnavailable({self.reason!r})"


class IROp(NamedTuple):
    """One decoded instruction: everything a lowering pass may consume.

    Fields are plain decoded facts — no simulator, pipeline or
    controller state.  ``target`` is the *absolute byte address* of the
    taken destination for pc-relative branches / ``dbne``
    (``address + 4 + 4*imm``) and absolute jumps (``inst.target * 4``),
    ``None`` for everything else; ``link`` is ``address + 4`` (the
    ``jal``/``jalr`` link value and the sequential next pc).

    ``uses``/``defs`` are the dataflow-facing sets (r0 excluded on both
    sides — it is not writable state).  ``reads`` is the *raw* operand
    read list in ISA field order, r0 **included** and duplicates kept:
    the emitter materialises exactly these operand reads (``_g[0]``
    appears in generated source when rs/rt is r0), so the generated-code
    auditor compares against ``reads``, not ``uses``.
    """

    index: int                  # text slot: (address - text_base) >> 2
    address: int
    mnemonic: str
    category_key: str           # Category.value, for stats aggregation
    rd: int
    rs: int
    rt: int
    shamt: int
    imm: int
    target: int | None          # absolute taken target, if static
    link: int                   # address + 4
    uses: frozenset[int]        # registers read (r0 excluded)
    load_dest: int | None       # load destination register, if any
    is_branch: bool             # conditional pc-relative (incl. dbne)
    is_mul: bool                # Category.MUL: pays mul_extra_cycles
    is_zolc_init: bool          # mtz/mfz: touches the ZOLC port
    can_transfer: bool          # may return a control transfer
    #: Which PipelineConfig penalty a taken transfer pays:
    #: "hwloop" (dbne), "jump_register" (jr/jalr), "branch" (the rest).
    penalty_kind: str
    defs: frozenset[int]        # registers written (r0 excluded)
    reads: tuple[int, ...]      # raw operand reads (r0 kept, ISA order)
    #: :data:`ZOLC_ARM` for an ``mtz`` to ``CTRL_ARM``,
    #: :data:`ZOLC_RESET` for one to ``CTRL_RESET``, else ``None``: the
    #: only port accesses that can change the controller's armed state
    #: or watch sets, so the only ones that end a straight-line span.
    zolc_ctrl: str | None


#: :attr:`IROp.zolc_ctrl` values.
ZOLC_ARM = "arm"
ZOLC_RESET = "reset"


class SliceableOp(Protocol):
    """The two fields :func:`span_breaks` consumes per record.

    Both :class:`IROp` arrays and the predecoded ``OpMeta`` arrays
    satisfy it, so every codegen tier slices identically.
    """

    @property
    def can_transfer(self) -> bool: ...

    @property
    def zolc_ctrl(self) -> str | None: ...


def ir_op_from_instruction(inst: Instruction, address: int,
                           index: int = 0) -> IROp:
    """Decode one instruction into its :class:`IROp` record.

    Raises :class:`SimulationError` for mnemonics outside the ISA
    tables — the same "fall back to the stepped interpreter" signal
    the predecoder has always produced.
    """
    try:
        category = inst.category
    except KeyError:
        raise SimulationError(
            f"no predecoder for mnemonic {inst.mnemonic!r}") from None
    mnemonic = inst.mnemonic
    is_branch = inst.is_branch()
    if is_branch:
        target: int | None = address + 4 + 4 * inst.imm
    elif mnemonic in ("j", "jal"):
        target = inst.target * 4
    else:
        target = None
    if mnemonic == "dbne":
        penalty_kind = "hwloop"
    elif mnemonic in ("jr", "jalr"):
        penalty_kind = "jump_register"
    else:
        penalty_kind = "branch"
    load_dest = (inst.rt if category is Category.LOAD and inst.rt
                 else None)
    can_transfer = (is_branch or category is Category.JUMP
                    or mnemonic == "halt")
    reads = tuple(31 if field == "ra" else int(getattr(inst, field))
                  for field in inst.spec.reads)
    zolc_ctrl: str | None = None
    if mnemonic == "mtz":
        if inst.imm == CTRL_ARM:
            zolc_ctrl = ZOLC_ARM
        elif inst.imm == CTRL_RESET:
            zolc_ctrl = ZOLC_RESET
    return IROp(
        index=index, address=address, mnemonic=mnemonic,
        category_key=category.value,
        rd=inst.rd, rs=inst.rs, rt=inst.rt,
        shamt=inst.shamt, imm=inst.imm,
        target=target, link=address + 4,
        uses=inst.uses(), load_dest=load_dest,
        is_branch=is_branch, is_mul=category is Category.MUL,
        is_zolc_init=category is Category.ZOLC,
        can_transfer=can_transfer, penalty_kind=penalty_kind,
        defs=inst.defs(), reads=reads, zolc_ctrl=zolc_ctrl)


def build_ir(program: Program) -> tuple[IROp, ...] | None:
    """The program's IR array, built once and cached on the program.

    Returns ``None`` when the program has no IR: the text image is not
    a dense run of words starting at ``text_base`` (the same "cannot
    predecode" contract as :func:`repro.cpu.engine.predecode` — the
    assembler never produces such images, but hand-built programs fall
    back to stepping), or an instruction's mnemonic is outside the ISA
    tables.  Both outcomes cache an :class:`IRUnavailable` sentinel;
    :func:`ir_failure` reports the reason.
    """
    cache = program.__dict__
    if _IR_CACHE_ATTR in cache:
        cached = cache[_IR_CACHE_ATTR]
        if isinstance(cached, IRUnavailable):
            return None
        result: tuple[IROp, ...] | None = cached
        return result
    base = program.text_base
    ops: list[IROp] = []
    failure: IRUnavailable | None = None
    for i, inst in enumerate(program.instructions):
        address = base + 4 * i
        if inst.address != address:
            failure = IRUnavailable(
                "text image is not a dense run of words starting at "
                f"text_base (slot {i} at {hex(inst.address)} "
                f"!= {hex(address)})" if inst.address is not None else
                "text image is not a dense run of words starting at "
                f"text_base (slot {i} has no address)")
            break
        try:
            ops.append(ir_op_from_instruction(inst, address, index=i))
        except SimulationError as exc:
            failure = IRUnavailable(str(exc))
            break
    if failure is not None:
        cache[_IR_CACHE_ATTR] = failure
        return None
    result = tuple(ops)
    cache[_IR_CACHE_ATTR] = result
    return result


def ir_failure(program: Program) -> str | None:
    """Why the program has no IR, or ``None`` if it does (or might).

    Only meaningful after a :func:`build_ir` call; an uncached program
    reports ``None``.
    """
    cached = program.__dict__.get(_IR_CACHE_ATTR)
    if isinstance(cached, IRUnavailable):
        return cached.reason
    return None


def op_base_cycles(op: IROp, config: PipelineConfig) -> int:
    """Base retirement cycles for one op under a pipeline config."""
    return 1 + (config.mul_extra_cycles if op.is_mul else 0)


def op_taken_penalty(op: IROp, config: PipelineConfig) -> int:
    """Flush cycles a *taken* transfer through this op pays."""
    if op.penalty_kind == "hwloop":
        return int(config.hwloop_penalty)
    if op.penalty_kind == "jump_register":
        return int(config.jump_register_penalty)
    return int(config.branch_penalty)


def span_breaks(ops: Sequence[SliceableOp] | None, base: int,
                watched_next: Container[int]) -> list[str | None]:
    """Why each slot must end any straight-line span that reaches it.

    The one span-ending predicate: the slicer, the verifier (ZV001),
    the audit's span cover and the IR-front CFG carver all read it.
    Per slot, ``None`` when the slot may sit inside a span, else the
    reason:

    * ``"transfer"`` — it can transfer control;
    * ``"arm"`` — an ``mtz`` to ``CTRL_ARM``: its retirement delivers
      the arm-time index writes and changes the watch sets;
    * ``"watch"`` — its sequential next pc is in ``watched_next`` (a
      ZOLC trigger or entry target under the current plan);
    * ``"reset"`` — an ``mtz`` to ``CTRL_RESET`` whose next break is
      not an arm.  A reset whose span runs on into an arm stays
      inside it: the slots between retire on an unarmed, inactive
      port, so the whole ``reset … writes … arm`` preheader is one
      span that re-queries the plan once, after the arm.

    Table writes and ``mfz`` never break a span: a table field is read
    live at fire time, so writing one changes no watch set.  Passing
    the ``None`` "no IR" sentinel is a caller bug and raises
    :class:`SimulationError` — resolve it via :func:`build_ir` /
    :func:`ir_failure` first.
    """
    if ops is None:
        raise SimulationError(
            "cannot slice straight-line spans: program has no IR")
    n = len(ops)
    breaks: list[str | None] = [None] * n
    next_break: str | None = None
    for j in range(n - 1, -1, -1):
        op = ops[j]
        ctrl = op.zolc_ctrl
        if op.can_transfer:
            reason: str | None = "transfer"
        elif ctrl == ZOLC_ARM:
            reason = "arm"
        elif base + 4 * j + 4 in watched_next:
            reason = "watch"
        elif ctrl == ZOLC_RESET and next_break != "arm":
            reason = "reset"
        else:
            reason = None
        if reason is not None:
            breaks[j] = next_break = reason
    return breaks


def straightline_terms(
        ops: Sequence[SliceableOp] | None, base: int,
        watched_next: Container[int]) -> list[int | None]:
    """Partition an op array into straight-line span terminators.

    The one region-slicing scan every codegen tier shares.  Returns a
    per-slot list: ``None`` for slots that cannot begin a span of at
    least two instructions, else the terminator slot index — the first
    slot at or after it that :func:`span_breaks` marks, or the last
    slot of the text image (spans never extend past its end).
    """
    breaks = span_breaks(ops, base, watched_next)
    n = len(breaks)
    terms: list[int | None] = [None] * n
    term = n - 1
    for j in range(n - 1, -1, -1):
        if breaks[j] is not None:
            term = j
        if term > j:
            terms[j] = term
    return terms
