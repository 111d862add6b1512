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
from repro.isa.instructions import Category, Instruction

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
    is_zolc_init: bool          # mtz/mfz: may change ZOLC port state
    can_transfer: bool          # may return a control transfer
    #: Which PipelineConfig penalty a taken transfer pays:
    #: "hwloop" (dbne), "jump_register" (jr/jalr), "branch" (the rest).
    penalty_kind: str
    defs: frozenset[int]        # registers written (r0 excluded)
    reads: tuple[int, ...]      # raw operand reads (r0 kept, ISA order)


class SliceableOp(Protocol):
    """The two flags :func:`straightline_terms` consumes per record.

    Both :class:`IROp` arrays and the predecoded ``OpMeta`` arrays
    satisfy it, so every codegen tier slices identically.
    """

    @property
    def can_transfer(self) -> bool: ...

    @property
    def is_zolc_init(self) -> bool: ...


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
        defs=inst.defs(), reads=reads)


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


def straightline_terms(
        ops: Sequence[SliceableOp] | None, base: int,
        watched_next: Container[int]) -> list[int | None]:
    """Partition an op array into straight-line span terminators.

    The one region-slicing scan every codegen tier shares.  Returns a
    per-slot list: ``None`` for slots that cannot begin a span of at
    least two instructions, else the terminator slot index.  A slot is
    *interior-unsafe* (it must terminate any span that reaches it) when
    it can transfer control, is ``mtz``/``mfz``, or its sequential next
    pc is in ``watched_next`` (a ZOLC trigger or entry target under the
    current plan); spans never extend past the end of the text image.

    ``ops`` needs only ``can_transfer`` / ``is_zolc_init`` per record,
    so both :class:`IROp` arrays and the predecoded ``OpMeta`` arrays
    slice identically.  Passing the ``None`` "no IR" sentinel is a
    caller bug and raises :class:`SimulationError` — resolve it via
    :func:`build_ir` / :func:`ir_failure` first.
    """
    if ops is None:
        raise SimulationError(
            "cannot slice straight-line spans: program has no IR")
    n = len(ops)
    terms: list[int | None] = [None] * n
    first_unsafe = n
    for j in range(n - 1, -1, -1):
        op = ops[j]
        if (op.can_transfer or op.is_zolc_init
                or base + 4 * j + 4 in watched_next):
            first_unsafe = j
        term = first_unsafe if first_unsafe < n else n - 1
        if term > j:
            terms[j] = term
    return terms
