"""Two-pass XR32 assembler.

Pass 1 (*layout*) assigns addresses to every instruction and data item
and builds the symbol table.  Pass 2 (*fixup*) resolves operands —
registers, immediates, ``%hi``/``%lo`` relocations, branch offsets, jump
targets — into :class:`~repro.isa.instructions.Instruction` objects and
validates each by round-tripping through the binary encoder.

The result is a :class:`Program`: the linked image the CPU simulator,
CFG analysis and code transforms all operate on.  An assembled program
keeps the words validation encoded, so loading the image never
re-encodes it; one assembled from source also keeps the parse, which
the code transforms edit instead of re-parsing the source.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass, field

from repro.asm.errors import AsmError
from repro.asm.parser import ParsedModule, SourceInstruction, parse
from repro.isa import Instruction, SPEC_BY_MNEMONIC, encode, register_index
from repro.isa.registers import UnknownRegisterError
from repro.util.bitops import fits_signed, to_unsigned32

TEXT_BASE = 0x0000_0000
DATA_BASE = 0x0001_0000

_RELOC_RE = re.compile(r"^%(hi|lo)\(([^()]+)\)$")
_MEM_RE = re.compile(r"^(?P<off>[^()]*)\((?P<reg>[^()]+)\)$")


@dataclass
class Program:
    """An assembled, linked XR32 program image."""

    instructions: list[Instruction]
    text_base: int = TEXT_BASE
    data: bytearray = field(default_factory=bytearray)
    data_base: int = DATA_BASE
    symbols: dict[str, int] = field(default_factory=dict)
    source: str | None = None
    #: The parse of ``source`` (``None`` unless assembled from source).
    module: ParsedModule | None = field(default=None, repr=False,
                                        compare=False)
    #: The encoded text segment, kept by the assembler.
    _words: list[int] | None = field(default=None, init=False,
                                     repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_address = {
            inst.address: inst for inst in self.instructions
            if inst.address is not None
        }

    @property
    def by_address(self) -> dict[int, Instruction]:
        """Map from byte address to instruction."""
        return self._by_address

    @property
    def text_end(self) -> int:
        """First byte address past the text segment."""
        return self.text_base + 4 * len(self.instructions)

    def entry_point(self) -> int:
        """Execution start address: the ``main`` symbol, else text base."""
        return self.symbols.get("main", self.text_base)

    def words(self) -> list[int]:
        """The encoded text segment."""
        if self._words is not None:
            return list(self._words)
        return [encode(inst) for inst in self.instructions]

    def label_at(self, address: int) -> str | None:
        """A label defined at ``address``, if any (first match)."""
        for name, value in self.symbols.items():
            if value == address:
                return name
        return None


class _Layout:
    """Pass-1 result: addresses for instructions and data, symbol table."""

    def __init__(self, module: ParsedModule, text_base: int, data_base: int):
        self.symbols: dict[str, int] = dict(module.constants)
        self.instruction_addresses: list[int] = []
        address = text_base
        for entry in module.text:
            for label in entry.labels:
                self._define(label, address, entry.instruction.line)
            self.instruction_addresses.append(address)
            address += 4
        self.data_item_offsets: list[int] = []
        offset = 0
        for entry in module.data:
            offset += entry.item.size_bytes(offset) if entry.item.kind == "align" else 0
            for label in entry.labels:
                self._define(label, data_base + offset, entry.item.line)
            self.data_item_offsets.append(offset)
            if entry.item.kind != "align":
                offset += entry.item.size_bytes(offset)
        self.data_size = offset

    def _define(self, label: str, value: int, line: int) -> None:
        if label in self.symbols:
            raise AsmError(f"duplicate symbol {label!r}", line)
        self.symbols[label] = value


def _resolve_value(token: str, symbols: dict[str, int], line: int) -> int:
    """Resolve an integer literal, ``%hi/%lo`` relocation or symbol."""
    token = token.strip()
    match = _RELOC_RE.match(token)
    if match:
        op, symbol = match.groups()
        base = _resolve_value(symbol, symbols, line)
        ubase = to_unsigned32(base)
        return (ubase >> 16) & 0xFFFF if op == "hi" else ubase & 0xFFFF
    with suppress(ValueError):
        return int(token, 0)
    if token in symbols:
        return symbols[token]
    raise AsmError(f"undefined symbol {token!r}", line)


def _operand_error(src: SourceInstruction, detail: str) -> AsmError:
    return AsmError(f"{src.mnemonic}: {detail}", src.line)


def _build_instruction(src: SourceInstruction, address: int,
                       symbols: dict[str, int]) -> Instruction:
    spec = SPEC_BY_MNEMONIC[src.mnemonic]
    if len(src.operands) != len(spec.syntax):
        raise _operand_error(
            src, f"expected {len(spec.syntax)} operand(s) "
                 f"({', '.join(spec.syntax) or 'none'}), got {len(src.operands)}")
    inst = Instruction(src.mnemonic, address=address, source_line=src.line)
    for slot, token in zip(spec.syntax, src.operands):
        if slot in ("rd", "rs", "rt"):
            try:
                setattr(inst, slot, register_index(token))
            except UnknownRegisterError as exc:
                raise _operand_error(src, str(exc)) from exc
        elif slot == "shamt":
            value = _resolve_value(token, symbols, src.line)
            if not 0 <= value < 32:
                raise _operand_error(src, f"shift amount {value} out of range 0..31")
            inst.shamt = value
        elif slot == "imm":
            inst.imm = _resolve_value(token, symbols, src.line)
        elif slot == "mem":
            match = _MEM_RE.match(token.strip())
            if not match:
                raise _operand_error(src, f"expected 'offset(reg)', got {token!r}")
            off_text = match.group("off").strip()
            inst.imm = _resolve_value(off_text, symbols, src.line) if off_text else 0
            try:
                inst.rs = register_index(match.group("reg"))
            except UnknownRegisterError as exc:
                raise _operand_error(src, str(exc)) from exc
        elif slot == "label":
            target = _resolve_value(token, symbols, src.line)
            delta = target - (address + 4)
            if delta % 4:
                raise _operand_error(src, f"branch target {target:#x} not word-aligned")
            offset = delta // 4
            if not fits_signed(offset, 16):
                raise _operand_error(src, f"branch target {target:#x} out of range")
            inst.imm = offset
            inst.label_ref = token if not token.lstrip("+-").isdigit() else None
        elif slot == "target":
            target = _resolve_value(token, symbols, src.line)
            if target % 4:
                raise _operand_error(src, f"jump target {target:#x} not word-aligned")
            inst.target = target // 4
            inst.label_ref = token if not token.lstrip("+-").isdigit() else None
        else:  # pragma: no cover - spec table is static
            raise AssertionError(f"unhandled operand slot {slot!r}")
    return inst


def _emit_data(module: ParsedModule, layout: _Layout,
               symbols: dict[str, int]) -> bytearray:
    data = bytearray(layout.data_size)
    widths = {"word": 4, "half": 2, "byte": 1}
    for entry, offset in zip(module.data, layout.data_item_offsets):
        item = entry.item
        if item.kind in ("align", "space"):
            continue
        width = widths[item.kind]
        for index, token in enumerate(item.values):
            value = _resolve_value(token, symbols, item.line)
            lo = -(1 << (8 * width - 1))
            hi = (1 << (8 * width)) - 1
            if not lo <= value <= hi:
                raise AsmError(
                    f".{item.kind} value {value} out of range", item.line)
            value &= (1 << (8 * width)) - 1
            start = offset + index * width
            data[start:start + width] = value.to_bytes(width, "little")
    return data


def assemble(source: str, text_base: int = TEXT_BASE,
             data_base: int = DATA_BASE) -> Program:
    """Assemble XR32 source text into a :class:`Program`."""
    module = parse(source)
    program = assemble_module(module, text_base, data_base)
    program.source = source
    program.module = module
    return program


def assemble_module(module: ParsedModule, text_base: int = TEXT_BASE,
                    data_base: int = DATA_BASE) -> Program:
    """Assemble an already-parsed (possibly transformed) module.

    The code transforms edit a :class:`~repro.asm.parser.ParsedModule`
    in place (deleting loop overhead, splicing in ZOLC initialization
    sequences) and re-assemble it through this entry point.
    """
    layout = _Layout(module, text_base, data_base)
    instructions: list[Instruction] = []
    words: list[int] = []
    for entry, address in zip(module.text, layout.instruction_addresses):
        inst = _build_instruction(entry.instruction, address, layout.symbols)
        try:
            words.append(encode(inst))  # validates field ranges
        except ValueError as exc:
            raise AsmError(str(exc), entry.instruction.line) from exc
        instructions.append(inst)
    data = _emit_data(module, layout, layout.symbols)
    program = Program(
        instructions=instructions,
        text_base=text_base,
        data=data,
        data_base=data_base,
        symbols=layout.symbols,
        source=None,
    )
    program._words = words
    return program
