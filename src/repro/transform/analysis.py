"""Lightweight dataflow queries used by the loop rewrites.

These are deliberately conservative: every helper errs on the side of
"might be used", which can only make a transform *refuse* a loop, never
break one.
"""

from __future__ import annotations

from repro.asm.assembler import Program
from repro.cfg.loops import NaturalLoop
from repro.cpu.analysis.cfg import CFG
from repro.isa.instructions import Instruction


def index_of_address(program: Program, address: int) -> int:
    """Instruction index for a text address."""
    offset = address - program.text_base
    if offset % 4 or not 0 <= offset < 4 * len(program.instructions):
        raise ValueError(f"address {address:#x} is not in the text segment")
    return offset // 4


def block_indices(cfg: CFG, block_id: int) -> range:
    """Indices of the instructions of one block."""
    block = cfg.blocks[block_id]
    return range(block.start, block.end + 1)


def loop_instruction_indices(cfg: CFG, loop: NaturalLoop) -> list[int]:
    """Indices of every instruction inside ``loop``, ascending."""
    return sorted(index for block_id in loop.blocks
                  for index in block_indices(cfg, block_id))


def reg_read_in(program: Program, indices: list[int], reg: int,
                exclude: frozenset[int] = frozenset()) -> bool:
    """Whether ``reg`` is read by any instruction at ``indices``."""
    for index in indices:
        if index in exclude:
            continue
        if reg in program.instructions[index].uses():
            return True
    return False


def reg_written_in(program: Program, indices: list[int], reg: int,
                   exclude: frozenset[int] = frozenset()) -> bool:
    """Whether ``reg`` is written by any instruction at ``indices``."""
    for index in indices:
        if index in exclude:
            continue
        if reg in program.instructions[index].defs():
            return True
    return False


def is_dead_at_exits(program: Program, cfg: CFG,
                     loop: NaturalLoop, reg: int) -> bool:
    """Whether ``reg`` holds no live value at every loop exit.

    Walks forward from each exit target; a read before a write along any
    path means the register is live (conservatively including cycles).
    """
    return all(dead_from_block(program, cfg, exit_block, reg)
               for _, exit_block in loop.exit_edges)


def dead_from_block(program: Program, cfg: CFG,
                    start: int, reg: int) -> bool:
    visited: set[int] = set()
    worklist = [start]
    while worklist:
        block_id = worklist.pop()
        if block_id in visited:
            continue
        visited.add(block_id)
        block = cfg.blocks[block_id]
        verdict = _scan_block(
            program.instructions[block.start:block.end + 1], reg)
        if verdict == "read":
            return False
        if verdict == "written":
            continue
        worklist.extend(block.succs)
    return True


def _scan_block(instructions: list[Instruction], reg: int) -> str:
    """First event for ``reg`` in a block: 'read', 'written' or 'none'."""
    for inst in instructions:
        if reg in inst.uses():
            return "read"
        if reg in inst.defs():
            return "written"
    return "none"


def contains_call_or_indirect(program: Program, indices: list[int]) -> bool:
    """Whether any instruction is a call / indirect jump (untransformable)."""
    return any(program.instructions[index].mnemonic
               in ("jal", "jalr", "jr") for index in indices)
