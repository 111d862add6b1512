"""The Instruction front of the control-flow graph core.

:func:`build_cfg` builds the pre-transform CFG of an assembled
:class:`~repro.asm.Program` on the shared core
(:mod:`repro.cpu.analysis.cfg`), one slot per instruction:

* *leaders* are the entry point, every branch/jump target and every
  instruction following a control transfer;
* ``jal`` (call) is treated as a straight-line instruction whose
  successor is the return point — callee bodies are analysed separately
  (the loop transforms refuse loops containing calls, see
  :mod:`repro.transform.legality`);
* ``jr``/``jalr`` and ``halt`` terminate a block with no static
  successors.

Only blocks reachable from the entry point participate in dominator and
loop analysis.
"""

from __future__ import annotations

from repro.asm.assembler import Program
from repro.cpu.analysis.cfg import CFG, carve


def build_cfg(program: Program) -> CFG:
    """The CFG of an assembled program, before any transform."""
    instructions = program.instructions
    leaders: list[int] = []
    for inst in instructions:
        assert inst.address is not None
        if inst.is_branch() or inst.mnemonic == "j":
            leaders.append(inst.branch_target_address())
        if inst.is_control_flow():
            leaders.append(inst.address + 4)

    def successor_pcs(slot: int) -> tuple[list[int], bool]:
        inst = instructions[slot]
        if inst.mnemonic in ("jr", "jalr"):
            return [], True
        if inst.mnemonic == "halt":
            return [], False
        next_pc = program.text_base + 4 * (slot + 1)
        if inst.mnemonic == "j":
            return [inst.branch_target_address()], False
        if inst.is_branch():
            return [inst.branch_target_address(), next_pc], False
        return [next_pc], False      # fall-through, including jal

    return carve(program.text_base, len(instructions), program.entry_point(),
                 leaders, successor_pcs)
