"""The control-flow graph core: blocks, dominators and natural loops.

Both control-flow views of a program are built here.  A text image is
an array of slots (slot ``i`` is the word at ``base + 4 * i``); a
*front* names the leaders and the successors of each slot, and
:func:`carve` cuts the slots into basic blocks and wires the edges.
:func:`reverse_postorder`, :func:`dominators`, :func:`dominates` and
:func:`natural_loops` then work on any graph, whichever front built it.

There are two fronts:

* the **Instruction front**, :func:`repro.cfg.build_cfg`, over an
  assembled program before the ZOLC transform — the loop structure the
  transform recognises;
* the **IR front**, :func:`build_cfg` below, over the engine's
  :class:`~repro.cpu.ir.IROp` array after it — the instruction stream
  the hardware actually retires, which the verifier and the traced
  tier's loop discovery read.

IR-front block boundaries.  A slot starts a new block (is a *leader*)
when it is the text start, the program entry point, the static target
of a branch or jump, the slot after a span break
(:func:`~repro.cpu.ir.span_breaks`: a control transfer, an ``mtz`` to
``CTRL_ARM``, or a ``CTRL_RESET`` that does not run on into an arm —
the port accesses that can change the controller's armed state), or an
address the ZOLC controller watches (trigger or entry-target next-pc
watch) — watch addresses are reached by *fall-through* after the
transform deletes the loop latch, so they are never natural leaders
and must be forced.

IR-front edges.  Conditional branches and ``dbne`` get taken +
fall-through successors; ``j``/``jal`` get the target only; ``jr``/
``jalr`` have no static successors (the block is marked
``has_indirect``); ``halt`` has none.  When a ``trigger_edges`` map is
supplied (trigger pc → loop body pc), every edge *arriving* at a
trigger block also gets a redirect edge to the loop body — this
reinstates the back-edge the ZOLC transform deleted with the latch
branch, so natural-loop detection recovers the zero-overhead loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.cpu.ir import IROp, span_breaks

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Mapping, Sequence


class Block(NamedTuple):
    """One basic block: slots ``[start, end]`` inclusive."""

    bid: int
    start: int                  # first slot index
    end: int                    # last slot index (inclusive)
    succs: tuple[int, ...]      # successor block ids, ascending
    preds: tuple[int, ...]      # predecessor block ids, ascending
    has_indirect: bool          # ends in jr/jalr: successors unknown


class CFG(NamedTuple):
    """The control-flow graph of one text image."""

    base: int                       # text base address
    blocks: tuple[Block, ...]       # in address order
    block_of_slot: tuple[int, ...]  # slot index -> block id
    entry: int                      # entry block id

    def slot_of(self, pc: int) -> int | None:
        """Text slot of an address, or ``None`` if outside the image."""
        offset = pc - self.base
        if offset < 0 or offset % 4 or offset // 4 >= len(
                self.block_of_slot):
            return None
        return offset // 4

    def pc_of(self, slot: int) -> int:
        """Address of a text slot."""
        return self.base + 4 * slot

    def block_at(self, pc: int) -> Block | None:
        """The block containing ``pc``, or ``None`` if out of text."""
        slot = self.slot_of(pc)
        if slot is None:
            return None
        return self.blocks[self.block_of_slot[slot]]

    def is_leader(self, pc: int) -> bool:
        """True when ``pc`` is the first address of a basic block."""
        block = self.block_at(pc)
        return block is not None and self.pc_of(block.start) == pc


def carve(base: int, n: int, entry_pc: int | None, leader_pcs: Iterable[int],
          successor_pcs: Callable[[int], tuple[Iterable[int], bool]]) -> CFG:
    """Cut ``n`` text slots into blocks and wire their edges.

    The text start and the entry are always leaders; ``leader_pcs`` adds
    the rest.  ``successor_pcs(slot)`` gives the static successor
    addresses of a block ending at ``slot`` and whether it ends in an
    indirect jump.  Addresses outside the image are dropped; an entry
    outside it falls back to the text start.
    """
    if n == 0:
        raise ValueError("cannot build a CFG over an empty text image")

    def slot_of(pc: int) -> int | None:
        offset = pc - base
        if offset < 0 or offset % 4 or offset // 4 >= n:
            return None
        return offset // 4

    entry_slot = slot_of(entry_pc) if entry_pc is not None else None
    if entry_slot is None:
        entry_slot = 0
    leaders = {0, entry_slot}
    for pc in leader_pcs:
        slot = slot_of(pc)
        if slot is not None:
            leaders.add(slot)

    starts = sorted(leaders)
    ends = [start - 1 for start in starts[1:]] + [n - 1]
    block_of_slot: list[int] = []
    for bid, (start, end) in enumerate(zip(starts, ends)):
        block_of_slot.extend([bid] * (end - start + 1))

    succ_sets: list[set[int]] = []
    indirect: list[bool] = []
    for end in ends:
        pcs, has_indirect = successor_pcs(end)
        succ_sets.append({block_of_slot[slot] for slot in map(slot_of, pcs)
                          if slot is not None})
        indirect.append(has_indirect)
    pred_sets: list[set[int]] = [set() for _ in starts]
    for bid, succs in enumerate(succ_sets):
        for succ in succs:
            pred_sets[succ].add(bid)

    blocks = tuple(
        Block(bid=bid, start=start, end=end,
              succs=tuple(sorted(succ_sets[bid])),
              preds=tuple(sorted(pred_sets[bid])),
              has_indirect=indirect[bid])
        for bid, (start, end) in enumerate(zip(starts, ends)))
    return CFG(base=base, blocks=blocks, block_of_slot=tuple(block_of_slot),
               entry=block_of_slot[entry_slot])


def build_cfg(ir: Sequence[IROp], base: int, entry_pc: int | None = None,
              watch_pcs: Iterable[int] = (),
              trigger_edges: Mapping[int, int] | None = None) -> CFG:
    """The IR front: the CFG of an IR array.

    ``watch_pcs`` are forced leaders (ZOLC trigger/entry watch
    addresses plus loop body entries); ``trigger_edges`` maps trigger
    pcs to loop body pcs and adds the controller's loop-back redirect
    edges (see module docstring).
    """
    triggers = dict(trigger_edges) if trigger_edges else {}
    text_end = base + 4 * len(ir)
    watched = frozenset(watch_pcs)
    leaders = [*watched, *triggers, *triggers.values()]
    # The slot after every span break leads a block, so each
    # straight-line span the engine fuses ends at a block boundary.
    for op, reason in zip(ir, span_breaks(ir, base, watched)):
        if op.target is not None:
            leaders.append(op.target)
        if reason is not None:
            leaders.append(op.link)

    def successor_pcs(slot: int) -> tuple[list[int], bool]:
        op = ir[slot]
        if op.mnemonic in ("jr", "jalr"):
            return [], True
        if op.mnemonic == "halt":
            return [], False
        pcs: list[int] = []
        if op.target is not None:
            pcs.append(op.target)
        if op.is_branch or not op.can_transfer:
            pcs.append(op.link)       # fall-through / not-taken path
        # The controller redirects arrival at a trigger back to the
        # loop body while iterations remain.
        return pcs + [triggers[pc] for pc in pcs
                      if pc in triggers and base <= pc < text_end], False

    return carve(base, len(ir), entry_pc, leaders, successor_pcs)


def reverse_postorder(cfg: CFG) -> list[int]:
    """Reachable block ids in reverse postorder from the entry."""
    seen: set[int] = {cfg.entry}
    order: list[int] = []
    stack: list[tuple[int, int]] = [(cfg.entry, 0)]
    while stack:
        bid, i = stack[-1]
        succs = cfg.blocks[bid].succs
        if i < len(succs):
            stack[-1] = (bid, i + 1)
            nxt = succs[i]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            stack.pop()
            order.append(bid)
    order.reverse()
    return order


def dominators(cfg: CFG) -> tuple[int | None, ...]:
    """Immediate dominator per block (Cooper–Harvey–Kennedy iterative).

    The entry block's idom is itself; unreachable blocks get ``None``.
    """
    rpo = reverse_postorder(cfg)
    position = {bid: i for i, bid in enumerate(rpo)}
    idom: list[int | None] = [None] * len(cfg.blocks)
    idom[cfg.entry] = cfg.entry

    def intersect(a: int, b: int) -> int:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]  # type: ignore[assignment]
            while position[b] > position[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for bid in rpo:
            if bid == cfg.entry:
                continue
            new_idom: int | None = None
            for pred in cfg.blocks[bid].preds:
                if idom[pred] is not None:
                    new_idom = (pred if new_idom is None
                                else intersect(pred, new_idom))
            if new_idom is not None and idom[bid] != new_idom:
                idom[bid] = new_idom
                changed = True
    return tuple(idom)


def dominates(idom: Sequence[int | None], a: int, b: int) -> bool:
    """True when block ``a`` dominates block ``b`` (reflexive)."""
    node: int | None = b
    while node is not None:
        if node == a:
            return True
        parent = idom[node]
        if parent == node:
            return False
        node = parent
    return False


class Loop(NamedTuple):
    """One natural loop: the header block and every body block."""

    header: int                         # header block id
    body: frozenset[int]                # block ids, header included
    back_edges: tuple[tuple[int, int], ...]  # (latch, header) pairs


def natural_loops(cfg: CFG,
                  idom: Sequence[int | None] | None = None) -> (
                      tuple[Loop, ...]):
    """Natural loops from back edges (``u -> h`` with ``h`` dom ``u``).

    Loops sharing a header are merged, following the classic
    construction; returned in ascending header order.  A retreating
    edge into a loop that bypasses its header (an irreducible side
    entry) is no back edge, so such a cycle yields no loop.
    """
    if idom is None:
        idom = dominators(cfg)
    bodies: dict[int, set[int]] = {}
    edges: dict[int, list[tuple[int, int]]] = {}
    for block in cfg.blocks:
        if idom[block.bid] is None:
            continue
        for succ in block.succs:
            if not dominates(idom, succ, block.bid):
                continue
            body = bodies.setdefault(succ, {succ})
            edges.setdefault(succ, []).append((block.bid, succ))
            stack = [block.bid]
            while stack:
                node = stack.pop()
                if node in body:
                    continue
                body.add(node)
                stack.extend(cfg.blocks[node].preds)
    return tuple(
        Loop(header=header, body=frozenset(bodies[header]),
             back_edges=tuple(sorted(edges[header])))
        for header in sorted(bodies))
