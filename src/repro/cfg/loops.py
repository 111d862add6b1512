"""The loop nesting forest.

The ZOLC supports "an arbitrary combination of loops" (paper §1); this
module recovers that combination from the binary.  The natural loops
come from the shared graph core
(:func:`~repro.cpu.analysis.cfg.natural_loops`: back edges
``tail -> head`` where ``head`` dominates ``tail``, loops sharing a
header merged); on top of them the forest adds what the transform
reads:

* the **nesting** (parent = smallest strictly-containing loop) and
  depth;
* the **latches** (tails of the back edges);
* the **exit edges** (multi-exit loops need ZOLCfull's exit records).

A side entry that lands on the header keeps the loop natural (the
"multiple-entry" structures ZOLCfull's entry records serve); one that
jumps past the header into the body means the header no longer
dominates the latch, so no natural loop forms and the code stays in
software.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.analysis.cfg import CFG, dominators, natural_loops


@dataclass
class NaturalLoop:
    """One natural loop in the nesting forest."""

    id: int
    header: int                        # header block id
    latches: list[int]                 # tails of the back edges
    blocks: frozenset[int]             # header included
    parent: int | None = None          # parent loop id
    children: list[int] = field(default_factory=list)
    depth: int = 1
    exit_edges: list[tuple[int, int]] = field(default_factory=list)

    def is_innermost(self) -> bool:
        return not self.children

    def is_multi_exit(self) -> bool:
        return len(self.exit_edges) > 1


class LoopForest:
    """All natural loops of a CFG, nested."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.idom = dominators(cfg)
        self.loops = [
            NaturalLoop(id=index, header=loop.header,
                        latches=[tail for tail, _ in loop.back_edges],
                        blocks=loop.body)
            for index, loop in enumerate(natural_loops(cfg, self.idom))]
        self._innermost_of_block: dict[int, int] = {}
        self._build_forest()
        for loop in self.loops:
            loop.exit_edges = [
                (block_id, succ) for block_id in sorted(loop.blocks)
                for succ in cfg.blocks[block_id].succs
                if succ not in loop.blocks]

    def _build_forest(self) -> None:
        # Parent = smallest strictly containing loop.
        for loop in self.loops:
            best: NaturalLoop | None = None
            for other in self.loops:
                if other is loop:
                    continue
                if loop.blocks < other.blocks and (
                        best is None
                        or len(other.blocks) < len(best.blocks)):
                    best = other
            if best is not None:
                loop.parent = best.id
                best.children.append(loop.id)
        for loop in self.loops:
            loop.depth = 1 + len(self.ancestors(loop))
        # Innermost loop per block.
        for loop in sorted(self.loops, key=lambda lp: lp.depth):
            for block_id in loop.blocks:
                self._innermost_of_block[block_id] = loop.id

    # -- queries -----------------------------------------------------------
    def innermost_loop_of(self, block_id: int) -> NaturalLoop | None:
        loop_id = self._innermost_of_block.get(block_id)
        return self.loops[loop_id] if loop_id is not None else None

    def roots(self) -> list[NaturalLoop]:
        """Outermost loops, in address order."""
        return [lp for lp in self.loops if lp.parent is None]

    def descendants(self, loop: NaturalLoop) -> list[NaturalLoop]:
        """All loops strictly inside ``loop``."""
        out: list[NaturalLoop] = []
        worklist = list(loop.children)
        while worklist:
            child = self.loops[worklist.pop()]
            out.append(child)
            worklist.extend(child.children)
        return out

    def ancestors(self, loop: NaturalLoop) -> list[NaturalLoop]:
        """Enclosing loops, innermost first."""
        out: list[NaturalLoop] = []
        node = loop
        while node.parent is not None:
            node = self.loops[node.parent]
            out.append(node)
        return out

    def max_depth(self) -> int:
        return max((lp.depth for lp in self.loops), default=0)


def find_loops(cfg: CFG) -> LoopForest:
    """Convenience constructor."""
    return LoopForest(cfg)
