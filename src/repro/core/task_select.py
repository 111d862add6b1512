"""Task selection unit — the decision logic at every task end.

Paper, Section 2: "On completion of a task, a task end signal is issued
from PC decode, and an entry is selected from the LUT to address the
succeeding task and the loop parameter blocks, based on which task has
completed and the current loop status."

In this behavioural model the "task end signal" is the fetch of a
*trigger address* (the address where a loop's removed latch used to
live).  The decision for the innermost loop may **cascade** into its
parent when the loop expires and no code separates the inner loop's end
from the parent's latch — this is how "successive last iterations of
nested loops" complete in a single task switch, generalising the
perfect-nest-only unit of Talla et al. [2] to arbitrary structures.

The unit is purely combinational in hardware.  Here it exists twice:

* :meth:`TaskSelectionUnit.decide` is the interpreter — a pure function
  over the tables plus the per-loop iteration counters, returning a
  :class:`Decision`.  The stepped engine (``on_retire``) calls it on
  every task end, so it stays the independent reference the engines
  are compared against.
* :meth:`TaskSelectionUnit.lower` compiles one trigger loop's decision,
  at arm time, into a plain closure — the LUT entry.  The closure is
  specialised on what cannot change while armed: the loop's valid
  descendants, its cascade chain (parents), every index register
  involved, and their validity.  It reads ``trips``, ``initial``,
  ``step`` and ``body_pc`` live, because a bound-reload ``mtz`` stream
  rewrites them after the arm.  Called as ``fn(regs)`` on the raw
  register list, it performs exactly what :meth:`decide` plus the
  engine's write-back would: status updates and index-register writes
  (``r0`` skipped, masked to 32 bits) in :meth:`decide`'s order, then
  returns the next pc (``None`` on expiry).  A loop-back allocates
  nothing.  The controller (:mod:`repro.core.controller`) owns the
  fire-level effects the closure also performs — the ``task_switches``
  and ``extra_index_writes`` counters and the single-shot disarm — and
  the rule for when a loop gets no compiled closure (see
  :mod:`repro.core.compiled`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.index_unit import index_value
from repro.core.tables import FLAG_CASCADE, FLAG_VALID, NO_PARENT, ZolcTables
from repro.cpu.exceptions import ZolcFaultError
from repro.isa.registers import NUM_REGISTERS
from repro.util.bitops import MASK32


@dataclass(slots=True)
class LoopStatus:
    """Runtime status of one loop (the paper's "loop status" word)."""

    iterations_done: int = 0

    def reset(self) -> None:
        self.iterations_done = 0


@dataclass(slots=True)
class Decision:
    """Outcome of one task-end decision."""

    next_pc: int | None                  # None = fall through to next code
    index_writes: list[tuple[int, int]] = field(default_factory=list)
    expired_loops: list[int] = field(default_factory=list)
    looped_back: int | None = None       # loop id that re-iterates


class TaskSelectionUnit:
    """Combinational next-task selection over programmed tables."""

    def __init__(self, tables: ZolcTables):
        self.tables = tables
        self._depth_limit = tables.config.max_loops
        self.status: list[LoopStatus] = [
            LoopStatus() for _ in range(tables.config.max_loops)]
        self._children: dict[int, list[int]] = {}
        # Transitive descendants, frozen at prepare() time — the loop
        # structure cannot change while armed, and decide() consults
        # this on every loop-back, so the worklist walk is paid once
        # per arm instead of once per task switch.
        self._desc: dict[int, tuple[int, ...]] = {}

    def prepare(self) -> None:
        """Precompute the loop-children map; call at arm time."""
        self._children = {i: [] for i in range(len(self.tables.loops))}
        for loop_id in self.tables.valid_loops():
            parent = self.tables.loops[loop_id].parent
            if parent != NO_PARENT:
                self._children[parent].append(loop_id)
        self._desc = {i: tuple(self._walk_descendants(i))
                      for i in self._children}
        self.reset_status()

    def reset_status(self) -> None:
        """Zero every loop's iteration progress (arm / re-arm)."""
        for stat in self.status:
            stat.iterations_done = 0

    def _walk_descendants(self, loop_id: int) -> list[int]:
        # The visited set makes the walk total even on a malformed
        # parent cycle (prepare() walks every loop eagerly; the cycle
        # itself is still rejected by decide()'s cascade-depth guard).
        out: list[int] = []
        seen: set[int] = set()
        worklist = list(self._children.get(loop_id, ()))
        while worklist:
            child = worklist.pop()
            if child in seen:
                continue
            seen.add(child)
            out.append(child)
            worklist.extend(self._children.get(child, ()))
        return out

    def initial_index_writes(self) -> list[tuple[int, int]]:
        """Register writes performed when the controller arms."""
        writes: list[tuple[int, int]] = []
        for loop_id in self.tables.valid_loops():
            record = self.tables.loops[loop_id]
            writes.append((record.index_reg, record.initial & 0xFFFFFFFF))
        return writes

    def decide(self, loop_id: int, depth: int = 0) -> Decision:
        """Run the task-end decision for ``loop_id`` (with cascading).

        This is the hottest controller path — one call per task switch,
        from every engine — so the loop-back arm stays allocation-lean:
        the index computation is :func:`index_value` inlined (the same
        ``initial + k·step mod 2**32``), and the validity probe reads
        the flags field directly rather than through the property.
        """
        if depth > self._depth_limit:
            raise ZolcFaultError("cascade cycle in loop tables")
        record = self.tables.loops[loop_id]
        if not record.flags & FLAG_VALID:
            raise ZolcFaultError(f"decision for invalid loop {loop_id}")
        stat = self.status[loop_id]
        done = stat.iterations_done + 1
        stat.iterations_done = done
        if done < record.trips:
            # Loop back: update this loop's index, re-initialise any
            # descendants that will re-execute.
            writes = [(record.index_reg,
                       (record.initial + done * record.step) & MASK32)]
            desc = self._desc.get(loop_id)
            if desc is None:               # decide() before prepare()
                desc = self._walk_descendants(loop_id)
            for child_id in desc:
                child = self.tables.loops[child_id]
                if not child.flags & FLAG_VALID:
                    continue
                self.status[child_id].iterations_done = 0
                writes.append((child.index_reg, child.initial & 0xFFFFFFFF))
            return Decision(next_pc=record.body_pc, index_writes=writes,
                            looped_back=loop_id)
        # Expired: the architectural index register receives its *final*
        # value (initial + trips*step) — exactly what the software loop
        # would have left behind, so code reading the counter after the
        # loop observes identical state.  Re-initialisation for the next
        # entry happens at the enclosing loop-back (descendant resets)
        # or at the next arm.  Control then falls through to the code
        # after the loop, or cascades into the parent's decision.
        stat.reset()
        writes = [(record.index_reg, index_value(record, record.trips))]
        expired = [loop_id]
        if record.cascade and record.parent != NO_PARENT:
            inner = self.decide(record.parent, depth + 1)
            return Decision(
                next_pc=inner.next_pc,
                index_writes=writes + inner.index_writes,
                expired_loops=expired + inner.expired_loops,
                looped_back=inner.looped_back)
        return Decision(next_pc=None, index_writes=writes,
                        expired_loops=expired)

    def reset_loops(self, mask: int) -> None:
        """Reset the status of every loop whose bit is set in ``mask``.

        Used by exit records: a data-dependent exit abandons the masked
        loops, whose counters must restart from zero on the next entry.
        Architectural index registers are deliberately *not* rewritten
        here — code after a break may read the index (e.g. a search
        result); registers are re-initialised by the next enclosing
        loop-back decision.
        """
        for loop_id in range(len(self.tables.loops)):
            if mask & (1 << loop_id):
                self.status[loop_id].reset()

    # -- arm-time lowering ---------------------------------------------------
    def _chain(self, loop_id: int) -> list[tuple] | None:
        """The cascade chain :meth:`decide` walks from ``loop_id``.

        One ``(record, status, descendants)`` row per loop, innermost
        first, where ``descendants`` holds ``(status, record,
        index_reg)`` of every descendant valid now.  ``None`` when the
        decision cannot be lowered: a cyclic chain, an invalid loop or
        an index register outside the register file — :meth:`decide`
        faults on those at fire time, and only it may.
        """
        loops = self.tables.loops
        chain: list[tuple] = []
        seen: set[int] = set()
        while True:
            if loop_id in seen or not 0 <= loop_id < len(loops):
                return None
            seen.add(loop_id)
            record = loops[loop_id]
            if (not record.flags & FLAG_VALID
                    or record.index_reg >= NUM_REGISTERS):
                return None
            desc = []
            for child_id in self._desc.get(loop_id, ()):
                child = loops[child_id]
                if child.flags & FLAG_VALID:
                    if child.index_reg >= NUM_REGISTERS:
                        return None
                    desc.append((self.status[child_id], child,
                                 child.index_reg))
            chain.append((record, self.status[loop_id], tuple(desc)))
            if not (record.flags & FLAG_CASCADE
                    and record.parent != NO_PARENT):
                return chain
            loop_id = record.parent

    def lower(self, loop_id: int, port, single_shot: bool
              ) -> Callable[[list[int]], int | None] | None:
        """Compile ``loop_id``'s task-end decision into one closure.

        Call at arm time, after :meth:`prepare`.  ``port`` receives the
        fire's effects: ``task_switches`` (+1 per call),
        ``extra_index_writes`` (the index-register writes beyond the one
        every decision makes, ``r0`` included, as
        ``len(Decision.index_writes)`` counts them) and, when
        ``single_shot``, ``disarm()`` on expiry.  Returns ``None`` when
        the decision cannot be lowered (see :meth:`_chain`).
        """
        chain = self._chain(loop_id)
        if chain is None:
            return None
        then = None
        for record, stat, desc in reversed(chain[1:]):
            then = _cascade_step(port, record, stat, desc, then)
        record, stat, desc = chain[0]
        if not desc and then is None and record.index_reg:
            return _innermost_fire(port, record, stat, single_shot)
        return _fire_step(port, record, stat, desc, then, single_shot)


def _innermost_fire(port, record, stat: LoopStatus, single_shot: bool
                    ) -> Callable[[list[int]], int | None]:
    """The closure of the common trigger loop: no valid descendants, no
    cascade, a real index register — one write per decision."""
    ir = record.index_reg

    def fire(g: list[int]) -> int | None:
        port.task_switches += 1
        done = stat.iterations_done + 1
        if done < record.trips:
            stat.iterations_done = done
            g[ir] = (record.initial + done * record.step) & MASK32
            return record.body_pc
        stat.iterations_done = 0
        g[ir] = (record.initial + record.trips * record.step) & MASK32
        if single_shot:
            port.disarm()
        return None
    return fire


def _fire_step(port, record, stat: LoopStatus, desc: tuple, then,
               single_shot: bool) -> Callable[[list[int]], int | None]:
    """The closure of any other trigger loop's decision."""
    step = _cascade_step(port, record, stat, desc, then)

    def fire(g: list[int]) -> int | None:
        port.task_switches += 1
        next_pc = step(g)
        if next_pc is None and single_shot:
            port.disarm()
        return next_pc
    return fire


def _cascade_step(port, record, stat: LoopStatus, desc: tuple, then
                  ) -> Callable[[list[int]], int | None]:
    """One loop's decision in a chain: loop back (re-initialising the
    valid descendants) or expire and continue with ``then``, the
    parent's step, when the loop cascades.  The chain's first write is
    the one every decision makes; the step counts the rest."""
    ir = record.index_reg
    n_desc = len(desc)

    def decide(g: list[int]) -> int | None:
        done = stat.iterations_done + 1
        if done < record.trips:
            stat.iterations_done = done
            if ir:
                g[ir] = (record.initial + done * record.step) & MASK32
            for cstat, child, cir in desc:
                cstat.iterations_done = 0
                if cir:
                    g[cir] = child.initial & MASK32
            if n_desc:
                port.extra_index_writes += n_desc
            return record.body_pc
        stat.iterations_done = 0
        if ir:
            g[ir] = (record.initial + record.trips * record.step) & MASK32
        if then is None:
            return None
        port.extra_index_writes += 1
        return then(g)
    return decide
