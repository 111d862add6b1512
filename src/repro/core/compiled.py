"""The compiled controller plan: an armed ZOLC as a queryable artifact.

Arming a :class:`~repro.core.controller.ZolcController` freezes the set
of addresses that can ever produce a ZOLC action — trigger addresses,
exit-branch addresses and entry-target addresses — until the next arm.
This module gives that snapshot a first-class shape,
:class:`CompiledControllerPlan`, so an execution engine can *compile*
the watch sets into its own dispatch structures (the predecoded engine
folds them into its dense ``pc >> 2`` array; see
:mod:`repro.cpu.engine`) and skip the per-retirement
:meth:`~repro.core.controller.ZolcController.on_retire` call entirely
for unwatched instructions.

The plan is pure data plus three *fire handlers* — bound controller
methods that implement the three watched events:

* ``fire_trigger(loop_id)`` — the task-end decision (loop back or
  expire, possibly cascading), returning the
  :class:`~repro.core.task_select.Decision`;
* ``fire_exit(record_id, next_pc, taken)`` — a taken exit branch
  resetting the abandoned loops' status (returns whether it fired);
* ``fire_entry(record_id, pc, next_pc)`` — arrival at an entry target
  from outside the loop, seeding the loop's progress from its index
  register (returns whether it fired).

Because :meth:`on_retire` itself dispatches through the *same* handler
methods, the stepped interpreter and any plan-compiling engine execute
identical decision code — which is what keeps their cycle counts, stats
and traces bit-identical (the invariant pinned by
``tests/test_engine.py``).

Contract for engines (and for any port exposing ``zolc_plan()``):

* the plan is valid until ``epoch`` changes: re-arming, disarming,
  ``CTRL_RESET`` and a single-shot expiry all invalidate it, and the
  port then serves a new plan (or ``None``) with a different epoch;
* ``fire_exit`` and ``fire_entry`` never invalidate the plan;
  ``fire_trigger`` may — but only through a *non-redirecting* decision
  (single-shot controllers disarm on expiry, and an expiry decision by
  definition has ``next_pc is None``).  A fire whose decision redirects
  leaves the plan valid, so engines must re-query ``zolc_plan()`` after
  every trigger fire that returned ``next_pc is None`` and after every
  retired ``mtz`` to ``CTRL_ARM`` or ``CTRL_RESET`` — and may stay on
  their compiled dispatch (or inside a loop-resident chain) across
  redirecting fires;
* a write to any other selector and every ``mfz`` leave the armed
  state, the pending writes and the watch sets alone (a table field is
  read live at fire time), so engines may retire them without a
  re-query;
* while a plan is being served, the port guarantees ``on_retire`` is a
  no-op for any retirement whose pc / next-pc is in none of the watch
  sets, and that its armed/pending state only changes through
  :meth:`write` or a fire handler;
* a fire handler may halt the machine (set ``state.halted``); engines
  observe the flag after every fired event, exactly as the stepped
  interpreter observes it after ``on_retire``;
* any dispatch structure an engine *derives* from the plan — watch
  arrays, region and trace tables (one
  :class:`~repro.cpu.engine.PlanTable` per plan state) — follows the
  same lifetime: it may be cached by ``key`` (content
  identity) across re-arms of identical tables, and it must be dropped
  or re-derived whenever ``epoch`` changes.

See DESIGN.md §6 for the timing assumptions behind the zero-cycle
decisions these handlers model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.task_select import Decision

#: A watch set: ``(watched address, table id)`` pairs, sorted by address.
WatchSet = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CompiledControllerPlan:
    """One armed controller state, compiled to its watch sets.

    ``triggers`` and ``entries`` are keyed by the *next* pc of a
    retirement (the ZOLC watches PC decode); ``exits`` are keyed by the
    retiring instruction's own pc (the exit branch).  ``key`` is a
    content hash of the three watch sets: two plans with equal keys
    compile to identical engine dispatch structures, so engines may
    cache their compiled form across re-arms of the same tables.
    """

    epoch: int
    triggers: WatchSet                 # (next_pc, loop_id)
    exits: WatchSet                    # (branch_pc, exit record id)
    entries: WatchSet                  # (next_pc, entry record id)
    fire_trigger: Callable[[int], "Decision"]
    fire_exit: Callable[[int, int, bool], bool]
    fire_entry: Callable[[int, int, int], bool]
    #: Live query for a trigger loop's direct loop-back target (its
    #: current ``body_pc``, or ``None`` for an invalid loop).  This is
    #: what makes a fire target *chainable*: an engine that wants to
    #: stay resident across the fire → re-entry cycle (see
    #: :func:`repro.cpu.engine.run_traced`) may pre-build a chained
    #: dispatch for a region whose entry equals ``fire_target(loop)``,
    #: and must still validate every fired decision against that entry
    #: — the query reads the tables live (post-arm rewrites such as a
    #: bound-reload ``mtz`` stream retarget it without a new plan), so
    #: it is advisory, never a substitute for the decision check.
    #: ``None`` (the default) means the port does not expose chainable
    #: targets and engines must not chain.
    fire_target: Callable[[int], int | None] | None = None

    @property
    def key(self) -> tuple[WatchSet, WatchSet, WatchSet]:
        """Content identity of the watch sets (engine cache key)."""
        return (self.triggers, self.exits, self.entries)

    def watched_addresses(self) -> set[int]:
        """Every address that can produce an action under this plan."""
        return ({pc for pc, _ in self.triggers}
                | {pc for pc, _ in self.exits}
                | {pc for pc, _ in self.entries})

    def watched_next_pcs(self) -> set[int]:
        """Addresses watched against the *next* pc of a retirement.

        The union of trigger and entry-target addresses — the set a
        trace-batching engine must respect when slicing straight-line
        regions: a fused block may not run *through* an instruction
        whose sequential successor is in this set, because that
        retirement could fire (exit branches need no slicing care: they
        fire only on *taken* transfers, and a region interior never
        takes one).
        """
        return ({pc for pc, _ in self.triggers}
                | {pc for pc, _ in self.entries})


def compile_watch_sets(watch: dict[int, int],
                       exit_by_branch: dict[int, int],
                       entry_by_target: dict[int, int]
                       ) -> tuple[WatchSet, WatchSet, WatchSet]:
    """Freeze the controller's arm-time dicts into plan watch sets."""
    return (tuple(sorted(watch.items())),
            tuple(sorted(exit_by_branch.items())),
            tuple(sorted(entry_by_target.items())))
