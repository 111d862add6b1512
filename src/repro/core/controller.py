"""The ZOLC controller: initialization and active modes.

This is the top-level behavioural model of the paper's Figure 1 unit.
It plugs into the simulator through :class:`repro.cpu.ZolcPort`:

* **initialization mode** — ``mtz`` instructions stream table contents
  in through :meth:`write`; writing 1 to ``CTRL_ARM`` validates the
  tables and enters active mode (writing the initial index values to
  the register file, carried by the next retirement's
  :class:`~repro.cpu.ZolcAction`);

* **active mode** — :meth:`on_retire` watches the instruction stream:

  - a *taken* branch matching an **exit record** resets the abandoned
    loops' status (multi-exit support, ZOLCfull);
  - arrival at an **entry record**'s target from outside the loop seeds
    the loop's progress from its index register (multi-entry support,
    ZOLCfull);
  - arrival at a **trigger address** (where a removed latch used to be)
    runs the task selection unit: loop back (PC redirect + index write)
    or expire (fall through, possibly cascading into the parent's
    decision within the same zero-cycle task switch).

Every decision costs **zero cycles** — the redirect happens in PC
decode, and index writes ride the ZOLC's dedicated register-file write
path (see DESIGN.md §6 for the modelling assumptions).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.compiled import CompiledControllerPlan, compile_watch_sets
from repro.core.config import ZolcConfig
from repro.core.index_unit import iterations_from_index
from repro.core.tables import (
    CTRL_ARM,
    CTRL_RESET,
    CTRL_STATUS,
    F_FLAGS,
    F_INDEX_REG,
    F_PARENT,
    LOOP_BASE,
    LOOP_STRIDE,
    NO_TRIGGER,
    ZolcTables,
)
from repro.core.task_select import Decision, TaskSelectionUnit
from repro.cpu.exceptions import ZolcFaultError
from repro.cpu.simulator import ZolcAction
from repro.cpu.state import RegisterFile
from repro.util.bitops import MASK32

#: Loop-table fields a compiled decision is specialised on (see
#: :meth:`ZolcController.writer`).
_STRUCTURAL_FIELDS = frozenset((F_INDEX_REG, F_PARENT, F_FLAGS))


class ZolcController:
    """Behavioural ZOLC implementing the simulator's ``ZolcPort``."""

    def __init__(self, config: ZolcConfig,
                 regs: RegisterFile | None = None):
        self.config = config
        self.tables = ZolcTables(config)
        self.unit = TaskSelectionUnit(self.tables)
        self._decide = self.unit.decide
        self.regs = regs  # bound by attach() or at Simulator construction
        self._armed = False
        self._pending_writes: list[tuple[int, int]] = []
        self._watch: dict[int, int] = {}          # trigger pc -> loop id
        self._exit_by_branch: dict[int, int] = {}  # branch pc -> record id
        self._entry_by_target: dict[int, int] = {}  # entry pc -> record id
        # Compiled plan of the current armed state.  The epoch counts
        # every invalidation (arm, disarm, reset, single-shot expiry) so
        # engines that compiled the plan into their dispatch structures
        # can detect staleness with one integer compare.
        self._plan: CompiledControllerPlan | None = None
        self.plan_epoch = 0
        # Arm-time compilation snapshot: when the tables are bit-for-bit
        # what the last arm validated and compiled, a re-arm (the uZOLC
        # per-invocation idiom) reuses the validated watch dicts,
        # compiled watch sets and their key, the decision closures and
        # the initial index writes instead of re-deriving O(tables)
        # state.  Recognised by an equal content signature (the
        # reset-and-restream sequence) under the same ``_decide``.
        self._armed_sig: tuple | None = None
        self._armed_decide = None
        self._compiled_sets: tuple | None = None
        self._initial_writes: list[tuple[int, int]] = []
        # Per trigger loop, its decision closure (plan.decisions);
        # ``_lowered`` says whether any of them is compiled, i.e. must
        # be demoted when a structural field is rewritten while armed.
        self._decisions: list = []
        self._lowered = False
        self._structural_writers: dict[int, Callable[[int], None]] = {}
        # The plan's fire handlers, bound once.
        self._handlers = (self.fire_trigger, self.fire_exit,
                          self.fire_entry, self.fire_target)
        self._single_shot = config.single_shot
        # Statistics observable by the evaluation harness.
        self.task_switches = 0
        #: Index-register writes by ``plan.decisions`` closures beyond the
        #: one every decision makes: an engine counts one write per fire
        #: and adds this counter's growth.
        self.extra_index_writes = 0
        self.exit_events = 0
        self.entry_events = 0
        self.arm_count = 0

    # -- ZolcPort ----------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._armed or bool(self._pending_writes)

    def attach(self, regs: RegisterFile) -> None:
        """Bind the architectural register file (for entry records)."""
        self.regs = regs

    def zolc_plan(self) -> CompiledControllerPlan | None:
        """The compiled plan of the current armed state, if any.

        ``None`` while unarmed *and* while arm-time index writes are
        still pending delivery — the engine must route the arming
        retirement through :meth:`on_retire` (which flushes the writes
        and runs the full watch checks) before it may switch to
        plan-compiled dispatch.
        """
        if self._armed and not self._pending_writes:
            return self._plan
        return None

    def _invalidate_plan(self) -> None:
        self._plan = None
        self.plan_epoch += 1

    def write(self, selector: int, value: int) -> None:
        """Initialization-mode table write (the ``mtz`` instruction)."""
        self.writer(selector)(value)

    def writer(self, selector: int) -> Callable[[int], None]:
        """The bound ``mtz`` write of one selector.

        ``writer(s)(v)`` is ``write(s, v)``; an engine resolves it once
        per ``mtz`` when it lowers the instruction.  Only ``CTRL_ARM``
        and ``CTRL_RESET`` writers change the armed state or the watch
        sets.  A table writer changes fields the fire handlers read
        live, and a write to ``CTRL_STATUS`` or outside the tables
        raises :class:`ZolcFaultError` when it retires.
        """
        if selector == CTRL_RESET:
            return self._reset
        if selector == CTRL_ARM:
            return self._write_arm
        if selector == CTRL_STATUS:
            return self._write_status
        offset = selector - LOOP_BASE
        if (0 <= offset < LOOP_STRIDE * len(self.tables.loops)
                and offset % LOOP_STRIDE in _STRUCTURAL_FIELDS):
            return self._structural_writer(selector)
        return self.tables.writer(selector)

    def _structural_writer(self, selector: int) -> Callable[[int], None]:
        """The writer of a field compiled decisions are specialised on.

        ``index_reg``, ``parent`` and ``flags`` are frozen into the
        decision closures at arm time, while :meth:`decide` reads them
        live.  Rewriting one while armed therefore demotes every
        closure of the served plan, in place, to the interpreted
        fallback, so the next fire decides exactly as ``decide``
        would; the next arm lowers afresh.
        """
        bound = self._structural_writers.get(selector)
        if bound is None:
            record, fieldno = self.tables._locate(selector)
            name = record._FIELDS[fieldno]

            def bound(value: int) -> None:
                setattr(record, name, value & MASK32)
                if self._armed and self._lowered:
                    self._demote_decisions()
            self._structural_writers[selector] = bound
        return bound

    def _demote_decisions(self) -> None:
        decisions = self._decisions
        for loop_id, decide in enumerate(decisions):
            if decide is not None:
                decisions[loop_id] = self._fallback_decision(loop_id)
        self._lowered = False
        self._armed_sig = None

    def _reset(self, value: int) -> None:
        self.tables.reset()
        self._armed = False
        self._pending_writes.clear()
        self._invalidate_plan()

    def _write_arm(self, value: int) -> None:
        if value & 1:
            self._arm()
        else:
            self.disarm()

    def disarm(self) -> None:
        """Leave active mode (a ``CTRL_ARM`` write of 0, or a
        single-shot expiry), invalidating the compiled plan."""
        self._armed = False
        self._invalidate_plan()

    @staticmethod
    def _write_status(value: int) -> None:
        raise ZolcFaultError("CTRL_STATUS is read-only")

    def read(self, selector: int) -> int:
        """Table read-back (the ``mfz`` instruction)."""
        if selector == CTRL_STATUS:
            return 1 if self._armed else 0
        if selector in (CTRL_ARM, CTRL_RESET):
            return 0
        return self.tables.read(selector)

    def _arm(self) -> None:
        sig = self.tables.signature()
        if sig == self._armed_sig and self._decide is self._armed_decide:
            # The tables are bit-for-bit what the last arm validated and
            # compiled: skip validation, watch-dict and children-map
            # rebuilds and lowering, reuse the compiled watch sets, their
            # key and the decision closures, and only redo the per-arm
            # state — status reset, initial index writes, a fresh plan
            # under a fresh epoch.
            self.unit.reset_status()
            self._pending_writes = list(self._initial_writes)
            self._armed = True
            self.arm_count += 1
            self._serve_plan()
            return
        self.tables.validate()
        self._check_capacity()
        self.unit.prepare()
        self._watch = {}
        for loop_id in self.tables.valid_loops():
            trigger = self.tables.loops[loop_id].trigger_pc
            if trigger != NO_TRIGGER:
                if trigger in self._watch:
                    raise ZolcFaultError(
                        f"loops {self._watch[trigger]} and {loop_id} share "
                        f"trigger {trigger:#x}; the outer loop must cascade")
                self._watch[trigger] = loop_id
        self._exit_by_branch = {
            rec.branch_pc: i for i, rec in enumerate(self.tables.exits)
            if rec.valid
        }
        self._entry_by_target = {
            rec.entry_pc: i for i, rec in enumerate(self.tables.entries)
            if rec.valid
        }
        # Index registers take their initial values on arming, so the
        # first iteration of every loop reads a correct index.
        self._initial_writes = self.unit.initial_index_writes()
        self._pending_writes = list(self._initial_writes)
        self._armed = True
        self.arm_count += 1
        # Nothing above mutates the tables, so the signature computed
        # for the failed comparison is still current.
        self._armed_sig = sig
        self._armed_decide = self._decide
        # Compile the watch sets the moment they are frozen.  Loop/exit/
        # entry *field* values (trips, targets, reset masks, ...) are
        # deliberately not part of the plan: they are read live at fire
        # time, exactly as on_retire reads them, so post-arm table
        # rewrites (e.g. the bound-reload mtz stream) need no
        # recompilation.
        self._compiled_sets = compile_watch_sets(
            self._watch, self._exit_by_branch, self._entry_by_target)
        self._lower_decisions()
        self._serve_plan()

    def _serve_plan(self) -> None:
        """Publish the armed state as a fresh plan under a new epoch."""
        self.plan_epoch += 1
        key = self._compiled_sets
        self._plan = CompiledControllerPlan(
            self.plan_epoch, *key, *self._handlers, self._decisions, key)

    def _lower_decisions(self) -> None:
        """Build ``plan.decisions``: one closure per trigger loop.

        A loop gets the task selection unit's compiled closure
        (:meth:`TaskSelectionUnit.lower`) unless the controller's
        decision path is not the stock one — an overridden
        :meth:`fire_trigger` or a replaced ``_decide`` — or the unit
        declines (a cyclic cascade chain, for one).  Those loops get
        :meth:`_fallback_decision`, the interpreted path, so a fault is
        raised exactly where :meth:`decide` raises it.
        """
        stock = (type(self).fire_trigger is ZolcController.fire_trigger
                 and "fire_trigger" not in self.__dict__
                 and getattr(self._decide, "__func__", None)
                 is TaskSelectionUnit.decide
                 and self._decide.__self__ is self.unit)
        decisions: list = [None] * len(self.tables.loops)
        lowered = False
        for loop_id in self._watch.values():
            decide = (self.unit.lower(loop_id, self, self._single_shot)
                      if stock else None)
            if decide is None:
                decide = self._fallback_decision(loop_id)
            else:
                lowered = True
            decisions[loop_id] = decide
        self._decisions = decisions
        self._lowered = lowered

    def _fallback_decision(self, loop_id: int):
        """``plan.decisions`` entry over the interpreted decision.

        Fires through :meth:`fire_trigger` (resolved per call, so an
        override is honoured) and applies the decision's index writes
        the way the register file would.
        """
        def decide(g: list[int]) -> int | None:
            decision = self.fire_trigger(loop_id)
            writes = decision.index_writes
            for reg, value in writes:
                if reg:
                    g[reg] = value & MASK32
            self.extra_index_writes += len(writes) - 1
            return decision.next_pc
        return decide

    def _check_capacity(self) -> None:
        n_loops = len(self.tables.valid_loops())
        if n_loops > self.config.max_loops:
            raise ZolcFaultError(
                f"{n_loops} loops exceed {self.config.name}'s capacity")
        if self.config.has_task_lut:
            # One LUT entry per loop-back decision plus one per expiry
            # continuation (two per loop), plus exits and entries.
            entries = 2 * n_loops
            entries += sum(1 for rec in self.tables.exits if rec.valid)
            entries += sum(1 for rec in self.tables.entries if rec.valid)
            if entries > self.config.max_task_entries:
                raise ZolcFaultError(
                    f"{entries} task entries exceed "
                    f"{self.config.max_task_entries} in {self.config.name}")

    # -- active mode -------------------------------------------------------
    def on_retire(self, pc: int, next_pc: int,
                  taken: bool = False) -> ZolcAction | None:
        """Observe one retirement; possibly redirect the next fetch.

        ``taken`` reports whether the retiring instruction performed a
        (taken) control transfer — needed because after latch removal an
        exit target can collapse onto the branch's fall-through address,
        making takenness undecidable from addresses alone.
        """
        if not self._armed and not self._pending_writes:
            return None
        writes: list[tuple[int, int]] = []
        if self._pending_writes:
            writes = self._pending_writes
            self._pending_writes = []
        if not self._armed:
            return ZolcAction(None, writes) if writes else None

        # 1. Data-dependent exits (multi-exit loops, ZOLCfull).
        record_id = self._exit_by_branch.get(pc)
        if record_id is not None and self.fire_exit(record_id, next_pc, taken):
            return ZolcAction(None, writes) if writes else ZolcAction(None)

        # 2. Side entries (multiple-entry loops, ZOLCfull).
        record_id = self._entry_by_target.get(next_pc)
        if record_id is not None and self.fire_entry(record_id, pc, next_pc):
            return ZolcAction(None, writes) if writes else ZolcAction(None)

        # 3. Trigger addresses: the task-end signal.
        loop_id = self._watch.get(next_pc)
        if loop_id is not None:
            decision = self.fire_trigger(loop_id)
            return ZolcAction(decision.next_pc,
                              writes + decision.index_writes,
                              is_task_switch=True)

        if writes:
            return ZolcAction(None, writes)
        return None

    # -- fire handlers (shared by on_retire and plan-compiling engines) ----
    def fire_exit(self, record_id: int, next_pc: int, taken: bool) -> bool:
        """A retirement at a watched exit branch; returns whether it fired.

        Fires only for a *taken* transfer landing on the record's target
        (after latch removal the exit target can collapse onto the
        branch's fall-through, so the address alone is not enough).
        """
        record = self.tables.exits[record_id]
        if not (taken and next_pc == record.target_pc):
            return False
        self.unit.reset_loops(record.reset_mask)
        self.exit_events += 1
        return True

    def fire_entry(self, record_id: int, pc: int, next_pc: int) -> bool:
        """Arrival at a watched entry target; returns whether it fired.

        Fires only when ``pc`` lies outside the entered loop — in-loop
        arrivals at the target (the loop-back itself) are not entries.
        """
        record = self.tables.entries[record_id]
        loop = self.tables.loops[record.loop]
        if not self._is_outside(pc, next_pc, loop):
            return False
        if self.regs is None:
            raise ZolcFaultError(
                "entry records require an attached register file")
        reg_value = self.regs.read(loop.index_reg)
        done = iterations_from_index(loop, reg_value)
        if done >= loop.trips:
            raise ZolcFaultError(
                f"side entry with index past the final iteration "
                f"({done} >= {loop.trips})")
        self.unit.status[record.loop].iterations_done = done
        self.entry_events += 1
        return True

    def fire_target(self, loop_id: int) -> int | None:
        """The loop's direct loop-back target (live table read).

        Exposed through the compiled plan so a loop-resident engine can
        pre-identify chainable trigger fires; deliberately *not* frozen
        at arm time — post-arm table rewrites (the bound-reload ``mtz``
        stream) retarget it without recompiling the plan, exactly like
        the other record fields the fire handlers read live.
        """
        record = self.tables.loops[loop_id]
        return record.body_pc if record.valid else None

    def fire_trigger(self, loop_id: int) -> Decision:
        """The task-end signal for a watched trigger address.

        Runs the task selection unit (loop back or expire, cascading
        into the parent where programmed).  A single-shot controller
        disarms on expiry, invalidating the compiled plan.
        """
        decision = self._decide(loop_id)
        self.task_switches += 1
        if self._single_shot and decision.next_pc is None:
            self.disarm()
        return decision

    def _is_outside(self, pc: int, entry_pc: int, loop) -> bool:
        """Whether ``pc`` lies outside ``loop``, entered at ``entry_pc``."""
        # The loop's code span is [body_pc, trigger) for triggered loops;
        # cascaded loops inherit the innermost trigger below them.
        end = loop.trigger_pc if loop.trigger_pc != NO_TRIGGER else entry_pc
        return not loop.body_pc <= pc < end
