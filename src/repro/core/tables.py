"""ZOLC storage resources and the ``mtz``/``mfz`` selector map.

The paper's initialization mode loads "the known loop bound values and
the loop structure encoding by a special instruction sequence".  Our
special instruction is ``mtz rt, selector``: the 32-bit value of ``rt``
is written to the ZOLC table location named by the 16-bit selector.
``mfz`` reads locations back (used by tests and debug tooling).

Selector layout (16-bit)::

    0x0000  CTRL_ARM      write 1 to arm (enter active mode), 0 to disarm
    0x0001  CTRL_RESET    write any value to clear all tables
    0x0002  CTRL_STATUS   read-only: 1 if armed

    0x0100 + 0x10*l + k   loop table, loop l, field k:
        k=0 TRIPS        iteration count (>= 1)
        k=1 INITIAL      initial index value
        k=2 STEP         index step (two's complement)
        k=3 INDEX_REG    architectural register updated by the index unit
        k=4 BODY_PC      loop-back target (first body instruction)
        k=5 TRIGGER_PC   watched address of the (removed) latch;
                         NO_TRIGGER if this loop is decided by cascade
        k=6 PARENT       parent loop id, NO_PARENT for outermost
        k=7 FLAGS        bit0 VALID, bit1 CASCADE (on expiry, the parent
                         loop's decision runs in the same task switch)

    0x1000 + 4*r + k      exit record r (ZOLCfull):
        k=0 BRANCH_PC    address of the in-loop exit branch
        k=1 TARGET_PC    where the taken branch lands (outside the loop)
        k=2 RESET_MASK   bit l set => loop l's status resets on this exit
        k=3 FLAGS        bit0 VALID

    0x2000 + 4*r + k      entry record r (ZOLCfull):
        k=0 ENTRY_PC     side-entry target address inside a loop body
        k=1 LOOP         loop id entered
        k=2 FLAGS        bit0 VALID
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.config import ZolcConfig
from repro.cpu.exceptions import ZolcFaultError

# Control selectors: defined beside the ``mtz`` encoding, re-exported as
# part of the selector map.
from repro.isa.instructions import CTRL_ARM as CTRL_ARM
from repro.isa.instructions import CTRL_RESET as CTRL_RESET
from repro.isa.instructions import CTRL_STATUS as CTRL_STATUS

# Loop table.
LOOP_BASE = 0x0100
LOOP_STRIDE = 0x10
F_TRIPS = 0
F_INITIAL = 1
F_STEP = 2
F_INDEX_REG = 3
F_BODY_PC = 4
F_TRIGGER_PC = 5
F_PARENT = 6
F_FLAGS = 7
LOOP_FIELD_COUNT = 8

# Exit / entry record tables.
EXIT_BASE = 0x1000
ENTRY_BASE = 0x2000
RECORD_STRIDE = 4
X_BRANCH_PC = 0
X_TARGET_PC = 1
X_RESET_MASK = 2
X_FLAGS = 3
N_ENTRY_PC = 0
N_LOOP = 1
N_FLAGS = 2

FLAG_VALID = 0x1
FLAG_CASCADE = 0x2

NO_PARENT = 0xFFFF
NO_TRIGGER = 0xFFFFFFFF


def loop_selector(loop_id: int, fieldno: int) -> int:
    """Selector for loop table field ``fieldno`` of loop ``loop_id``."""
    if not 0 <= fieldno < LOOP_FIELD_COUNT:
        raise ValueError(f"bad loop field {fieldno}")
    return LOOP_BASE + LOOP_STRIDE * loop_id + fieldno


def exit_selector(record_id: int, fieldno: int) -> int:
    return EXIT_BASE + RECORD_STRIDE * record_id + fieldno


def entry_selector(record_id: int, fieldno: int) -> int:
    return ENTRY_BASE + RECORD_STRIDE * record_id + fieldno


@dataclass(slots=True)
class LoopRecord:
    """One row of the loop parameter table."""

    trips: int = 0
    initial: int = 0
    step: int = 0
    index_reg: int = 0
    body_pc: int = 0
    trigger_pc: int = NO_TRIGGER
    parent: int = NO_PARENT
    flags: int = 0

    @property
    def valid(self) -> bool:
        return bool(self.flags & FLAG_VALID)

    @property
    def cascade(self) -> bool:
        return bool(self.flags & FLAG_CASCADE)

    _FIELDS = ("trips", "initial", "step", "index_reg",
               "body_pc", "trigger_pc", "parent", "flags")

    def read_field(self, fieldno: int) -> int:
        return getattr(self, self._FIELDS[fieldno])


@dataclass(slots=True)
class ExitRecord:
    """One data-dependent exit registration (ZOLCfull)."""

    branch_pc: int = 0
    target_pc: int = 0
    reset_mask: int = 0
    flags: int = 0

    @property
    def valid(self) -> bool:
        return bool(self.flags & FLAG_VALID)

    _FIELDS = ("branch_pc", "target_pc", "reset_mask", "flags")

    def read_field(self, fieldno: int) -> int:
        return getattr(self, self._FIELDS[fieldno])


@dataclass(slots=True)
class EntryRecord:
    """One side-entry registration (ZOLCfull)."""

    entry_pc: int = 0
    loop: int = 0
    flags: int = 0

    @property
    def valid(self) -> bool:
        return bool(self.flags & FLAG_VALID)

    _FIELDS = ("entry_pc", "loop", "flags")

    def read_field(self, fieldno: int) -> int:
        return getattr(self, self._FIELDS[fieldno])


#: One record's field values as a tuple (C-level getters: the
#: signature walk runs on every uZOLC arm).
_LOOP_FIELDS = attrgetter(*LoopRecord._FIELDS)
_EXIT_FIELDS = attrgetter(*ExitRecord._FIELDS)
_ENTRY_FIELDS = attrgetter(*EntryRecord._FIELDS)


@dataclass
class ZolcTables:
    """All writable ZOLC state, dimensioned by a configuration.

    The controller recognises a re-arm of unchanged tables (the uZOLC
    idiom: ``CTRL_RESET``, then the same loop parameters re-streamed
    before each invocation) by comparing :meth:`signature` values, so
    it can reuse its arm-time compilation products.
    """

    config: ZolcConfig
    loops: list[LoopRecord] = field(default_factory=list)
    exits: list[ExitRecord] = field(default_factory=list)
    entries: list[EntryRecord] = field(default_factory=list)
    #: Selector -> bound writer memo (see :meth:`writer`).  Records are
    #: allocated once and zeroed in place on :meth:`reset`, so writers
    #: stay valid for the tables' whole lifetime.
    _writers: dict = field(default_factory=dict, repr=False,
                           compare=False)

    def __post_init__(self) -> None:
        if not self.loops:
            self.reset()

    def reset(self) -> None:
        if not self.loops:
            # First construction: allocate the record rows once.  Every
            # later reset zeroes them in place — records keep their
            # identity, so the selector memo stays valid and the
            # reset-and-restream re-arm idiom allocates nothing.
            self.loops = [LoopRecord()
                          for _ in range(self.config.max_loops)]
            self.exits = [ExitRecord()
                          for _ in range(self.config.max_exit_records)]
            self.entries = [EntryRecord()
                            for _ in range(self.config.max_entry_records)]
        else:
            for r in self.loops:
                r.trips = r.initial = r.step = r.index_reg = 0
                r.body_pc = 0
                r.trigger_pc = NO_TRIGGER
                r.parent = NO_PARENT
                r.flags = 0
            for x in self.exits:
                x.branch_pc = x.target_pc = x.reset_mask = x.flags = 0
            for e in self.entries:
                e.entry_pc = e.loop = e.flags = 0

    # -- selector-level access --------------------------------------------
    def _locate(self, selector: int) -> tuple[object, int]:
        if LOOP_BASE <= selector < LOOP_BASE + LOOP_STRIDE * self.config.max_loops:
            offset = selector - LOOP_BASE
            loop_id, fieldno = divmod(offset, LOOP_STRIDE)
            if fieldno >= LOOP_FIELD_COUNT:
                raise ZolcFaultError(f"bad loop field selector {selector:#06x}")
            return self.loops[loop_id], fieldno
        if EXIT_BASE <= selector < EXIT_BASE + RECORD_STRIDE * len(self.exits):
            offset = selector - EXIT_BASE
            record_id, fieldno = divmod(offset, RECORD_STRIDE)
            return self.exits[record_id], fieldno
        if ENTRY_BASE <= selector < ENTRY_BASE + RECORD_STRIDE * len(self.entries):
            offset = selector - ENTRY_BASE
            record_id, fieldno = divmod(offset, RECORD_STRIDE)
            return self.entries[record_id], fieldno
        raise ZolcFaultError(
            f"selector {selector:#06x} outside the tables of "
            f"{self.config.name} (loops={self.config.max_loops}, "
            f"exit records={len(self.exits)})")

    def writer(self, selector: int) -> Callable[[int], None]:
        """The bound write of one selector: ``writer(s)(v)`` is
        ``write(s, v)``.

        Resolved once per selector and memoised, so an engine can lower
        each ``mtz`` to its own writer and pay no selector decode per
        retirement.  A selector outside the tables yields a writer that
        raises the :class:`ZolcFaultError` the write would raise, at
        write time.
        """
        bound = self._writers.get(selector)
        if bound is None:
            bound = self._writers[selector] = self._bind_writer(selector)
        return bound

    def _bind_writer(self, selector: int) -> Callable[[int], None]:
        try:
            record, fieldno = self._locate(selector)
        except ZolcFaultError as exc:
            message = str(exc)

            def fault(value: int) -> None:
                raise ZolcFaultError(message)
            return fault
        name = record._FIELDS[fieldno]  # type: ignore[attr-defined]

        def write(value: int) -> None:
            setattr(record, name, value & 0xFFFFFFFF)
        return write

    def write(self, selector: int, value: int) -> None:
        self.writer(selector)(value)

    def read(self, selector: int) -> int:
        record, fieldno = self._locate(selector)
        return record.read_field(fieldno)  # type: ignore[attr-defined]

    def signature(self) -> tuple:
        """Full table contents as one hashable value.

        One flat walk over every record field — the cheap way for the
        controller to recognise the reset-and-restream re-arm idiom
        (``CTRL_RESET`` + identical parameter writes leave the
        signature equal, so arm-time compilation products can be
        reused).
        """
        return (tuple(map(_LOOP_FIELDS, self.loops)),
                tuple(map(_EXIT_FIELDS, self.exits)),
                tuple(map(_ENTRY_FIELDS, self.entries)))

    def valid_loops(self) -> list[int]:
        return [i for i, rec in enumerate(self.loops) if rec.valid]

    def validate(self) -> None:
        """Consistency-check programmed tables before arming."""
        for loop_id in self.valid_loops():
            rec = self.loops[loop_id]
            if rec.trips < 1:
                raise ZolcFaultError(
                    f"loop {loop_id}: trip count {rec.trips} < 1")
            if rec.parent != NO_PARENT:
                if rec.parent >= self.config.max_loops:
                    raise ZolcFaultError(
                        f"loop {loop_id}: parent {rec.parent} out of range")
                if not self.loops[rec.parent].valid:
                    raise ZolcFaultError(
                        f"loop {loop_id}: parent {rec.parent} is not valid")
            if rec.cascade and rec.parent == NO_PARENT:
                raise ZolcFaultError(
                    f"loop {loop_id}: cascade flag without a parent")
            if rec.trigger_pc == NO_TRIGGER and not self._is_cascade_source(loop_id):
                raise ZolcFaultError(
                    f"loop {loop_id}: no trigger and no cascading child")
        for record in self.exits:
            if record.valid and record.reset_mask == 0:
                raise ZolcFaultError("exit record with empty reset mask")

    def _is_cascade_source(self, loop_id: int) -> bool:
        """Whether some valid child cascades into ``loop_id``."""
        for child_id in self.valid_loops():
            child = self.loops[child_id]
            if child.parent == loop_id and child.cascade:
                return True
        return False
