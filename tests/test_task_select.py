"""Unit tests for the task selection unit (decision cascade)."""

import pytest

from repro.core import tables as T
from repro.core.config import ZOLC_LITE
from repro.core.tables import ZolcTables
from repro.core.task_select import TaskSelectionUnit
from repro.cpu.exceptions import ZolcFaultError


def program_loop(tables, loop_id, trips, body_pc, trigger, index_reg=8,
                 initial=0, step=1, parent=T.NO_PARENT, cascade=False):
    base = lambda f: T.loop_selector(loop_id, f)
    tables.write(base(T.F_TRIPS), trips)
    tables.write(base(T.F_INITIAL), initial & 0xFFFFFFFF)
    tables.write(base(T.F_STEP), step & 0xFFFFFFFF)
    tables.write(base(T.F_INDEX_REG), index_reg)
    tables.write(base(T.F_BODY_PC), body_pc)
    tables.write(base(T.F_TRIGGER_PC), trigger)
    tables.write(base(T.F_PARENT), parent)
    tables.write(base(T.F_FLAGS),
                 T.FLAG_VALID | (T.FLAG_CASCADE if cascade else 0))


@pytest.fixture()
def unit():
    tables = ZolcTables(ZOLC_LITE)
    return tables, TaskSelectionUnit(tables)


class TestSingleLoop:
    def test_loops_back_until_expiry(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=3, body_pc=0x10, trigger=0x20)
        tsu.prepare()
        first = tsu.decide(0)
        assert first.next_pc == 0x10
        assert first.looped_back == 0
        assert first.index_writes == [(8, 1)]
        second = tsu.decide(0)
        assert second.next_pc == 0x10
        assert second.index_writes == [(8, 2)]
        third = tsu.decide(0)
        assert third.next_pc is None
        assert third.expired_loops == [0]

    def test_expiry_resets_for_reentry(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=2, body_pc=0x10, trigger=0x20)
        tsu.prepare()
        tsu.decide(0)
        expired = tsu.decide(0)
        assert expired.next_pc is None
        # Re-entered: counts restart.
        again = tsu.decide(0)
        assert again.next_pc == 0x10

    def test_expiry_writes_final_index_value(self, unit):
        # Software semantics: after the loop the counter holds
        # initial + trips*step, and the ZOLC must leave the same value.
        tables, tsu = unit
        program_loop(tables, 0, trips=2, body_pc=0x10, trigger=0x20,
                     initial=7, step=3)
        tsu.prepare()
        tsu.decide(0)
        decision = tsu.decide(0)
        assert decision.next_pc is None
        assert decision.index_writes == [(8, 13)]  # 7 + 2*3

    def test_down_count_expiry_leaves_zero(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=5, body_pc=0x10, trigger=0x20,
                     initial=5, step=-1)
        tsu.prepare()
        for _ in range(4):
            tsu.decide(0)
        decision = tsu.decide(0)
        assert decision.index_writes == [(8, 0)]  # as software leaves it

    def test_single_trip_loop_expires_immediately(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=1, body_pc=0x10, trigger=0x20)
        tsu.prepare()
        assert tsu.decide(0).next_pc is None

    def test_initial_index_writes(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=2, body_pc=0x10, trigger=0x20,
                     index_reg=9, initial=100)
        tsu.prepare()
        assert tsu.initial_index_writes() == [(9, 100)]


class TestCascade:
    def _nest(self, tables, tsu, outer_trips=2, inner_trips=3):
        program_loop(tables, 0, trips=outer_trips, body_pc=0x10,
                     trigger=T.NO_TRIGGER, index_reg=8)
        program_loop(tables, 1, trips=inner_trips, body_pc=0x20,
                     trigger=0x30, index_reg=9, parent=0, cascade=True)
        tsu.prepare()

    def test_inner_loops_back_first(self, unit):
        tables, tsu = unit
        self._nest(tables, tsu)
        assert tsu.decide(1).next_pc == 0x20

    def test_cascade_on_inner_expiry(self, unit):
        tables, tsu = unit
        self._nest(tables, tsu, outer_trips=2, inner_trips=2)
        tsu.decide(1)                       # inner iteration 1 -> loop back
        decision = tsu.decide(1)            # inner expires, outer decides
        assert decision.next_pc == 0x10     # outer loops back to its body
        assert 1 in decision.expired_loops
        assert decision.looped_back == 0
        # Both registers written: inner reset + outer increment.
        regs = dict(decision.index_writes)
        assert regs[9] == 0                 # inner reset to initial
        assert regs[8] == 1                 # outer advanced

    def test_whole_nest_expires_together(self, unit):
        tables, tsu = unit
        self._nest(tables, tsu, outer_trips=1, inner_trips=1)
        decision = tsu.decide(1)
        assert decision.next_pc is None
        assert decision.expired_loops == [1, 0]

    def test_cascade_cycle_detected(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=1, body_pc=0x10, trigger=0x30,
                     parent=1, cascade=True)
        program_loop(tables, 1, trips=1, body_pc=0x20, trigger=0x40,
                     parent=0, cascade=True)
        tsu.prepare()
        with pytest.raises(ZolcFaultError):
            tsu.decide(0)

    def test_invalid_loop_decision_rejected(self, unit):
        tables, tsu = unit
        tsu.prepare()
        with pytest.raises(ZolcFaultError):
            tsu.decide(0)


class TestDescendantReset:
    def test_loop_back_reinitialises_descendants(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=3, body_pc=0x10, trigger=T.NO_TRIGGER,
                     index_reg=8)
        program_loop(tables, 1, trips=4, body_pc=0x20, trigger=0x30,
                     index_reg=9, initial=50, parent=0, cascade=True)
        tsu.prepare()
        # Simulate an abandoned inner loop: its status says 2 done.
        tsu.status[1].iterations_done = 2
        decision = tsu.decide(0)
        assert decision.next_pc == 0x10
        assert tsu.status[1].iterations_done == 0
        assert (9, 50) in decision.index_writes

    def test_loop_back_reinitialises_transitive_descendants(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=2, body_pc=0x10, trigger=T.NO_TRIGGER)
        program_loop(tables, 1, trips=2, body_pc=0x20, trigger=T.NO_TRIGGER,
                     parent=0, cascade=True, index_reg=9, initial=5)
        program_loop(tables, 2, trips=2, body_pc=0x30, trigger=0x40,
                     parent=1, cascade=True, index_reg=10, initial=7)
        tsu.prepare()
        tsu.status[1].iterations_done = tsu.status[2].iterations_done = 1
        decision = tsu.decide(0)
        assert decision.looped_back == 0
        assert sorted(decision.index_writes[1:]) == [(9, 5), (10, 7)]
        assert tsu.status[1].iterations_done == 0
        assert tsu.status[2].iterations_done == 0
        tsu.status[1].iterations_done = 1
        assert tsu.decide(2).index_writes == [(10, 8)]
        assert tsu.status[1].iterations_done == 1


class TestResetLoops:
    def test_mask_resets_status_only(self, unit):
        tables, tsu = unit
        program_loop(tables, 0, trips=5, body_pc=0x10, trigger=0x20)
        program_loop(tables, 1, trips=5, body_pc=0x30, trigger=0x40)
        tsu.prepare()
        tsu.status[0].iterations_done = 3
        tsu.status[1].iterations_done = 2
        tsu.reset_loops(0b01)
        assert tsu.status[0].iterations_done == 0
        assert tsu.status[1].iterations_done == 2
