"""Unit tests for the compiled controller plan (core/compiled.py).

The differential suites in ``test_engine.py`` prove the plan-compiled
run loop retires bit-identical sequences; these tests pin the plan's
lifecycle contract directly — when it exists, what invalidates it, and
what its watch sets contain.
"""

from repro.core import CompiledControllerPlan, ZolcController
from repro.core import tables as T
from repro.core.config import UZOLC, ZOLC_FULL, ZOLC_LITE
from repro.cpu.state import RegisterFile


def _program_loop(zolc, loop_id=0, trips=4, initial=0, step=1,
                  index_reg=8, body_pc=0x100, trigger_pc=0x110,
                  parent=T.NO_PARENT, flags=T.FLAG_VALID):
    zolc.write(T.loop_selector(loop_id, T.F_TRIPS), trips)
    zolc.write(T.loop_selector(loop_id, T.F_INITIAL), initial)
    zolc.write(T.loop_selector(loop_id, T.F_STEP), step)
    zolc.write(T.loop_selector(loop_id, T.F_INDEX_REG), index_reg)
    zolc.write(T.loop_selector(loop_id, T.F_BODY_PC), body_pc)
    zolc.write(T.loop_selector(loop_id, T.F_TRIGGER_PC), trigger_pc)
    zolc.write(T.loop_selector(loop_id, T.F_PARENT), parent)
    zolc.write(T.loop_selector(loop_id, T.F_FLAGS), flags)


def _armed_controller(config=ZOLC_LITE, **loop_kwargs):
    zolc = ZolcController(config, regs=RegisterFile())
    _program_loop(zolc, **loop_kwargs)
    zolc.write(T.CTRL_ARM, 1)
    # Flush the arm-time index writes (normally the simulator delivers
    # them at the arming retirement).
    zolc.on_retire(0x0, 0x4)
    return zolc


class TestPlanLifecycle:
    def test_no_plan_before_arm(self):
        zolc = ZolcController(ZOLC_LITE)
        assert zolc.zolc_plan() is None

    def test_plan_withheld_while_arm_writes_pending(self):
        zolc = ZolcController(ZOLC_LITE, regs=RegisterFile())
        _program_loop(zolc)
        zolc.write(T.CTRL_ARM, 1)
        assert zolc.zolc_plan() is None          # pending index writes
        action = zolc.on_retire(0x0, 0x4)
        assert action is not None and action.index_writes
        plan = zolc.zolc_plan()
        assert isinstance(plan, CompiledControllerPlan)

    def test_plan_contains_the_watch_sets(self):
        zolc = _armed_controller(trigger_pc=0x110)
        plan = zolc.zolc_plan()
        assert plan.triggers == ((0x110, 0),)
        assert plan.exits == ()
        assert plan.entries == ()
        assert plan.watched_addresses() == {0x110}

    def test_full_config_plan_covers_exit_and_entry_records(self):
        zolc = ZolcController(ZOLC_FULL, regs=RegisterFile())
        _program_loop(zolc, body_pc=0x100, trigger_pc=0x120)
        zolc.write(T.exit_selector(0, T.X_BRANCH_PC), 0x108)
        zolc.write(T.exit_selector(0, T.X_TARGET_PC), 0x140)
        zolc.write(T.exit_selector(0, T.X_RESET_MASK), 0b1)
        zolc.write(T.exit_selector(0, T.X_FLAGS), T.FLAG_VALID)
        zolc.write(T.entry_selector(0, T.N_ENTRY_PC), 0x100)
        zolc.write(T.entry_selector(0, T.N_LOOP), 0)
        zolc.write(T.entry_selector(0, T.N_FLAGS), T.FLAG_VALID)
        zolc.write(T.CTRL_ARM, 1)
        zolc.on_retire(0x0, 0x4)
        plan = zolc.zolc_plan()
        assert plan.triggers == ((0x120, 0),)
        assert plan.exits == ((0x108, 0),)
        assert plan.entries == ((0x100, 0),)
        assert plan.watched_addresses() == {0x100, 0x108, 0x120}

    def test_disarm_invalidates(self):
        zolc = _armed_controller()
        epoch = zolc.zolc_plan().epoch
        zolc.write(T.CTRL_ARM, 0)
        assert zolc.zolc_plan() is None
        assert zolc.plan_epoch > epoch

    def test_reset_invalidates(self):
        zolc = _armed_controller()
        epoch = zolc.zolc_plan().epoch
        zolc.write(T.CTRL_RESET, 1)
        assert zolc.zolc_plan() is None
        assert zolc.plan_epoch > epoch

    def test_rearm_issues_a_new_epoch_with_a_stable_key(self):
        zolc = _armed_controller()
        first = zolc.zolc_plan()
        zolc.write(T.CTRL_ARM, 1)
        zolc.on_retire(0x0, 0x4)
        second = zolc.zolc_plan()
        assert second.epoch > first.epoch
        # Same tables compile to the same content key, so engines may
        # reuse their dense watch arrays across re-arms.
        assert second.key == first.key

    def test_rearm_with_moved_trigger_changes_the_key(self):
        zolc = _armed_controller(trigger_pc=0x110)
        first = zolc.zolc_plan()
        zolc.write(T.loop_selector(0, T.F_TRIGGER_PC), 0x200)
        zolc.write(T.CTRL_ARM, 1)
        zolc.on_retire(0x0, 0x4)
        second = zolc.zolc_plan()
        assert second.key != first.key
        assert second.triggers == ((0x200, 0),)

    def test_table_rewrite_while_armed_keeps_the_plan(self):
        """Field values are read live at fire time, never compiled.

        The bound-reload extension streams TRIPS/INITIAL rewrites while
        armed; the watch sets do not change, so neither does the plan.
        """
        zolc = _armed_controller()
        plan = zolc.zolc_plan()
        zolc.write(T.loop_selector(0, T.F_TRIPS), 9)
        assert zolc.zolc_plan() is plan
        assert zolc.tables.loops[0].trips == 9

    def test_single_shot_expiry_invalidates(self):
        zolc = _armed_controller(config=UZOLC, trips=2)
        plan = zolc.zolc_plan()
        decision = plan.fire_trigger(0)          # iteration 1: loop back
        assert decision.next_pc == 0x100
        assert zolc.zolc_plan() is plan
        decision = plan.fire_trigger(0)          # iteration 2: expire
        assert decision.next_pc is None
        assert zolc.zolc_plan() is None          # uZOLC disarmed itself
        assert not zolc.active


class TestFireHandlerParity:
    """on_retire dispatches through the same fire handlers the engine
    calls, so counters and status cannot drift between the two routes."""

    def test_trigger_via_on_retire_and_directly_agree(self):
        via_retire = _armed_controller(trips=3)
        direct = _armed_controller(trips=3)
        for _ in range(3):
            action = via_retire.on_retire(0x10c, 0x110)
            assert action is not None and action.is_task_switch
            decision = direct.fire_trigger(0)
            assert action.next_pc == decision.next_pc
            assert action.index_writes == decision.index_writes
        assert via_retire.task_switches == direct.task_switches == 3
        assert ([s.iterations_done for s in via_retire.unit.status]
                == [s.iterations_done for s in direct.unit.status])

    def test_exit_fires_only_on_taken_to_target(self):
        zolc = ZolcController(ZOLC_FULL, regs=RegisterFile())
        _program_loop(zolc, trigger_pc=0x120)
        zolc.write(T.exit_selector(0, T.X_BRANCH_PC), 0x108)
        zolc.write(T.exit_selector(0, T.X_TARGET_PC), 0x140)
        zolc.write(T.exit_selector(0, T.X_RESET_MASK), 0b1)
        zolc.write(T.exit_selector(0, T.X_FLAGS), T.FLAG_VALID)
        zolc.write(T.CTRL_ARM, 1)
        zolc.on_retire(0x0, 0x4)
        plan = zolc.zolc_plan()
        assert not plan.fire_exit(0, 0x10c, False)   # not taken
        assert not plan.fire_exit(0, 0x10c, True)    # wrong target
        assert plan.fire_exit(0, 0x140, True)
        assert zolc.exit_events == 1

    def test_entry_fires_only_from_outside(self):
        zolc = ZolcController(ZOLC_FULL, regs=RegisterFile())
        _program_loop(zolc, body_pc=0x100, trigger_pc=0x120, initial=0,
                      step=1, index_reg=8, trips=4)
        zolc.write(T.entry_selector(0, T.N_ENTRY_PC), 0x100)
        zolc.write(T.entry_selector(0, T.N_LOOP), 0)
        zolc.write(T.entry_selector(0, T.N_FLAGS), T.FLAG_VALID)
        zolc.write(T.CTRL_ARM, 1)
        zolc.on_retire(0x0, 0x4)
        plan = zolc.zolc_plan()
        assert not plan.fire_entry(0, 0x118, 0x100)  # loop-back: inside
        zolc.regs.write(8, 2)                        # index says iter 2
        assert plan.fire_entry(0, 0x80, 0x100)       # entry from outside
        assert zolc.entry_events == 1
        assert zolc.unit.status[0].iterations_done == 2


class TestEngineCompilation:
    def test_watch_arrays_fold_into_the_dispatch_geometry(self):
        from repro.asm import assemble
        from repro.cpu import Simulator
        from repro.cpu.engine import _compile_watch_arrays

        source = "\n".join(["add s0, s0, t0"] * 8 + ["halt"])
        sim = Simulator(assemble(source))
        base = sim.program.text_base
        zolc = _armed_controller(body_pc=base, trigger_pc=base + 0x10)
        plan = zolc.zolc_plan()
        next_watch, exit_watch, far_watch = _compile_watch_arrays(
            plan, 9, base)
        assert next_watch[4] == (None, 0)            # trigger at base+0x10
        assert [w for w in next_watch if w is not None] == [(None, 0)]
        assert all(rec is None for rec in exit_watch)
        assert far_watch == {}

    def test_out_of_text_watch_goes_to_the_far_dict(self):
        from repro.asm import assemble
        from repro.cpu import Simulator
        from repro.cpu.engine import _compile_watch_arrays

        sim = Simulator(assemble("halt\n"))
        base = sim.program.text_base
        zolc = _armed_controller(body_pc=base, trigger_pc=0xDEAD_BEEC)
        plan = zolc.zolc_plan()
        next_watch, _, far_watch = _compile_watch_arrays(plan, 1, base)
        assert all(w is None for w in next_watch)
        assert far_watch == {0xDEAD_BEEC: (None, 0)}
