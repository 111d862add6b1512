"""The compiled task-selection unit against the stepped interpreter.

At arm time the controller lowers every trigger loop's task-end
decision into one closure (``plan.decisions``); the run loop and every
trace leaf call it, while ``engine="step"`` keeps calling the
interpreted ``TaskSelectionUnit.decide``.  These tests pin the two
implementations against each other where they could drift: a lowered
decision that forgets work, structural table rewrites after the arm, a
bound-reload stream and a cyclic cascade chain.
"""

from dataclasses import asdict

import pytest

from repro.asm import assemble
from repro.core import ZolcController
from repro.core.config import ZOLC_LITE, with_bound_reload
from repro.core.task_select import TaskSelectionUnit
from repro.cpu import Simulator
from repro.cpu.exceptions import ZolcFaultError
from repro.synth.observe import controller_tuple
from repro.transform.zolc_rewrite import rewrite_for_zolc


def _state(sim):
    return (sim.state.pc, sim.state.halted, sim.state.regs.snapshot(),
            asdict(sim.stats), controller_tuple(sim))


def _nest_source(rewrite: str = "", inner_flags: int = 1,
                 cascade: bool = False) -> str:
    """A hand-armed two-loop nest: loop 0 (index t0, 4 trips) inside
    loop 1 (index t1, 3 trips).  ``rewrite`` runs at the top of every
    outer iteration, while armed.  With ``cascade`` the inner loop's
    expiry decides the outer loop, which has no trigger of its own."""
    if cascade:
        inner_flags = 3
    outer_trigger = ("addi at, zero, -1" if cascade
                     else "ori  at, zero, %lo(outer_end)")
    return f"""
        .text
main:
        addi at, zero, 4
        mtz  at, 256            # loop 0 TRIPS
        mtz  zero, 257          # INITIAL 0
        addi at, zero, 1
        mtz  at, 258            # STEP 1
        addi at, zero, 8
        mtz  at, 259            # INDEX_REG t0
        ori  at, zero, %lo(inner)
        mtz  at, 260            # BODY_PC
        ori  at, zero, %lo(inner_end)
        mtz  at, 261            # TRIGGER_PC
        addi at, zero, 1
        mtz  at, 262            # PARENT loop 1
        addi at, zero, {inner_flags}
        mtz  at, 263            # FLAGS
        addi at, zero, 3
        mtz  at, 272            # loop 1 TRIPS
        mtz  zero, 273          # INITIAL 0
        addi at, zero, 1
        mtz  at, 274            # STEP 1
        addi at, zero, 9
        mtz  at, 275            # INDEX_REG t1
        ori  at, zero, %lo(outer)
        mtz  at, 276            # BODY_PC
        {outer_trigger}
        mtz  at, 277            # TRIGGER_PC
        ori  at, zero, 0xFFFF
        mtz  at, 278            # PARENT none
        addi at, zero, 1
        mtz  at, 279            # FLAGS VALID
        addi at, zero, 1
        mtz  at, 0              # CTRL_ARM
outer:
{rewrite}
inner:
        add  s0, s0, t0
        add  s1, s1, t1
        add  s3, s3, t2
inner_end:
        addi s2, s2, 1
outer_end:
        halt
"""


def _run(source, engine):
    sim = Simulator(assemble(source), zolc=ZolcController(ZOLC_LITE))
    sim.zolc.attach(sim.state.regs)
    sim.run(max_steps=100_000, engine=engine)
    return sim


def _agree(source):
    auto, step = _run(source, "auto"), _run(source, "step")
    assert _state(auto) == _state(step)
    return auto


@pytest.mark.usefixtures("eager_fusion")
class TestLoweredDecisions:
    def test_nest_lowers_and_matches_step(self):
        auto = _agree(_nest_source())
        assert auto.zolc._lowered
        # 0+1+2+3 per outer pass, three passes: the outer loop-back
        # re-initialises the inner index every time.
        assert auto.state.regs["s0"] == 18
        assert auto.stats.zolc_index_writes > 0

    def test_a_decision_skipping_descendant_reinit_is_caught(self,
                                                             monkeypatch):
        """Mutation check: drop every descendant from the lowered
        chains, so the outer loop-back no longer re-initialises the
        inner loop; the differential comparison must see it."""
        real_chain = TaskSelectionUnit._chain

        def no_descendants(self, loop_id):
            chain = real_chain(self, loop_id)
            return None if chain is None else [
                (record, stat, ()) for record, stat, _desc in chain]

        monkeypatch.setattr(TaskSelectionUnit, "_chain", no_descendants)
        source = _nest_source()
        auto, step = _run(source, "auto"), _run(source, "step")
        assert auto.zolc._lowered
        assert _state(auto) != _state(step)
        assert auto.state.regs["s0"] != step.state.regs["s0"]

    @pytest.mark.parametrize("rewrite, cascade, fault", [
        # FLAGS: the inner loop turns invalid, so its next fire faults.
        ("        mtz  zero, 263", False, "invalid loop"),
        # PARENT: the inner loop leaves the nest, so its expiry stops
        # cascading into the outer decision.
        ("        ori  at, zero, 0xFFFF\n        mtz  at, 262", True, None),
        # INDEX_REG: the inner loop's index moves from t0 to t2.
        ("        addi at, zero, 10\n        mtz  at, 259", False, None),
    ], ids=["flags", "parent", "index_reg"])
    def test_structural_rewrite_after_arm_matches_step(self, rewrite,
                                                        cascade, fault):
        """The rewrite runs from the second outer iteration on, after
        the compiled closures have served fires."""
        source = _nest_source(
            "        beq  t1, zero, keep\n" + rewrite + "\nkeep:",
            cascade=cascade)
        sims = {}
        for engine in ("auto", "step"):
            sim = sims[engine] = Simulator(assemble(source),
                                           zolc=ZolcController(ZOLC_LITE))
            sim.zolc.attach(sim.state.regs)
            if fault is None:
                sim.run(max_steps=100_000, engine=engine)
            else:
                with pytest.raises(ZolcFaultError, match=fault):
                    sim.run(max_steps=100_000, engine=engine)
        assert _state(sims["auto"]) == _state(sims["step"])
        # The rewrite demoted the compiled closures to the interpreted
        # fallback for the rest of the armed state.
        assert not sims["auto"].zolc._lowered
        assert sims["auto"].zolc.task_switches > 4

    def test_cyclic_cascade_chain_faults_where_step_does(self):
        """Loop 0 cascades into loop 1 and loop 1 back into loop 0, both
        with one trip: the chain never reaches a loop-back.  It gets no
        compiled closure, so ``decide`` raises the cascade-cycle fault
        at the same retirement on both engines."""
        source = (_nest_source(inner_flags=3)
                  .replace("addi at, zero, 4\n        mtz  at, 256",
                           "addi at, zero, 1\n        mtz  at, 256")
                  .replace("addi at, zero, 3\n        mtz  at, 272",
                           "addi at, zero, 1\n        mtz  at, 272")
                  .replace("ori  at, zero, 0xFFFF\n        mtz  at, 278",
                           "mtz  zero, 278")
                  .replace("addi at, zero, 1\n        mtz  at, 279",
                           "addi at, zero, 3\n        mtz  at, 279"))
        sims = {}
        for engine in ("auto", "step"):
            sim = sims[engine] = Simulator(assemble(source),
                                           zolc=ZolcController(ZOLC_LITE))
            sim.zolc.attach(sim.state.regs)
            with pytest.raises(ZolcFaultError, match="cascade cycle"):
                sim.run(max_steps=10_000, engine=engine)
        assert not sims["auto"].zolc._lowered
        assert _state(sims["auto"]) == _state(sims["step"])

    def test_bound_reload_stream_matches_step(self):
        """TRIPS/INITIAL rewritten after the arm are read live."""
        from tests.test_bound_reload import VARYING, VARYING_EXPECTED

        result = rewrite_for_zolc(VARYING, with_bound_reload(ZOLC_LITE))
        assert result.reload_instruction_count
        auto = result.make_simulator()
        auto.run()
        step = result.make_simulator()
        step.run(engine="step")
        assert auto.zolc._lowered
        assert auto.state.regs["s0"] == VARYING_EXPECTED
        assert _state(auto) == _state(step)


class TestIdenticalReArm:
    def test_rearm_keeps_key_and_closures(self):
        """Re-arming identical tables reuses the compiled products: the
        plan key object and the decision list stay the same."""
        from repro.core import tables as T

        zolc = ZolcController(ZOLC_LITE)

        def arm():
            zolc.write(T.CTRL_RESET, 0)
            for field, value in ((T.F_TRIPS, 3), (T.F_STEP, 1),
                                 (T.F_INDEX_REG, 8), (T.F_BODY_PC, 0x100),
                                 (T.F_TRIGGER_PC, 0x110),
                                 (T.F_PARENT, T.NO_PARENT),
                                 (T.F_FLAGS, T.FLAG_VALID)):
                zolc.write(T.loop_selector(0, field), value)
            zolc.write(T.CTRL_ARM, 1)
            zolc.on_retire(0x0, 0x4)
            return zolc.zolc_plan()

        first = arm()
        second = arm()
        assert second is not first and second.epoch != first.epoch
        assert second.key is first.key
        assert second.decisions is first.decisions
        regs = [0] * 32
        assert second.decisions[0](regs) == 0x100
        assert regs[8] == 1
