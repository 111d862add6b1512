"""Cross-machine integration: the central correctness claim.

For every benchmark and every machine configuration the *architectural
result* must be identical (the transforms only remove overhead), and
cycle counts must be ordered: ZOLClite never loses to XRhrdwil, which
never loses to XRdefault.  Machines of a row whose images agree share
one ``Program`` and its compiled code; each still runs exactly as if
prepared alone.
"""

import sys
from collections import Counter

import pytest

from repro.cpu.engine import traced
from repro.eval.machines import (
    ALL_MACHINES,
    M_UZOLC,
    M_ZOLC_FULL,
    M_ZOLC_LITE,
    XR_DEFAULT,
    XR_HRDWIL,
    kernel_front,
    machine_by_name,
)
from repro.eval.runner import run_kernel
from repro.synth import FAMILY_NAMES
from repro.synth.observe import observe
from repro.workloads.suite import (
    FIGURE2_BENCHMARKS,
    expand_kernel_selectors,
    registry,
)


@pytest.fixture(scope="module")
def reg():
    return registry()


@pytest.fixture(scope="module")
def measurements(reg):
    """Run all Figure 2 kernels on all five machines, once."""
    out = {}
    for name in FIGURE2_BENCHMARKS:
        kernel = reg.get(name)
        for machine in ALL_MACHINES:
            out[(name, machine.name)] = run_kernel(kernel, machine)
    return out


@pytest.mark.parametrize("name", FIGURE2_BENCHMARKS)
class TestPerKernel:
    def test_all_machines_verified(self, measurements, name):
        for machine in ALL_MACHINES:
            assert measurements[(name, machine.name)].verified

    def test_hrdwil_not_slower_than_default(self, measurements, name):
        assert measurements[(name, "XRhrdwil")].cycles \
            <= measurements[(name, "XRdefault")].cycles

    def test_zolclite_not_slower_than_default(self, measurements, name):
        assert measurements[(name, "ZOLClite")].cycles \
            < measurements[(name, "XRdefault")].cycles

    def test_zolclite_beats_uzolc_or_ties(self, measurements, name):
        assert measurements[(name, "ZOLClite")].cycles \
            <= measurements[(name, "uZOLC")].cycles

    def test_zolcfull_not_slower_than_lite(self, measurements, name):
        # On single-exit workloads full == lite; on multi-exit workloads
        # full can only help.
        assert measurements[(name, "ZOLCfull")].cycles \
            <= measurements[(name, "ZOLClite")].cycles

    def test_zolc_machines_execute_fewer_instructions(self, measurements,
                                                      name):
        assert measurements[(name, "ZOLClite")].instructions \
            < measurements[(name, "XRdefault")].instructions


class TestAggregate:
    def test_zolc_transforms_loops_everywhere(self, measurements):
        for name in FIGURE2_BENCHMARKS:
            assert measurements[(name, "ZOLClite")].transformed_loops >= 1

    def test_task_switches_happen(self, measurements):
        for name in FIGURE2_BENCHMARKS:
            assert measurements[(name, "ZOLClite")].zolc_task_switches > 0

    def test_init_overhead_is_small(self, measurements):
        # "The initialization of ZOLC presents only a very small cycle
        # overhead since it occurs outside of loop nests."
        for name in FIGURE2_BENCHMARKS:
            result = measurements[(name, "ZOLClite")]
            assert result.zolc_init_instructions / result.instructions < 0.05


class TestMachineLookup:
    def test_by_name(self):
        assert machine_by_name("xrdefault") is XR_DEFAULT
        assert machine_by_name("XRhrdwil") is XR_HRDWIL
        assert machine_by_name("zolclite") is M_ZOLC_LITE
        assert machine_by_name("uzolc") is M_UZOLC
        assert machine_by_name("ZOLCfull") is M_ZOLC_FULL

    def test_unknown(self):
        with pytest.raises(KeyError):
            machine_by_name("pentium")


class TestEarlyExitAblation:
    def test_full_beats_lite_on_early_exit_kernel(self, reg):
        kernel = reg.get("me_fss_early")
        lite = run_kernel(kernel, M_ZOLC_LITE)
        full = run_kernel(kernel, M_ZOLC_FULL)
        assert full.verified and lite.verified
        assert full.cycles < lite.cycles
        assert full.transformed_loops > lite.transformed_loops


# -- shared images across machine configurations -------------------------

SHARING_ROWS = [*registry().names(),
                *expand_kernel_selectors(
                    [f"synth:{family}:0:8" for family in FAMILY_NAMES])]


def _run_counted(sim, engine):
    """Run ``sim`` on ``engine``; its observation and per-pc retire
    counts.  The stepped run counts each step at its fetch pc; the
    ``auto`` run reads the run loop's per-slot retire tally as it
    returns."""
    counts: Counter[int] = Counter()
    if engine == "step":
        step = sim.step

        def counted():
            counts[sim.state.pc] += 1
            step()

        sim.step = counted
        sim.run(engine="step")
    else:
        loop = traced.run_traced.__code__
        base = sim.program.text_base

        def tally(frame, event, _arg):
            if event == "return" and frame.f_code is loop:
                counts.update({base + 4 * slot: n for slot, n
                               in enumerate(frame.f_locals["retired"])
                               if n})

        previous = sys.getprofile()
        sys.setprofile(tally)
        try:
            sim.run(engine="auto")
        finally:
            sys.setprofile(previous)
        assert sim.last_engine == "traced"
    return observe(sim), counts


def _shared_groups(front):
    """Machines of a row that share one Program, groups of two or more."""
    groups: dict[int, list] = {}
    for machine in ALL_MACHINES:
        program = machine.prepare(front).program
        groups.setdefault(id(program), []).append(machine)
    return [group for group in groups.values() if len(group) > 1]


@pytest.mark.parametrize("kernel_name", SHARING_ROWS)
def test_machines_sharing_a_program_run_as_if_prepared_alone(kernel_name):
    """A Program shared across configurations carries compiled code
    from one machine's run into the next machine's; every run must
    still match a stepped run of an independently prepared program,
    whichever machine ran first."""
    source = registry().get(kernel_name).source
    groups = _shared_groups(kernel_front(source))
    if not groups:
        pytest.skip("no two machines of this row share a program")
    for group in groups:
        oracle = {m.name: _run_counted(m.prepare(source).make_simulator(),
                                       "step") for m in group}
        for order in (group, group[::-1]):
            front = kernel_front(source)
            compiled: dict = {}
            for machine in order:
                prepared = machine.prepare(front)
                program = prepared.program
                got = _run_counted(prepared.make_simulator(), "auto")
                assert got == oracle[machine.name], machine.name
                regions = program.__dict__.get("_trace_region_code", {})
                assert all(regions[key] is code
                           for key, code in compiled.items()), (
                    f"{machine.name} recompiled a region of the shared "
                    "program")
                compiled = dict(regions)
