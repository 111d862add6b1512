"""The shared per-source front end (assembly, CFG, loop match).

Preparing every machine of a row from one :class:`KernelFront` must
give exactly what independent ``prepare(source)`` calls give, in any
machine order, without any back end writing to the shared analysis;
machines of a row share one ``Program`` exactly where their images
agree, each new image assembled once; and the experiment backend's
prepare cache must build a kernel's front once per row while a round
larger than the cache stays cold.
"""

import copy
import dataclasses

import pytest

from repro.asm.assembler import Program, assemble, assemble_module
from repro.asm.parser import TextEntry
from repro.cpu.simulator import Simulator
from repro.eval import machines as machines_module
from repro.eval.machines import ALL_MACHINES, XR_DEFAULT, kernel_front
from repro.experiments import backends as backends_module
from repro.isa import Instruction, encode
from repro.synth import FAMILY_NAMES, generate_kernel
from repro.transform import hwlp_rewrite, zolc_rewrite
from repro.transform.front import KernelFront
from repro.workloads.suite import expand_kernel_selectors, registry

KERNELS = [*registry().names(),
           *expand_kernel_selectors(
               [f"synth:{family}:0:4" for family in FAMILY_NAMES])]


def outcome(prepared) -> dict:
    """Everything a machine's preparation decides, as plain data."""
    program = prepared.program
    out = {
        "words": program.words(),
        "data": bytes(program.data),
        "symbols": dict(program.symbols),
        "transformed_loops": prepared.transformed_loops,
    }
    if prepared.zolc is not None:
        zolc = prepared.zolc
        out["counts"] = (zolc.init_instruction_count,
                         zolc.removed_instruction_count,
                         zolc.reload_instruction_count)
        out["plan"] = [(p.forest_id, p.zolc_id, p.parent_forest_id,
                        p.cascade, p.needs_reload)
                       for p in zolc.plan.all_planned()]
        out["rejected"] = dict(zolc.plan.rejected)
    if prepared.hwlp is not None:
        out["plan"] = (list(prepared.hwlp.converted_loops),
                       dict(prepared.hwlp.skipped_loops))
    return out


def snapshot(front: KernelFront):
    return copy.deepcopy((front.program.instructions, front.module.text,
                          dict(front.patterns), dict(front.failures)))


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_one_front_prepares_every_machine_like_independent_calls(
        kernel_name):
    source = registry().get(kernel_name).source
    expected = {m.name: outcome(m.prepare(source)) for m in ALL_MACHINES}
    for order in (ALL_MACHINES, ALL_MACHINES[::-1]):
        front = kernel_front(source)
        before = snapshot(front)
        for machine in order:
            prepared = machine.prepare(front)
            assert prepared.front is front
            assert outcome(prepared) == expected[machine.name], machine.name
            program = prepared.program
            assert program.words() == [encode(inst)
                                       for inst in program.instructions]
        assert snapshot(front) == before  # no back end wrote to it


def image_identity(program) -> tuple:
    return (tuple(program.words()), bytes(program.data),
            tuple(sorted(program.symbols.items())))


def partition(groups) -> set[frozenset[str]]:
    return {frozenset(names) for names in groups}


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_a_row_shares_a_program_exactly_where_the_images_agree(
        kernel_name):
    source = registry().get(kernel_name).source
    for order in (ALL_MACHINES, ALL_MACHINES[::-1]):
        front = kernel_front(source)
        programs = {m.name: m.prepare(front).program for m in order}
        by_object: dict[int, list[str]] = {}
        by_image: dict[tuple, list[str]] = {}
        for name, program in programs.items():
            by_object.setdefault(id(program), []).append(name)
            by_image.setdefault(image_identity(program), []).append(name)
        assert partition(by_object.values()) \
            == partition(by_image.values())


def test_a_no_op_back_end_gets_the_front_baseline():
    front = kernel_front("main:\n    li t0, 1\n    addi t1, t0, 2\n    halt\n")
    for machine in ALL_MACHINES:
        assert machine.prepare(front).program is front.program


def test_an_image_is_keyed_by_everything_the_assembler_reads():
    front = kernel_front("main:\n    li t0, 2\nloop:\n"
                         "    addi t0, t0, -1\n    bne t0, zero, loop\n"
                         "    halt\n")
    text = front.module.text
    same = [TextEntry(list(e.labels), e.instruction) for e in text]
    assert front.image(same, assemble_module) is front.program
    # The label moves up one entry: same instructions, new branch target.
    moved = [TextEntry(["main", "loop"], text[0].instruction),
             TextEntry([], text[1].instruction), *same[2:]]
    relined = [*same[:-1], TextEntry([], dataclasses.replace(
        text[-1].instruction, line=99))]
    for variant in (moved, relined):
        program = front.image(variant, assemble_module)
        assert program is not front.program
        assert front.image(variant, assemble_module) is program
    assert front.image(moved, assemble_module).words() \
        != front.program.words()


def test_two_fronts_of_one_source_never_share():
    source = registry().get("vec_sum").source
    first, second = kernel_front(source), kernel_front(source)
    for machine in ALL_MACHINES:
        assert machine.prepare(first).program \
            is not machine.prepare(second).program


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_a_back_end_assembles_each_new_image_once(kernel_name,
                                                   monkeypatch):
    """A miss assembles through the back end's own module-level
    ``assemble_module``, the binding a layer tracer wraps."""
    calls: list[Program] = []
    for module in (zolc_rewrite, hwlp_rewrite):
        real = module.assemble_module

        def counted(*args, _real=real, **kwargs):
            program = _real(*args, **kwargs)
            calls.append(program)
            return program

        monkeypatch.setattr(module, "assemble_module", counted)
    front = kernel_front(registry().get(kernel_name).source)
    programs = [m.prepare(front).program for m in ALL_MACHINES]
    new_images = {id(p): p for p in programs if p is not front.program}
    assert len(calls) == len(new_images)
    assert {id(p) for p in calls} == set(new_images)


def test_xrdefault_runs_the_front_baseline():
    front = kernel_front(registry().get("vec_sum").source)
    assert XR_DEFAULT.prepare(front).program is front.program
    assert "cfg" not in front.__dict__  # XRdefault needs no analysis


def test_a_front_needs_an_assembled_program():
    program = assemble("halt\n")
    assert program.module is not None
    assert KernelFront.of(program).module is program.module
    with pytest.raises(ValueError, match="parsed module"):
        KernelFront.of(Program(instructions=list(program.instructions)))


def test_hand_built_program_still_encodes():
    halt = assemble("halt\n").instructions[0]
    inst = Instruction("addi", rd=8, rs=0, imm=5, address=0)
    end = Instruction(halt.mnemonic, address=4)
    program = Program(instructions=[inst, end])
    assert program.words() == [encode(inst), encode(end)]
    sim = Simulator(program)
    assert sim.memory.load_word(0) == encode(inst)


def test_words_are_a_copy():
    program = assemble("halt\n")
    program.words().append(0)
    assert len(program.words()) == 1


# -- cold stays cold ----------------------------------------------------


@pytest.fixture
def front_builds(monkeypatch):
    """Count front builds by source, with an empty prepare cache."""
    builds: dict[str, int] = {}
    real = machines_module.kernel_front

    def counted(source):
        builds[source] = builds.get(source, 0) + 1
        return real(source)

    monkeypatch.setattr(machines_module, "kernel_front", counted)
    monkeypatch.setattr(backends_module, "_PREPARE_CACHE", {})
    return builds


def test_a_row_builds_its_front_once(front_builds):
    source = registry().get("matmul").source
    rows = [backends_module._prepare_cached(machine, "matmul", source)
            for machine in ALL_MACHINES]
    assert front_builds == {source: 1}
    assert len({id(prepared.front) for prepared in rows}) == 1


def test_a_round_larger_than_the_cache_stays_cold(front_builds):
    limit = backends_module._PREPARE_CACHE_LIMIT
    kernels = [generate_kernel("baseline", 3, index) for index in range(30)]
    assert len(kernels) * len(ALL_MACHINES) > limit
    for expected in (1, 2):
        for kernel in kernels:
            for machine in ALL_MACHINES:
                backends_module._prepare_cached(machine, kernel.name,
                                                kernel.source)
        assert front_builds == {kernel.source: expected
                                for kernel in kernels}
        assert len(backends_module._PREPARE_CACHE) <= limit
