"""Hypothesis strategies over the shared corpus generators.

The fuzz suites historically owned their generators in
``tests/strategies.py``; those bodies now live in
:mod:`repro.synth.generators`, written against the
:class:`~repro.synth.draw.Draw` seam, and this module drives them with
Hypothesis's ``draw`` so the property suites explore the *same kernel
space* the seeded corpus (:mod:`repro.synth.corpus`) enumerates — one
generator body, two drivers, zero drift.  ``tests/strategies.py`` is a
thin re-export of this module.

This is the only :mod:`repro.synth` module that imports ``hypothesis``;
the corpus/soak product surface stays dependency-free.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from hypothesis import strategies as st

from repro.eval.machines import ALL_MACHINES
from repro.synth import corpus, generators
from repro.synth.draw import Draw
from repro.synth.generators import (  # noqa: F401  (re-exported surface)
    BASE_REG,
    COUNTERS,
    REG_INDEX,
    REGS,
    SCRATCH_WORDS,
    TEMPS,
    ShapeKnobs,
    render_alu_program,
)
from repro.synth.observe import (  # noqa: F401  (re-exported surface)
    controller_tuple,
    memory_image,
    state_tuple,
)

T = TypeVar("T")


class HypothesisDraw:
    """:class:`Draw` driven by a Hypothesis ``draw`` function."""

    def __init__(self, draw):
        self._draw = draw

    def integer(self, low: int, high: int) -> int:
        return self._draw(st.integers(min_value=low, max_value=high))

    def choice(self, options: Sequence[T]) -> T:
        return self._draw(st.sampled_from(options))

    def list_of(self, item: Callable[[Draw], T],
                min_size: int, max_size: int) -> list[T]:
        size = self.integer(min_size, max_size)
        return [item(self) for _ in range(size)]


# -- straight-line ALU programs ---------------------------------------

rr_ops = st.sampled_from(generators.RR_OPS)
shift_ops = st.sampled_from(generators.SHIFT_OPS)
imm_ops = st.sampled_from(generators.IMM_OPS)
uimm_ops = st.sampled_from(generators.UIMM_OPS)
alu_regs = st.sampled_from(REGS)


@st.composite
def alu_instructions(draw):
    """One random ALU instruction as a ``(kind, op, rd, rs, rt, imm)``
    tuple (see :func:`render_alu_program` for the rendering)."""
    return generators.alu_instruction(HypothesisDraw(draw))


@st.composite
def _reg_seeds(draw):
    return generators.reg_seed_values(HypothesisDraw(draw))


#: Full-range 32-bit register seed values.
reg_seeds = _reg_seeds()


# -- structured loop-nest kernels -------------------------------------

@st.composite
def loop_nest_kernels(draw, max_nests=2, max_depth=3):
    """A random structured kernel: sequential nests of counted loops.

    Shapes match the transform's ``up_count_slt`` idiom, so ZOLC
    machines drive the generated loops in hardware; two sequential
    nests make single-shot controllers (uZOLC) re-arm mid-run.
    """
    knobs = ShapeKnobs(max_nests=max_nests, max_depth=max_depth)
    return generators.loop_nest_kernel(HypothesisDraw(draw), knobs)


@st.composite
def family_kernels(draw, family_name: str):
    """A random kernel from one named corpus family's knob preset."""
    knobs = corpus.family(family_name).knobs
    return generators.loop_nest_kernel(HypothesisDraw(draw), knobs)


# -- machines and pipelines -------------------------------------------

def machines() -> st.SearchStrategy:
    """One of the five paper machines (specs are plain data)."""
    return st.sampled_from(ALL_MACHINES)


@st.composite
def pipeline_configs(draw):
    """Randomized pipeline timing parameters (all fields small)."""
    return corpus.draw_pipeline(HypothesisDraw(draw))


# -- engine-resolution spy --------------------------------------------

def spy_run_traced(monkeypatch):
    """Wrap ``repro.cpu.simulator.run_traced``, recording each call.

    Returns the list the spy appends to (one ``resident`` flag per
    call), so auto-resolution tests across the suite share one
    definition of the traced entry point's call shape.
    """
    import repro.cpu.simulator as simulator_module

    calls = []
    real = simulator_module.run_traced

    def spy(sim, max_steps, predecoded, resident=True):
        calls.append(resident)
        return real(sim, max_steps, predecoded, resident=resident)

    monkeypatch.setattr(simulator_module, "run_traced", spy)
    return calls
