"""Seeded workload synthesis: corpora, generators, and soak support.

The product surface is :mod:`repro.synth.corpus` (named families of
deterministic kernels, addressable as ``synth:<family>:<seed>:<n>``)
and :mod:`repro.synth.soak` (budgeted step-vs-auto differential soak with
auto-shrunk regressions).  The Hypothesis adapter in
:mod:`repro.synth.strategies` is imported lazily by the fuzz suites —
this package itself never requires Hypothesis.
"""

from repro.synth.corpus import (
    FAMILIES,
    FAMILY_NAMES,
    CorpusSpec,
    SynthKernel,
    emit_corpus,
    family,
    generate,
    generate_kernel,
    is_synth_name,
    kernel_name,
    parse_kernel_name,
    parse_selector,
)
from repro.synth.draw import GENERATOR_VERSION, Draw, SeededDraw
from repro.synth.generators import ShapeKnobs

__all__ = [
    "FAMILIES",
    "FAMILY_NAMES",
    "CorpusSpec",
    "Draw",
    "GENERATOR_VERSION",
    "SeededDraw",
    "ShapeKnobs",
    "SynthKernel",
    "emit_corpus",
    "family",
    "generate",
    "generate_kernel",
    "is_synth_name",
    "kernel_name",
    "parse_kernel_name",
    "parse_selector",
]
