"""The per-source front end every machine's transform shares.

A kernel's loop structure belongs to its source, not to the machine
that runs it: the baseline image, its parse, the CFG, the loop forest
and the matched overhead patterns are the same for XRdefault, XRhrdwil
and every ZOLC variant.  A :class:`KernelFront` holds that analysis for
one source.  The per-machine back ends
(:func:`~repro.transform.zolc_rewrite.rewrite_for_zolc`,
:func:`~repro.transform.hwlp_rewrite.rewrite_for_hwlp`) only choose
loops and plan their edits; they read the front's analysis and never
write to it, so one front serves any number of machines, in any order.

The analysis runs on first use and is then kept on the front, so a
machine that needs only the baseline image (XRdefault) pays for the
assembly alone.

The one memo a back end adds to is the front's image table
(:meth:`KernelFront.image`): edited text → the ``Program`` it
assembles to.  Machines whose edits yield the same text (ZOLClite and
ZOLCfull on most kernels, or a back end that changes nothing and so
gets the baseline image) share one ``Program`` object, and with it
every cache the engine keeps on that object: the IR, region code,
trace candidates and trace blueprints.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from repro.asm.assembler import Program
from repro.asm.parser import ParsedModule, TextEntry
from repro.cfg.graph import build_cfg
from repro.cfg.loops import LoopForest, find_loops
from repro.cpu.analysis.cfg import CFG
from repro.transform.patterns import LoopPattern, match_all_loops


@dataclass(frozen=True, eq=False)
class KernelFront:
    """One kernel source, assembled and analysed once for all machines.

    ``program`` is the untransformed baseline image (XRdefault runs it
    as is) and ``module`` the parse it was assembled from; the text
    entries of ``module`` correspond 1:1 with ``program.instructions``,
    which is what lets a back end address its edits by instruction
    index.

    Besides the analysis, a front keeps one table of *images*: each
    distinct edited text a back end produced, with the ``Program`` it
    assembled to (see :meth:`image`).  It lives and dies with the
    front, so it shares the front's cache budget and lifetime.
    """

    program: Program
    module: ParsedModule

    @classmethod
    def of(cls, baseline: Program) -> KernelFront:
        """The front of an assembled baseline image."""
        if baseline.module is None:
            raise ValueError("a kernel front needs a program assembled "
                             "from source; this one has no parsed module")
        return cls(baseline, baseline.module)

    @cached_property
    def cfg(self) -> CFG:
        return build_cfg(self.program)

    @cached_property
    def forest(self) -> LoopForest:
        return find_loops(self.cfg)

    @cached_property
    def _matched(self) -> tuple[Mapping[int, LoopPattern],
                                Mapping[int, str]]:
        patterns, failures = match_all_loops(self.program, self.cfg,
                                             self.forest)
        return MappingProxyType(patterns), MappingProxyType(failures)

    @property
    def patterns(self) -> Mapping[int, LoopPattern]:
        """Matched overhead patterns, by loop-forest id (read-only)."""
        return self._matched[0]

    @property
    def failures(self) -> Mapping[int, str]:
        """Why each unmatched loop did not match, by forest id."""
        return self._matched[1]

    @cached_property
    def _images(self) -> dict[tuple, Program]:
        return {_text_key(self.module.text): self.program}

    def image(self, text: list[TextEntry],
              assemble_module: Callable[..., Program]) -> Program:
        """The program an edited text segment assembles to.

        ``text`` is the front's text after a back end's edits; the
        front's data and constants complete the module.  A text this
        front has seen before (its own included) returns the very
        ``Program`` it produced then; only a new text is assembled,
        through the caller's ``assemble_module``.
        """
        key = _text_key(text)
        program = self._images.get(key)
        if program is None:
            module = ParsedModule(text=text, data=self.module.data,
                                  constants=self.module.constants)
            program = self._images[key] = assemble_module(
                module, self.program.text_base, self.program.data_base)
        return program


def _text_key(text: list[TextEntry]) -> tuple:
    """Everything the assembler reads of a text segment, hashable."""
    return tuple((tuple(entry.labels), entry.instruction.mnemonic,
                  tuple(entry.instruction.operands), entry.instruction.line)
                 for entry in text)
