"""The per-source front end every machine's transform shares.

A kernel's loop structure belongs to its source, not to the machine
that runs it: the baseline image, its parse, the CFG, the loop forest
and the matched overhead patterns are the same for XRdefault, XRhrdwil
and every ZOLC variant.  A :class:`KernelFront` holds that analysis for
one source.  The per-machine back ends
(:func:`~repro.transform.zolc_rewrite.rewrite_for_zolc`,
:func:`~repro.transform.hwlp_rewrite.rewrite_for_hwlp`) only choose
loops, plan their edits and re-assemble; they read the front and never
write to it, so one front serves any number of machines, in any order.

The analysis runs on first use and is then kept on the front, so a
machine that needs only the baseline image (XRdefault) pays for the
assembly alone.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from repro.asm.assembler import Program
from repro.asm.parser import ParsedModule
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
