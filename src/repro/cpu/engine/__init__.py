"""The XR32 execution-engine package: one run loop over one explicit IR.

The straight interpreter (:meth:`Simulator.step`) pays, on every retired
instruction, for a ``by_address`` dict probe, an ``EXECUTORS`` dict
probe, mnemonic string compares for ``mtz``/``mfz``, an ``ExecOutcome``
allocation, a ``frozenset`` rebuild in ``Instruction.uses()`` and
several attribute chases through the timing model.  All of that is
static per instruction, so it is decoded **once** into the program's
flat IR (:mod:`repro.cpu.ir`, one :class:`~repro.cpu.ir.IROp` per text
slot), and the ``engine="auto"`` run loop's tiers are *lowering passes*
over that array (``engine="step"`` is the stepped oracle):

* :mod:`~repro.cpu.engine.fast` lowers each op to a bound handler
  closure — a dense array indexed by ``(pc - text_base) >> 2``, every
  hot attribute hoisted into a default argument, no code generation.
  Cold code retires through these closures one slot at a time;
* :mod:`~repro.cpu.engine.traced` owns the run loop
  (:func:`run_traced`), one loop for every machine with one
  post-retire watch dispatch, and lowers maximal straight-line spans to
  generated Python megahandlers — memory accesses inlined,
  bounds-checked, against the raw memory buffer — executing a whole
  block per Python call.  Compilation is tiered: a span is fused only
  once it is hot (entered ``trace.HOT_THRESHOLD`` times) or its code is
  already cached on the Program; cold spans run on the per-slot path;
* :mod:`~repro.cpu.engine.trace` keeps hot ZOLC loops *loop-resident*:
  one generated trace per loop runs the body → trigger fire → re-entry
  cycle inside generated code — a straight-line body as a zero-guard
  trace, a branchy body with guards on its recorded hot paths;
* all generated text comes from the one shared emitter
  (:mod:`~repro.cpu.engine.emit`), so operand formatting, immediate
  masking, the ``r0``-write drop and the inlined memory fast paths
  exist exactly once.  So does the rest of the generated-code
  pipeline: regions and traces alike are records of one code table
  per Program, bound to a simulator by one binder and reconciled after
  a fault by one traceback walk; every dispatch table of one plan
  state (regions, watch arrays, traces) is one
  :class:`~repro.cpu.engine.traced.PlanTable`.

Handler protocol (:mod:`~repro.cpu.engine.dispatch`): each lowered
handler takes the current ``pc`` and returns

* ``None``      — sequential retirement (``next_pc = pc + 4``, not taken);
* an ``int``    — a taken control transfer to that address;
* ``HALT``      — the ``halt`` instruction retired (``next_pc = pc``).

Architectural side effects (register/memory writes) happen inside the
lowered code through bound methods captured at lowering time.  Timing
and statistics stay in the run loop, driven by static per-slot
metadata, so every tier retires *identical* (pc, regs, cycles, stats)
sequences to the ``step()`` interpreter — a property pinned down by the
differential tests in ``tests/test_engine.py`` and the cross-tier fuzz
in ``tests/test_engine_fuzz.py``.

**ZOLC fast path.**  On a ZOLC machine the dominant residual host cost
is the per-retirement ``zolc.on_retire(pc, next_pc, taken)`` call: only
trigger, exit-branch and entry-target addresses can ever produce an
action, yet every retirement pays for the call, its dict probes and its
early-out checks.  When the attached port exposes a *compiled
controller plan* (:meth:`~repro.core.controller.ZolcController.
zolc_plan`, see :mod:`repro.core.compiled`), the run loop folds the
plan's watch sets into the same ``pc >> 2`` geometry as the dispatch
array — a dense next-pc watch array (trigger / entry-target), a dense
current-pc exit-branch array consulted only on taken transfers, and a
small overflow dict for watch addresses outside the text image.
Unwatched retirements then skip the Python call entirely; watched ones
dispatch straight to the plan's fire handlers (taken exit → status
reset, entry from outside → index seed, the *same* bound methods
``on_retire`` dispatches through) and, for a trigger, to the plan's
compiled task-end decision (``plan.decisions``), which the
differential tests pin against the interpreted unit ``on_retire``
runs.  A retired
``mtz`` to ``CTRL_ARM`` or ``CTRL_RESET`` takes the full ``on_retire``
oracle path and re-queries the plan (an arm-epoch compare), so
re-arming, disarming, resets and single-shot expiry all invalidate the
compiled dispatch state at the only points it can change; table writes
go through a per-selector writer bound at lowering time and retire
inside fused regions.  Ports that do not
expose a plan — any custom :class:`~repro.cpu.simulator.ZolcPort` —
run on the stepped interpreter, which offers every retirement to
``on_retire``.

The IR schema and the lowering-pass contract are documented in
DESIGN.md §10.
"""

from repro.cpu.engine.dispatch import HALT, OpFn, OpMeta, PredecodedProgram
from repro.cpu.engine.fast import predecode
from repro.cpu.engine.trace import Trace, TraceOutcome
from repro.cpu.engine.traced import (
    PlanTable,
    TraceRegion,
    _compile_watch_arrays,
    run_traced,
)

__all__ = [
    "HALT",
    "OpFn",
    "OpMeta",
    "PlanTable",
    "PredecodedProgram",
    "Trace",
    "TraceOutcome",
    "TraceRegion",
    "predecode",
    "run_traced",
]
