"""Static analysis over the engine IR.

The three modules layer bottom-up:

* :mod:`~repro.cpu.analysis.cfg` — the control-flow graph core (basic
  blocks, dominators and natural loops over text slots) and its IR
  front, with the ZOLC watch addresses as forced leaders and the
  controller's loop-back redirects as reinstated back edges; the
  pre-transform Instruction front (:mod:`repro.cfg`) builds on the
  same core;
* :mod:`~repro.cpu.analysis.verify` — the rule-catalogue verifier
  (ZV001–ZV006) that statically proves the invariants the engine
  tiers assume;
* :mod:`~repro.cpu.analysis.audit` — the generated-code auditor
  (AU001–AU005) that parses each tier's emitted Python with ``ast``
  and cross-checks it against the IR, including the trace JIT's
  guard tables.

The package stays inside the cpu layer: it consumes the IR and the
engine's codegen records only.  Resolving a kernel's ZOLC labels into
a :class:`~repro.cpu.analysis.verify.StaticZolcPlan` (which needs the
transform layer) lives in :mod:`repro.eval.check`, as does the
``repro check`` driver.
"""

from repro.cpu.analysis.audit import (
    audit_codegen,
    audit_record,
    audit_trace_record,
    expected_touches,
    source_touches,
)
from repro.cpu.analysis.cfg import (
    CFG,
    Block,
    Loop,
    build_cfg,
    dominates,
    dominators,
    natural_loops,
    reverse_postorder,
)
from repro.cpu.analysis.verify import (
    RULES,
    SEVERITIES,
    Diagnostic,
    StaticZolcPlan,
    VerifyContext,
    WatchedLoop,
    trace_candidate_bodies,
    verify_program,
)

__all__ = [
    "CFG",
    "RULES",
    "SEVERITIES",
    "Block",
    "Diagnostic",
    "Loop",
    "StaticZolcPlan",
    "VerifyContext",
    "WatchedLoop",
    "audit_codegen",
    "audit_record",
    "audit_trace_record",
    "build_cfg",
    "dominates",
    "dominators",
    "expected_touches",
    "natural_loops",
    "reverse_postorder",
    "source_touches",
    "trace_candidate_bodies",
    "verify_program",
]
