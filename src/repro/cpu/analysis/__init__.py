"""Static analysis over the engine IR.

The four modules layer bottom-up:

* :mod:`~repro.cpu.analysis.cfg` — basic blocks, dominators and
  natural loops over the :class:`~repro.cpu.ir.IROp` array, with the
  ZOLC watch addresses as forced leaders and the controller's
  loop-back redirects as reinstated back edges;
* :mod:`~repro.cpu.analysis.dataflow` — per-block def/use summaries,
  reaching definitions, register liveness, and symbolic memory
  liveness with sub-word access widths;
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
    IRCFG,
    IRBlock,
    IRLoop,
    build_cfg,
    dominates,
    dominators,
    natural_loops,
    reverse_postorder,
)
from repro.cpu.analysis.dataflow import (
    ACCESS_WIDTHS,
    BlockDefUse,
    Liveness,
    MemAccess,
    MemLiveness,
    ReachingDefinitions,
    block_def_use,
    live_memory,
    live_registers,
    memory_accesses,
    reaching_definitions,
    read_registers,
    written_registers,
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
    "ACCESS_WIDTHS",
    "RULES",
    "SEVERITIES",
    "BlockDefUse",
    "Diagnostic",
    "IRBlock",
    "IRCFG",
    "IRLoop",
    "Liveness",
    "MemAccess",
    "MemLiveness",
    "ReachingDefinitions",
    "StaticZolcPlan",
    "VerifyContext",
    "WatchedLoop",
    "audit_codegen",
    "audit_record",
    "audit_trace_record",
    "block_def_use",
    "build_cfg",
    "dominates",
    "dominators",
    "expected_touches",
    "live_memory",
    "live_registers",
    "memory_accesses",
    "natural_loops",
    "reaching_definitions",
    "read_registers",
    "reverse_postorder",
    "source_touches",
    "trace_candidate_bodies",
    "verify_program",
    "written_registers",
]
