"""Code transforms retargeting programs to ZOLC or hardware-loop ISAs."""

from repro.transform.edit import EditError, EditPlan, apply_edits
from repro.transform.front import KernelFront
from repro.transform.hwlp_rewrite import HwlpTransformResult, rewrite_for_hwlp
from repro.transform.legality import (
    PlannedLoop,
    RegionGroup,
    TransformPlan,
    plan_transform,
)
from repro.transform.patterns import (
    ExitBranch,
    LoopPattern,
    OperandSource,
    PatternError,
    match_all_loops,
    match_loop,
)
from repro.transform.zolc_rewrite import (
    TransformError,
    ZolcTransformResult,
    rewrite_for_zolc,
)

__all__ = [
    "EditError",
    "EditPlan",
    "ExitBranch",
    "HwlpTransformResult",
    "KernelFront",
    "LoopPattern",
    "OperandSource",
    "PatternError",
    "PlannedLoop",
    "RegionGroup",
    "TransformError",
    "TransformPlan",
    "ZolcTransformResult",
    "apply_edits",
    "match_all_loops",
    "match_loop",
    "plan_transform",
    "rewrite_for_hwlp",
    "rewrite_for_zolc",
]
