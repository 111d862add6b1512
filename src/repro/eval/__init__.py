"""Evaluation harness: machines, runners, metrics and figure rendering."""

from repro.eval.figures import (
    Figure2Data,
    Figure2Row,
    figure2,
    figure2_from_result,
    figure2_from_suite,
    figure2_spec,
    render_figure2,
)
from repro.eval.machines import (
    ALL_MACHINES,
    FIGURE2_MACHINES,
    M_UZOLC,
    M_ZOLC_FULL,
    M_ZOLC_LITE,
    MachineRegistry,
    MachineSpec,
    PreparedKernel,
    XR_DEFAULT,
    XR_HRDWIL,
    machine_by_name,
    machine_registry,
    register_machine,
)
from repro.eval.metrics import (
    ImprovementSummary,
    improvement_percent,
    relative_cycles,
    summarise,
)
from repro.eval.report import (
    render_area_breakdown,
    render_resource_table,
    render_storage_breakdown,
    render_timing_report,
)
from repro.eval.runner import RunResult, SuiteResult, run_kernel, run_suite

__all__ = [
    "ALL_MACHINES",
    "FIGURE2_MACHINES",
    "Figure2Data",
    "Figure2Row",
    "ImprovementSummary",
    "M_UZOLC",
    "M_ZOLC_FULL",
    "M_ZOLC_LITE",
    "MachineRegistry",
    "MachineSpec",
    "PreparedKernel",
    "RunResult",
    "SuiteResult",
    "XR_DEFAULT",
    "XR_HRDWIL",
    "figure2",
    "figure2_from_result",
    "figure2_from_suite",
    "figure2_spec",
    "improvement_percent",
    "machine_by_name",
    "machine_registry",
    "register_machine",
    "relative_cycles",
    "render_area_breakdown",
    "render_figure2",
    "render_resource_table",
    "render_storage_breakdown",
    "render_timing_report",
    "run_kernel",
    "run_suite",
    "summarise",
]
