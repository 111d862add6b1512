"""Reproduction of the paper's Figure 2 and in-text result summaries.

Figure 2 plots, for 12 benchmarks, the cycle counts of XRhrdwil and
ZOLClite relative to the unmodified XiRisc (XRdefault).  The paper's
headline numbers (§3):

* XRhrdwil: up to 27.5 % reduction, ~11.1 % average;
* ZOLC:     up to 48.2 % reduction, ~26.2 % average, 8.4 % minimum.

:func:`figure2` runs the full suite (through the unified experiment
API, so measurements can be served from a :class:`ResultStore`) and
returns the same series; :func:`render_figure2` prints them as a table
plus an ASCII bar chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.pipeline import PipelineConfig
from repro.eval.metrics import ImprovementSummary, improvement_percent, summarise
from repro.eval.runner import SuiteResult

#: The paper's reported summary numbers, for EXPERIMENTS.md comparisons.
PAPER_HRDWIL_MAX = 27.5
PAPER_HRDWIL_AVG = 11.1
PAPER_ZOLC_MAX = 48.2
PAPER_ZOLC_AVG = 26.2
PAPER_ZOLC_MIN = 8.4


@dataclass
class Figure2Row:
    """One benchmark's bar group."""

    benchmark: str
    cycles_default: int
    cycles_hrdwil: int
    cycles_zolc: int

    @property
    def rel_hrdwil(self) -> float:
        return self.cycles_hrdwil / self.cycles_default

    @property
    def rel_zolc(self) -> float:
        return self.cycles_zolc / self.cycles_default

    @property
    def improvement_hrdwil(self) -> float:
        return improvement_percent(self.cycles_hrdwil, self.cycles_default)

    @property
    def improvement_zolc(self) -> float:
        return improvement_percent(self.cycles_zolc, self.cycles_default)


@dataclass
class Figure2Data:
    """The complete figure: per-benchmark rows plus summaries."""

    rows: list[Figure2Row] = field(default_factory=list)

    @property
    def hrdwil_summary(self) -> ImprovementSummary:
        return summarise([r.improvement_hrdwil for r in self.rows])

    @property
    def zolc_summary(self) -> ImprovementSummary:
        return summarise([r.improvement_zolc for r in self.rows])

    def to_dict(self) -> dict:
        """JSON-ready form (the ``figure2 --json`` payload)."""
        return {
            "rows": [{
                "benchmark": row.benchmark,
                "cycles": {"XRdefault": row.cycles_default,
                           "XRhrdwil": row.cycles_hrdwil,
                           "ZOLClite": row.cycles_zolc},
                "improvement_hrdwil_percent": round(row.improvement_hrdwil, 4),
                "improvement_zolc_percent": round(row.improvement_zolc, 4),
            } for row in self.rows],
            "summary": {
                "hrdwil": _summary_dict(self.hrdwil_summary),
                "zolc": _summary_dict(self.zolc_summary),
            },
        }


def _summary_dict(summary: ImprovementSummary) -> dict:
    return {"max_percent": round(summary.maximum, 4),
            "min_percent": round(summary.minimum, 4),
            "avg_percent": round(summary.average, 4)}


def figure2_spec(pipeline: PipelineConfig | None = None):
    """The Figure 2 study as a declarative :class:`ExperimentSpec`."""
    from repro.eval.machines import FIGURE2_MACHINES
    from repro.experiments.spec import ExperimentSpec

    return ExperimentSpec(
        name="figure2",
        kernels=("@figure2",),
        machines=FIGURE2_MACHINES,
        pipeline=pipeline if pipeline is not None else PipelineConfig(),
    )


def figure2_from_suite(suite: SuiteResult) -> Figure2Data:
    """Assemble Figure 2 from pre-collected suite measurements."""
    data = Figure2Data()
    for name in suite.kernels():
        data.rows.append(Figure2Row(
            benchmark=name,
            cycles_default=suite.get(name, "XRdefault").cycles,
            cycles_hrdwil=suite.get(name, "XRhrdwil").cycles,
            cycles_zolc=suite.get(name, "ZOLClite").cycles,
        ))
    return data


def figure2_from_result(result) -> Figure2Data:
    """Assemble Figure 2 from an :class:`ExperimentResult`."""
    data = Figure2Data()
    for name in result.kernels():
        data.rows.append(Figure2Row(
            benchmark=name,
            cycles_default=result.get(name, "XRdefault")["cycles"],
            cycles_hrdwil=result.get(name, "XRhrdwil")["cycles"],
            cycles_zolc=result.get(name, "ZOLClite")["cycles"],
        ))
    return data


def figure2(pipeline: PipelineConfig | None = None,
            jobs: int | None = None,
            store=None) -> Figure2Data:
    """Run the 12-benchmark suite on the three Figure 2 machines.

    A thin consumer of :func:`repro.experiments.run_experiment`:
    ``jobs`` picks where cells run (``None``/``1`` in-process, ``0``
    one worker per CPU, ``n`` workers), ``store`` (a
    directory or :class:`ResultStore`) serves unchanged cells from the
    result cache.
    """
    from repro.experiments.config import RunConfig
    from repro.experiments.runner import run_experiment
    from repro.experiments.store import ResultStore

    store_instance = store if isinstance(store, ResultStore) else None
    config = RunConfig(jobs=jobs, store=None if store_instance else store)
    result = run_experiment(figure2_spec(pipeline), config,
                            store=store_instance)
    return figure2_from_result(result)


def _bar(fraction: float, width: int = 40) -> str:
    filled = max(0, min(width, round(fraction * width)))
    return "#" * filled


def render_figure2(data: Figure2Data) -> str:
    """Figure 2 as text: relative-cycle table plus ASCII bars."""
    lines = [
        "Figure 2 — cycle performance relative to XRdefault (lower is better)",
        "",
        f"{'benchmark':<12} {'XRdefault':>10} {'XRhrdwil':>10} {'ZOLC':>10}"
        f" {'hrdwil %':>9} {'ZOLC %':>8}",
        "-" * 64,
    ]
    for row in data.rows:
        lines.append(
            f"{row.benchmark:<12} {row.cycles_default:>10}"
            f" {row.cycles_hrdwil:>10} {row.cycles_zolc:>10}"
            f" {row.improvement_hrdwil:>8.1f}% {row.improvement_zolc:>7.1f}%")
    lines.append("-" * 64)
    lines.append(f"XRhrdwil improvement: {data.hrdwil_summary}"
                 f"   (paper: max {PAPER_HRDWIL_MAX} %, avg {PAPER_HRDWIL_AVG} %)")
    lines.append(f"ZOLC improvement:     {data.zolc_summary}"
                 f"   (paper: max {PAPER_ZOLC_MAX} %, avg {PAPER_ZOLC_AVG} %, "
                 f"min {PAPER_ZOLC_MIN} %)")
    lines.append("")
    lines.append("relative cycles (XRdefault = 1.0):")
    for row in data.rows:
        lines.append(f"{row.benchmark:<12} dflt |{_bar(1.0)}")
        lines.append(f"{'':<12} hwil |{_bar(row.rel_hrdwil)} {row.rel_hrdwil:.3f}")
        lines.append(f"{'':<12} zolc |{_bar(row.rel_zolc)} {row.rel_zolc:.3f}")
    return "\n".join(lines)
