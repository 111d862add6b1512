"""Pre-transform control-flow, loop and task analyses.

The graph itself is the shared core of :mod:`repro.cpu.analysis.cfg`;
this package is its Instruction front plus the loop forest and task
decomposition the ZOLC transform and ``repro explore`` read.
"""

from repro.cfg.graph import build_cfg
from repro.cfg.loops import LoopForest, NaturalLoop, find_loops
from repro.cfg.tasks import Task, TaskGraph, TaskTransition, extract_tasks

__all__ = [
    "LoopForest",
    "NaturalLoop",
    "Task",
    "TaskGraph",
    "TaskTransition",
    "build_cfg",
    "extract_tasks",
    "find_loops",
]
