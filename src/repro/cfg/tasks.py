"""Task extraction — the paper's program decomposition.

Section 2: "tasks are defined as control-flow graph regions among loop
boundaries".  A *task* is a maximal address-contiguous run of code that
lies at one loop level and crosses no loop boundary; the ZOLC's task
selection unit sequences these regions.

This module derives the task set and the transitions between tasks.
The ZOLC code transform and its legality checks consume the loop forest
directly; the task graph is what the LUT in the task selection unit
conceptually stores, and it is reported by ``repro explore`` and the
``loop_explorer`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.loops import LoopForest, NaturalLoop
from repro.cpu.analysis.cfg import CFG


@dataclass
class Task:
    """One CFG region between loop boundaries."""

    id: int
    loop_id: int | None          # innermost loop, None = outside all loops
    start: int                   # first instruction byte address
    end: int                     # last instruction byte address (inclusive)

    @property
    def size_instructions(self) -> int:
        return (self.end - self.start) // 4 + 1


@dataclass
class TaskTransition:
    """One LUT transition: which task follows when ``src`` completes."""

    src: int
    dst: int
    kind: str  # "loop_back" | "loop_exit" | "enter" | "sequential"


@dataclass
class TaskGraph:
    """All tasks plus the transitions the ZOLC must sequence."""

    tasks: list[Task] = field(default_factory=list)
    transitions: list[TaskTransition] = field(default_factory=list)

    def task_at(self, address: int) -> Task | None:
        for task in self.tasks:
            if task.start <= address <= task.end:
                return task
        return None

    def tasks_of_loop(self, loop_id: int | None) -> list[Task]:
        return [t for t in self.tasks if t.loop_id == loop_id]

    @property
    def entry_count(self) -> int:
        """Task-switching LUT entries needed (one per transition)."""
        return len(self.transitions)


def extract_tasks(cfg: CFG, forest: LoopForest) -> TaskGraph:
    """Decompose a program into tasks and task transitions."""
    # Group contiguous runs of slots at the same innermost loop.
    graph = TaskGraph()
    current: Task | None = None
    for slot, block_id in enumerate(cfg.block_of_slot):
        loop = forest.innermost_loop_of(block_id)
        level = loop.id if loop is not None else None
        address = cfg.pc_of(slot)
        if current is not None and level == current.loop_id:
            current.end = address
            continue
        current = Task(id=len(graph.tasks), loop_id=level,
                       start=address, end=address)
        graph.tasks.append(current)

    _derive_transitions(graph, forest)
    return graph


def _derive_transitions(graph: TaskGraph, forest: LoopForest) -> None:
    """Fill in the LUT transitions between extracted tasks."""
    by_loop: dict[int | None, list[Task]] = {}
    for task in graph.tasks:
        by_loop.setdefault(task.loop_id, []).append(task)

    for index, task in enumerate(graph.tasks):
        following = graph.tasks[index + 1] if index + 1 < len(graph.tasks) else None
        if task.loop_id is not None:
            loop = forest.loops[task.loop_id]
            own = by_loop[task.loop_id]
            if task is own[-1]:
                # Last task of the loop body: loop-back plus exit.
                graph.transitions.append(TaskTransition(
                    task.id, own[0].id, "loop_back"))
                exit_task = _first_task_after_loop(graph, forest, loop)
                if exit_task is not None:
                    graph.transitions.append(TaskTransition(
                        task.id, exit_task.id, "loop_exit"))
                continue
        if following is not None:
            kind = "enter" if following.loop_id != task.loop_id else "sequential"
            graph.transitions.append(TaskTransition(task.id, following.id, kind))


def _first_task_after_loop(graph: TaskGraph, forest: LoopForest,
                           loop: NaturalLoop) -> Task | None:
    cfg = forest.cfg
    span_end = cfg.pc_of(max(cfg.blocks[b].end for b in loop.blocks))
    candidates = [t for t in graph.tasks if t.start > span_end]
    return min(candidates, key=lambda t: t.start) if candidates else None
