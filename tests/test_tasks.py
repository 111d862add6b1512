"""Unit tests for task extraction (the paper's program decomposition)."""

from repro.asm import assemble
from repro.cfg import build_cfg, extract_tasks, find_loops

NON_PERFECT = """
main:   li   t0, 3        # pre task
outer:  li   s0, 1        # outer body task A
        li   t1, 2
inner:  add  s0, s0, s0   # inner body task B
        addi t1, t1, -1
        bne  t1, zero, inner
        add  s1, s1, s0   # outer trailing task C
        addi t0, t0, -1
        bne  t0, zero, outer
        halt              # post task
"""


def _graph(source):
    cfg = build_cfg(assemble(source))
    forest = find_loops(cfg)
    return cfg, forest, extract_tasks(cfg, forest)


class TestTaskPartition:
    def test_non_perfect_nest_tasks(self):
        _, forest, graph = _graph(NON_PERFECT)
        # pre, outer-A, inner-B, outer-C, post
        assert len(graph.tasks) == 5

    def test_tasks_cover_all_instructions(self):
        _, _, graph = _graph(NON_PERFECT)
        covered = sum(t.size_instructions for t in graph.tasks)
        assert covered == len(assemble(NON_PERFECT).instructions)

    def test_task_levels(self):
        _, forest, graph = _graph(NON_PERFECT)
        by_loop = {}
        for task in graph.tasks:
            by_loop.setdefault(task.loop_id, []).append(task)
        assert len(by_loop[None]) == 2          # pre + post
        inner = next(lp for lp in forest.loops if lp.depth == 2)
        outer = next(lp for lp in forest.loops if lp.depth == 1)
        assert len(by_loop[inner.id]) == 1
        assert len(by_loop[outer.id]) == 2      # A and C

    def test_task_at_lookup(self):
        _, _, graph = _graph(NON_PERFECT)
        task = graph.task_at(0)
        assert task is not None and task.loop_id is None
        assert graph.task_at(0x7FFF_FFFF) is None


class TestTransitions:
    def test_loop_back_transition_exists(self):
        _, forest, graph = _graph(NON_PERFECT)
        kinds = {t.kind for t in graph.transitions}
        assert "loop_back" in kinds
        assert "loop_exit" in kinds

    def test_inner_loop_back_targets_itself(self):
        _, forest, graph = _graph(NON_PERFECT)
        inner = next(lp for lp in forest.loops if lp.depth == 2)
        inner_task = graph.tasks_of_loop(inner.id)[0]
        backs = [t for t in graph.transitions
                 if t.src == inner_task.id and t.kind == "loop_back"]
        assert len(backs) == 1
        assert backs[0].dst == inner_task.id

    def test_entry_count_positive(self):
        _, _, graph = _graph(NON_PERFECT)
        assert graph.entry_count >= 4

    def test_straight_line_program(self):
        cfg = build_cfg(assemble("nop\nnop\nhalt\n"))
        forest = find_loops(cfg)
        graph = extract_tasks(cfg, forest)
        assert len(graph.tasks) == 1
        assert all(t.kind == "sequential" for t in graph.transitions)
