#!/usr/bin/env python3
"""Loop-structure explorer: see a program the way the ZOLC sees it.

Takes a benchmark (default: the three-step-search motion estimation
kernel, the most control-heavy in the suite), prints its CFG, loop
nesting forest, task decomposition (the paper's "CFG regions among loop
boundaries"), the overhead pattern recognised for each loop, and the
transform plan under each ZOLC configuration.

Run:  python examples/loop_explorer.py [kernel-name]
"""

import sys

from repro.asm import assemble
from repro.cfg import build_cfg, extract_tasks, find_loops
from repro.core import CANONICAL_CONFIGS
from repro.transform import match_all_loops, plan_transform
from repro.workloads.suite import registry


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "me_tss"
    kernel = registry().get(name)
    program = assemble(kernel.source)
    cfg = build_cfg(program)
    forest = find_loops(cfg)

    print(f"=== {kernel.name}: {kernel.description} ===")
    print(f"{len(program.instructions)} instructions, "
          f"{len(cfg.blocks)} basic blocks, {len(forest.loops)} loops "
          f"(max depth {forest.max_depth()})")

    print("\n--- loop nesting forest ---")
    def show(loop, indent):
        header = cfg.pc_of(cfg.blocks[loop.header].start)
        flags = []
        if loop.is_multi_exit():
            flags.append("multi-exit")
        if loop.is_innermost():
            flags.append("innermost")
        print(f"{'  ' * indent}loop {loop.id}: header {header:#x}, "
              f"{len(loop.blocks)} blocks, depth {loop.depth}"
              f"{' [' + ', '.join(flags) + ']' if flags else ''}")
        for child_id in loop.children:
            show(forest.loops[child_id], indent + 1)
    for root in forest.roots():
        show(root, 1)

    print("\n--- task decomposition (regions among loop boundaries) ---")
    graph = extract_tasks(cfg, forest)
    for task in graph.tasks:
        level = f"loop {task.loop_id}" if task.loop_id is not None else "top"
        print(f"task {task.id}: [{task.start:#06x}..{task.end:#06x}] "
              f"{task.size_instructions:>3} instrs  ({level})")
    print(f"{len(graph.transitions)} task transitions "
          f"({graph.entry_count} LUT entries)")

    print("\n--- overhead patterns ---")
    patterns, failures = match_all_loops(program, cfg, forest)
    for loop_id, pattern in sorted(patterns.items()):
        print(f"loop {loop_id}: {pattern.style}, index r{pattern.index_reg}, "
              f"step {pattern.step}, trips {pattern.trips.kind} "
              f"{pattern.trips.value}, "
              f"{len(pattern.exit_branches)} data-dependent exit(s)")
    for loop_id, reason in sorted(failures.items()):
        print(f"loop {loop_id}: NOT RECOGNISED — {reason}")

    print("\n--- transform plans ---")
    for config in CANONICAL_CONFIGS:
        plan = plan_transform(program, cfg, forest, patterns, failures,
                              config)
        driven = sorted(plan.selected_forest_ids)
        print(f"{config.name:<10} drives loops {driven or 'none'} "
              f"in {len(plan.groups)} group(s)")
        for loop_id, reason in sorted(plan.rejected.items()):
            if loop_id not in failures:
                print(f"    loop {loop_id} rejected: {reason}")


if __name__ == "__main__":
    main()
