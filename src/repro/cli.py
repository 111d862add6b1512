"""Command-line interface: ``python -m repro <command>``.

Commands::

    kernels                     list the benchmark suite
    run KERNEL [-m MACHINE]     run one kernel on one machine
    compare KERNEL              run one kernel on all five machines
    figure2 [-j N]              regenerate Figure 2 (the headline result)
    experiment PLAN             run a declarative plan file (JSON/TOML)
    serve [--port N]            serve plans over HTTP (jobs + event streams)
    submit PLAN [--url U]       submit a plan to a running service
    synth {list,describe,emit}  seeded synthetic kernel corpora
    soak [--budget-seconds N]   budgeted differential engine soak
    resources                   regenerate the storage/area tables (E3/E4)
    timing                      regenerate the cycle-time report (E5)
    check [--kernel K|--all] [-m MACHINE] [--audit-codegen]
                                statically verify kernel/machine pairs
    disasm KERNEL [-m MACHINE]  disassemble a (transformed) kernel
    explore KERNEL              loop/task structure report
    sweep {penalty,switch-cost,nesting}   run an ablation sweep
    tables KERNEL [-m MACHINE]  dump ZOLC tables after a run

``run``, ``compare``, ``figure2``, ``sweep`` and ``experiment`` accept
``--json`` (machine-readable stdout) and ``--out FILE`` (write the JSON
payload to a file, keeping the human-readable report on stdout).
``run``, ``experiment`` and ``submit`` also accept ``--engine``
(``auto``, the default everywhere, or ``step``, the stepped oracle —
both retire bit-identical results, so the choice only affects host
time; an unknown engine exits 1).  ``figure2``, ``experiment`` and
``serve`` accept ``--jobs N``, the one choice of where cells run:
``1`` runs them in-process, ``0`` uses one worker process per CPU and
``N`` uses ``N``.  Unset, ``figure2`` and ``experiment`` run
in-process (or as the plan's ``jobs`` key says) and ``serve`` keeps one
warm worker per CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.asm import assemble, disassemble_program
from repro.eval.figures import figure2, render_figure2
from repro.eval.machines import ALL_MACHINES, XR_DEFAULT, machine_by_name
from repro.eval.metrics import improvement_percent
from repro.eval.report import (
    render_area_breakdown,
    render_resource_table,
    render_storage_breakdown,
    render_timing_report,
)
from repro.eval.runner import run_kernel
from repro.experiments.config import RunConfig
from repro.service.client import ServiceError
from repro.workloads.api import KernelCheckError
from repro.workloads.suite import registry


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    """Honour ``--json`` / ``--out`` for one command's result."""
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="print the result as JSON instead of text")
    parser.add_argument("-o", "--out", metavar="FILE", default=None,
                        help="also write the JSON result to FILE")


def _cmd_kernels(args: argparse.Namespace) -> int:
    reg = registry()
    print(f"{'name':<14} {'category':<10} description")
    print("-" * 66)
    for kernel in reg.all():
        print(f"{kernel.name:<14} {kernel.category:<10} {kernel.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    kernel = registry().get(args.kernel)
    machine = machine_by_name(args.machine)
    result = run_kernel(kernel, machine,
                        RunConfig(engine=_parse_engine(args.engine)))
    lines = [f"{kernel.name} on {machine.name}: verified={result.verified}",
             f"  cycles        {result.cycles}",
             f"  instructions  {result.instructions}",
             f"  CPI           {result.cpi:.3f}"]
    if machine.kind == "zolc":
        lines.append(f"  loops driven  {result.transformed_loops}")
        lines.append(f"  task switches {result.zolc_task_switches}")
        lines.append(f"  init instrs   {result.zolc_init_instructions}")
    _emit(args, result.record(), "\n".join(lines))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    kernel = registry().get(args.kernel)
    lines = [f"{kernel.name}: {kernel.description}"]
    records = []
    baseline = None
    for machine in ALL_MACHINES:
        result = run_kernel(kernel, machine)
        if baseline is None:
            baseline = result.cycles
        saved = improvement_percent(result.cycles, baseline)
        record = result.record()
        record["improvement_percent"] = round(saved, 4)
        records.append(record)
        lines.append(f"  {machine.name:<10} {result.cycles:>9} cycles"
                     f"  ({saved:5.1f} % vs XRdefault)")
    _emit(args, {"kernel": kernel.name, "records": records},
          "\n".join(lines))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    data = figure2(jobs=args.jobs)
    _emit(args, data.to_dict(), render_figure2(data))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_plan

    # --jobs / --engine are parsed here (not by an argparse type= /
    # choices=) so an invalid value exits 1 through main()'s ValueError
    # handler, like every other bad input to this command.  Unset
    # flags defer to the plan's own jobs/engine keys.
    jobs = _parse_jobs(args.jobs) if args.jobs is not None else None
    engine = _parse_engine(args.engine) if args.engine is not None else None
    config = RunConfig(engine=engine, jobs=jobs, store=args.store,
                       cache=False if args.no_cache else None)
    result = run_plan(args.plan, config)
    _emit(args, result.to_dict(), result.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.backends import ProcessBackend, SerialBackend
    from repro.service import JobManager, start_in_thread

    jobs = _parse_jobs(args.jobs) if args.jobs is not None else None
    if jobs == 1:
        backend, workers = SerialBackend(), "in-process"
    else:
        # Persistent pool: workers survive across jobs, so their
        # prepared-kernel / generated-code caches stay warm — a warm
        # worker re-simulating a known (kernel, machine) pair
        # recompiles nothing.
        backend = ProcessBackend(persistent=True, jobs=jobs)
        workers = backend.worker_count()
    manager = JobManager(store=None if args.no_cache else args.store,
                         backend=backend)
    handle = start_in_thread(manager, args.host, args.port)
    print(f"repro serve listening on {handle.url} "
          f"(store: {'disabled' if args.no_cache else args.store}, "
          f"workers: {workers})")
    try:
        handle.join()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        handle.stop()
        manager.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    path = Path(args.plan)
    fmt = path.suffix.lower().lstrip(".")
    if fmt not in ("json", "toml"):
        raise ValueError(f"plan file {path.name!r} must end in .json "
                         "or .toml")
    client = ServiceClient(args.url)
    quiet = args.json or args.quiet
    run_config = {}
    if args.engine is not None:
        run_config["engine"] = _parse_engine(args.engine)

    with contextlib.ExitStack() as stack:
        events_log = stack.enter_context(
            open(args.events_out, "w")) if args.events_out else None

        def on_event(event: dict) -> None:
            if events_log is not None:
                events_log.write(json.dumps(event) + "\n")
            if quiet:
                return
            if event.get("event") == "cell":
                axes = event.get("axes") or {}
                detail = "".join(f" {k}={v}" for k, v in axes.items())
                print(f"  {event['source']:<12} {event['kernel']} on "
                      f"{event['machine']}{detail}")
            else:
                print(f"  job {event['event']}")

        payload = client.run(path.read_text(), fmt, on_event=on_event,
                             run_config=run_config or None)
    counts = payload["events"]
    summary = ", ".join(f"{counts.get(s, 0)} {s}" for s in
                        ("simulated", "cached", "deduplicated", "failed"))
    lines = [f"job {payload['job']}"
             f"{' (coalesced with an in-flight twin)' if payload['coalesced'] else ''}"
             f": {payload['state']} ({summary})"]
    if payload["error"]:
        lines.append(f"  error: {payload['error']}")
    _emit(args, payload, "\n".join(lines))
    return 0 if payload["state"] == "done" else 1


def _cmd_synth_list(args: argparse.Namespace) -> int:
    from repro.synth import FAMILIES
    from repro.synth.draw import GENERATOR_VERSION

    lines = [f"{'family':<17} description"]
    lines.append("-" * 72)
    lines.extend(f"{fam.name:<17} {fam.description}"
                 for fam in FAMILIES.values())
    lines.append("")
    lines.append("address a corpus as synth:<family>:<seed>:<count> "
                 "(plans, check, soak)")
    payload = {
        "generator": f"repro.synth v{GENERATOR_VERSION}",
        "families": [{"name": fam.name, "description": fam.description,
                      "machine_pool": list(fam.machine_pool)}
                     for fam in FAMILIES.values()],
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_synth_describe(args: argparse.Namespace) -> int:
    from repro.synth import family, generate_kernel

    fam = family(args.family)  # unknown names exit 2 via KeyError
    sample = generate_kernel(fam.name, 0, 0)
    knobs = fam.knobs.to_dict()
    lines = [f"{fam.name}: {fam.description}",
             f"  machine pool   {', '.join(fam.machine_pool)}",
             f"  pipeline       "
             f"{'randomized' if fam.randomize_pipeline else 'default'}",
             "  knobs:"]
    lines.extend(f"    {key:<15} {value}" for key, value in knobs.items())
    lines.append(f"  member 0 at seed 0: {len(sample.source.splitlines())} "
                 f"source lines on {sample.machine.name}")
    lines.append(f"  selector example: synth:{fam.name}:0:10")
    payload = {"family": fam.name, "description": fam.description,
               "machine_pool": list(fam.machine_pool),
               "randomize_pipeline": fam.randomize_pipeline,
               "knobs": knobs,
               "sample": sample.provenance}
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_synth_emit(args: argparse.Namespace) -> int:
    from repro.synth import emit_corpus, parse_selector

    spec = parse_selector(args.selector)  # bad selectors exit 1
    manifest = emit_corpus(spec, args.dir)
    _emit(args, manifest,
          f"wrote {spec.count} kernels + manifest.json to {args.dir}")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.synth import FAMILY_NAMES, family
    from repro.synth.soak import run_soak

    families = tuple(args.family) or FAMILY_NAMES
    for name in families:
        family(name)  # unknown names exit 2 via KeyError
    progress = None if (args.quiet or args.json) else print
    report = run_soak(
        budget_seconds=args.budget_seconds,
        seed=args.seed,
        families=families,
        max_kernels=args.max_kernels,
        min_kernels=args.min_kernels,
        regressions_dir=args.regressions_dir,
        shrink=not args.no_shrink,
        progress=progress,
    )
    lines = [f"soaked {report.kernels_run} kernels in "
             f"{report.elapsed_seconds:.1f}s (seed {report.seed}, "
             f"engines {'/'.join(report.engines)})"]
    lines.append("  per family: " + " ".join(
        f"{name}={count}" for name, count in report.per_family.items()))
    lines.append(f"  mismatches: {len(report.failures)}")
    for failure in report.failures:
        lines.append(f"  MISMATCH {failure.kernel_name} "
                     f"engine={failure.engine}")
        lines.append(f"    shrunk to {failure.shrunk_name} "
                     f"-> {failure.regression_path}")
    _emit(args, report.to_dict(), "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.eval.check import run_check

    if args.kernel and args.all:
        raise ValueError("--kernel and --all are mutually exclusive")
    report = run_check(kernel_names=args.kernel or None,
                       machine_names=args.machine or None,
                       audit=args.audit_codegen)
    shown = [d for d in report.diagnostics
             if d.severity != "info" or args.verbose]
    lines = [f"checked {len(report.kernels)} kernels x "
             f"{len(report.machines)} machines"
             f"{' (codegen audited)' if report.audited else ''}: "
             f"{report.errors} errors, {report.warnings} warnings, "
             f"{report.count('info')} info"]
    lines.extend(
        f"  [{d.rule}] {d.severity}: {d.kernel}/{d.machine}: {d.message}"
        for d in shown)
    _emit(args, report.to_dict(), "\n".join(lines))
    return 1 if report.errors else 0


def _cmd_resources(args: argparse.Namespace) -> int:
    print(render_resource_table())
    print()
    print(render_storage_breakdown())
    print()
    print(render_area_breakdown())
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    print(render_timing_report())
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    kernel = registry().get(args.kernel)
    machine = machine_by_name(args.machine)
    prepared = machine.prepare(kernel.source)
    print(f"# {kernel.name} prepared for {machine.name}")
    print(disassemble_program(prepared.program))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval.ablation import run_sweep

    result = run_sweep(args.sweep)
    _emit(args, result.to_dict(), result.render())
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.core.debug import dump_tables

    kernel = registry().get(args.kernel)
    machine = machine_by_name(args.machine)
    if machine.kind != "zolc":
        print("tables requires a ZOLC machine (-m uZOLC/ZOLClite/ZOLCfull)",
              file=sys.stderr)
        return 2
    prepared = machine.prepare(kernel.source)
    simulator = prepared.make_simulator()
    simulator.run()
    print(dump_tables(simulator.zolc))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.cfg import build_cfg, extract_tasks, find_loops

    kernel = registry().get(args.kernel)
    program = assemble(kernel.source)
    cfg = build_cfg(program)
    forest = find_loops(cfg)
    graph = extract_tasks(cfg, forest)
    print(f"{kernel.name}: {len(program.instructions)} instructions, "
          f"{len(cfg.blocks)} blocks, {len(forest.loops)} loops "
          f"(max depth {forest.max_depth()}), {len(graph.tasks)} tasks")
    for loop in forest.loops:
        header = cfg.pc_of(cfg.blocks[loop.header].start)
        print(f"  loop {loop.id}: header {header:#06x} depth {loop.depth}"
              f" blocks {len(loop.blocks)}"
              f"{' multi-exit' if loop.is_multi_exit() else ''}")
    for task in graph.tasks:
        level = f"loop {task.loop_id}" if task.loop_id is not None else "top"
        print(f"  task {task.id}: [{task.start:#06x}..{task.end:#06x}]"
              f" ({level})")
    return 0


def _parse_jobs(text: str) -> int:
    """Validate a worker count, raising :class:`ValueError` (exit 1)."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"jobs must be an integer, got {text!r}") from None
    if value < 0:
        raise ValueError(f"jobs must be >= 0, got {value}")
    return value


def _parse_engine(text: str) -> str:
    """Validate an engine name, raising :class:`ValueError` (exit 1).

    Same discipline as ``_parse_jobs``: the ``--engine`` override is
    validated before anything runs, against the one canonical tuple
    the simulator and the experiment layer also use.
    """
    from repro.cpu.simulator import ENGINES

    if text not in ENGINES:
        raise ValueError(
            f"unknown engine {text!r}; known: {', '.join(ENGINES)}")
    return text


def _jobs_count(text: str) -> int:
    """argparse ``type=`` wrapper around :func:`_parse_jobs` (exit 2)."""
    try:
        return _parse_jobs(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZOLC reproduction (Kavvadias & Nikolaidis, DATE 2005)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list benchmarks").set_defaults(
        func=_cmd_kernels)

    run_parser = sub.add_parser("run", help="run one kernel")
    run_parser.add_argument("kernel")
    run_parser.add_argument("-m", "--machine", default=XR_DEFAULT.name)
    run_parser.add_argument(
        "--engine", default="auto", metavar="NAME",
        help="simulator engine: auto or step (engines are "
             "bit-identical; invalid values exit 1)")
    _add_output_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser("compare",
                                    help="run one kernel on all machines")
    compare_parser.add_argument("kernel")
    _add_output_flags(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    figure2_parser = sub.add_parser("figure2", help="regenerate Figure 2")
    figure2_parser.add_argument(
        "-j", "--jobs", type=_jobs_count, default=None, metavar="N",
        help="run the suite on N worker processes (0 = one per CPU)")
    _add_output_flags(figure2_parser)
    figure2_parser.set_defaults(func=_cmd_figure2)

    experiment_parser = sub.add_parser(
        "experiment", help="run a declarative plan file (JSON/TOML)")
    experiment_parser.add_argument("plan", help="path to PLAN.{json,toml}")
    experiment_parser.add_argument(
        "-j", "--jobs", default=None, metavar="N",
        help="worker processes, overriding the plan's jobs key (1 = "
             "in-process, 0 = one per CPU; default: the plan's jobs, "
             "else in-process; invalid values exit 1)")
    experiment_parser.add_argument(
        "--engine", default=None, metavar="NAME",
        help="simulator engine for every cell (auto/step), "
             "overriding the plan's engine key (invalid values exit 1)")
    experiment_parser.add_argument(
        "--store", default="results", metavar="DIR",
        help="result-store directory (default: results)")
    experiment_parser.add_argument(
        "--no-cache", action="store_true",
        help="re-simulate every cell, bypassing the result store")
    _add_output_flags(experiment_parser)
    experiment_parser.set_defaults(func=_cmd_experiment)

    serve_parser = sub.add_parser(
        "serve", help="serve experiment plans over HTTP")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="bind port (default: 8765; 0 binds an "
                                   "ephemeral port)")
    serve_parser.add_argument(
        "-j", "--jobs", default=None, metavar="N",
        help="workers of the persistent warm pool every job runs on "
             "(0/default = one per CPU, 1 = in-process; invalid values "
             "exit 1)")
    serve_parser.add_argument(
        "--store", default="results", metavar="DIR",
        help="result-store directory shared by every job "
             "(default: results)")
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result store (every job re-simulates)")
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit a plan to a running repro serve")
    submit_parser.add_argument("plan", help="path to PLAN.{json,toml}")
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8765", metavar="URL",
        help="service base URL (default: http://127.0.0.1:8765)")
    submit_parser.add_argument(
        "--events-out", default=None, metavar="FILE",
        help="also write the raw NDJSON event stream to FILE")
    submit_parser.add_argument(
        "--engine", default=None, metavar="NAME",
        help="per-job engine override (auto/step; rides in the /v1 "
             "submit body's run_config; JSON plans only)")
    submit_parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the per-cell event lines")
    _add_output_flags(submit_parser)
    submit_parser.set_defaults(func=_cmd_submit)

    synth_parser = sub.add_parser(
        "synth", help="seeded synthetic kernel corpora")
    synth_sub = synth_parser.add_subparsers(dest="action", required=True)
    synth_list = synth_sub.add_parser("list", help="list corpus families")
    _add_output_flags(synth_list)
    synth_list.set_defaults(func=_cmd_synth_list)
    synth_describe = synth_sub.add_parser(
        "describe", help="show one family's knobs and bindings")
    synth_describe.add_argument("family", help="corpus family name")
    _add_output_flags(synth_describe)
    synth_describe.set_defaults(func=_cmd_synth_describe)
    synth_emit = synth_sub.add_parser(
        "emit", help="write a corpus as .s files + manifest.json")
    synth_emit.add_argument(
        "selector", help="corpus selector: synth:<family>:<seed>:<count>")
    synth_emit.add_argument("dir", help="output directory")
    _add_output_flags(synth_emit)
    synth_emit.set_defaults(func=_cmd_synth_emit)

    soak_parser = sub.add_parser(
        "soak", help="budgeted differential soak over the synth corpus")
    soak_parser.add_argument(
        "--budget-seconds", type=float, default=60.0, metavar="SECONDS",
        help="wall-clock discovery budget (default: 60)")
    soak_parser.add_argument(
        "--seed", type=int, default=0,
        help="corpus seed every family streams from (default: 0)")
    soak_parser.add_argument(
        "--family", action="append", metavar="NAME", default=[],
        help="corpus family to soak (repeatable; default: all families, "
             "round-robin)")
    soak_parser.add_argument(
        "--min-kernels", type=int, default=0, metavar="N",
        help="keep soaking past the budget until N kernels ran")
    soak_parser.add_argument(
        "--max-kernels", type=int, default=None, metavar="N",
        help="stop after N kernels even with budget left")
    soak_parser.add_argument(
        "--regressions-dir", default=str(Path("tests") / "regressions"),
        metavar="DIR",
        help="where shrunk reproducers get pinned "
             "(default: tests/regressions)")
    soak_parser.add_argument(
        "--no-shrink", action="store_true",
        help="pin failing kernels as-is instead of minimizing them")
    soak_parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-interval progress lines")
    _add_output_flags(soak_parser)
    soak_parser.set_defaults(func=_cmd_soak)

    check_parser = sub.add_parser(
        "check", help="statically verify kernels (and audit codegen)")
    check_parser.add_argument(
        "-k", "--kernel", action="append", metavar="NAME", default=[],
        help="kernel(s) to check (repeatable; accepts "
             "synth:<family>:<seed>:<count> selectors; default: the "
             "whole suite)")
    check_parser.add_argument(
        "--all", action="store_true",
        help="check the whole suite (the default; conflicts with "
             "--kernel)")
    check_parser.add_argument(
        "-m", "--machine", action="append", metavar="NAME", default=[],
        help="machine(s) to check on (repeatable; default: every "
             "registered machine)")
    check_parser.add_argument(
        "--audit-codegen", action="store_true",
        help="also parse each tier's generated Python and cross-check "
             "it against the IR (rules AU001-AU005, including the "
             "trace JIT's guard tables)")
    check_parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print info-severity findings")
    _add_output_flags(check_parser)
    check_parser.set_defaults(func=_cmd_check)

    sub.add_parser("resources", help="E3/E4 resource tables").set_defaults(
        func=_cmd_resources)
    sub.add_parser("timing", help="E5 cycle-time report").set_defaults(
        func=_cmd_timing)

    disasm_parser = sub.add_parser("disasm", help="disassemble a kernel")
    disasm_parser.add_argument("kernel")
    disasm_parser.add_argument("-m", "--machine", default=XR_DEFAULT.name)
    disasm_parser.set_defaults(func=_cmd_disasm)

    explore_parser = sub.add_parser("explore", help="loop/task structure")
    explore_parser.add_argument("kernel")
    explore_parser.set_defaults(func=_cmd_explore)

    sweep_parser = sub.add_parser("sweep", help="run a named ablation sweep")
    sweep_parser.add_argument("sweep",
                              choices=("penalty", "switch-cost", "nesting"))
    _add_output_flags(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    tables_parser = sub.add_parser(
        "tables", help="dump ZOLC tables after running a kernel")
    tables_parser.add_argument("kernel")
    tables_parser.add_argument("-m", "--machine", default="ZOLClite")
    tables_parser.set_defaults(func=_cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KernelCheckError as exc:
        print(f"error: golden check failed: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
