"""Self-tests of the benchmark's own arithmetic, plans and metric names."""

from __future__ import annotations

import json

import pytest

from perfbench import hostspeed, plans, run
from perfbench.stats import (
    METRIC_NAME,
    band_percentile,
    beyond,
    result_line,
    tail_ok,
)
from perfbench.tracer import COMPILE, RUN, Span, Tracer, self_times
from perfbench.workloads import Phase, cell_count, mismatches


# -- the tail-percentile rule ------------------------------------------

def test_tail_needs_ten_samples_beyond_the_percentile():
    assert not tail_ok([float(i) for i in range(100)], 98)
    assert tail_ok([float(i) for i in range(600)], 98)
    assert tail_ok([float(i) for i in range(110)], 90)
    assert not tail_ok([float(i) for i in range(90)], 90)


def test_ties_at_the_percentile_do_not_count_as_beyond():
    samples = [1.0] * 990 + [2.0] * 10
    assert beyond(samples, 98) == 10
    assert not tail_ok([1.0] * 1000, 98)


def test_a_phase_is_long_enough_only_with_time_and_both_tails():
    phase = Phase(wall_s=10.0, cell_gaps=[float(i) for i in range(600)],
                  plan_latencies=[float(i) for i in range(50)])
    assert not phase.enough(5.0)
    phase.plan_latencies = [float(i) for i in range(200)]
    assert phase.enough(5.0)
    assert not phase.enough(20.0)


def test_a_band_percentile_moves_smoothly_across_a_cluster_edge():
    def p98(slow_cells):
        return band_percentile([1.0] * (1000 - slow_cells)
                               + [2.0] * slow_cells, 98)
    values = [p98(slow) for slow in range(10, 31)]
    steps = [b - a for a, b in zip(values, values[1:])]
    assert min(steps) > 0 and max(steps) < 0.1
    assert band_percentile([float(i) for i in range(1, 101)], 50) \
        == pytest.approx(50.5)


# -- self time on nested spans -----------------------------------------

def test_transform_self_time_excludes_its_nested_assemble():
    spans = [Span(0, "transform", 0.0, 10.0, None, "c"),
             Span(1, "asm", 2.0, 5.0, 0, "c"),
             Span(2, "asm", 6.0, 7.0, 0, "c")]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(6.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(1.0)


def test_run_self_time_subtracts_the_union_of_compile_and_ir_children():
    spans = [Span(0, RUN, 20.0, 30.0, None, "c"),
             Span(1, COMPILE, 21.0, 23.0, 0, "c"),
             Span(2, "cpu.ir", 22.5, 24.0, 0, "c"),
             Span(3, COMPILE, 25.0, 26.0, 0, "c")]
    assert self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 1.0)


def test_wrapped_calls_nest_and_compile_counts_only_inside_run():
    tracer = Tracer()
    compile_ = tracer.wrap(COMPILE, lambda: None, only_inside=RUN)
    assemble = tracer.wrap("asm", lambda: compile_())
    transform = tracer.wrap("transform", lambda: assemble())

    def body():
        compile_()
        transform()
    sim_run = tracer.wrap(RUN, body)

    transform()
    assert [s.name for s in tracer.spans] == ["asm", "transform"]
    sim_run()
    by_id = {s.id: s for s in tracer.spans[2:]}
    parents = sorted((s.name, by_id[s.parent].name if s.parent in by_id
                      else None) for s in by_id.values())
    assert parents == [("asm", "transform"), (COMPILE, "asm"),
                       (COMPILE, RUN), (RUN, None), ("transform", RUN)]
    totals = tracer.totals()
    assert totals["asm"]["calls"] == 2
    assert totals[COMPILE]["calls"] == 2
    for entry in totals.values():
        assert 0.0 <= entry["self"] <= entry["duration"]


def test_installed_patches_are_restored():
    from repro.cpu.simulator import Simulator
    from repro.eval import machines

    run_before = Simulator.__dict__["run"]
    assemble_before = machines.assemble
    with Tracer().installed():
        assert Simulator.__dict__["run"] is not run_before
        assert machines.assemble is not assemble_before
    assert Simulator.__dict__["run"] is run_before
    assert machines.assemble is assemble_before


# -- seeded plans -------------------------------------------------------

def _dicts(specs):
    return [spec.to_dict() for spec in specs]


@pytest.mark.parametrize("generate", [
    plans.cold_round,
    plans.warm_sweep,
    plans.replay_pool,
], ids=["cold_round", "warm_sweep", "replay_pool"])
def test_plans_are_a_function_of_the_seed(generate):
    assert _dicts(generate(7)) == _dicts(generate(7))
    assert _dicts(generate(7)) != _dicts(generate(8))


def test_a_cold_round_outruns_the_prepare_cache():
    from repro.experiments.backends import _PREPARE_CACHE_LIMIT

    round_plans = plans.cold_round(1)
    synth = {spec.kernels[0] for spec in round_plans
             if spec.kernels[0].startswith("synth:")}
    assert len(synth) == 6 * plans.SYNTH_PER_FAMILY
    pairs = sum(cell_count(spec) for spec in round_plans)
    assert pairs == len({(spec.kernels[0], machine.name)
                         for spec in round_plans
                         for machine in spec.machines})
    assert pairs > _PREPARE_CACHE_LIMIT


def test_replay_plans_are_whole_suite_sweeps_over_shared_cells():
    pool = plans.replay_pool(1)
    assert len(pool) == plans.REPLAY_PLANS
    assert {cell_count(spec) for spec in pool} == {380}
    values = {v for spec in pool for v in spec.sweep[0].values}
    assert len(values) == plans.REPLAY_PLANS


def test_mismatches_compare_only_the_produced_columns():
    golden = [{"cycles": 5, "improvement_percent": 1.0}]
    assert mismatches(golden, [{"cycles": 5}]) == 0
    assert mismatches(golden, [{"cycles": 6}]) == 1
    assert mismatches(golden, []) == 1


# -- host-speed scale ------------------------------------------------------

def test_the_scale_is_reference_over_the_median_probe(monkeypatch):
    times = iter([1.0, 3.0, 2.0, 9.0, 1.5])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(times))
    speed = hostspeed.HostSpeed()
    for _ in range(5):
        speed.sample()
    assert speed.scale() == pytest.approx(hostspeed.REFERENCE_S / 2.0)
    assert speed.scale(3) == pytest.approx(hostspeed.REFERENCE_S / 5.25)


def test_a_round_is_scaled_by_its_own_probes(monkeypatch):
    ref = hostspeed.REFERENCE_S
    times = iter([ref, ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(times))
    phase = Phase()
    for latency in (1.0, 3.0):  # a fast round, then a slow one
        mark = phase.mark()
        for _ in range(2):
            phase.speed.sample()
            phase.plan_latencies.append(latency)
            phase.busy_s += latency
            phase.cells += 5
        phase.close_round(mark)
    assert phase.scales == [1.0, 0.5]
    assert phase.plan_latencies == [1.0, 1.0, 1.5, 1.5]
    assert [seconds for seconds, _, _ in phase.rounds] == [2.0, 3.0]


# -- metric names --------------------------------------------------------

def test_every_metric_name_fits_the_grammar():
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name
    for bad in ("", ".lead", "has space", "x" * 65, "semi;colon"):
        assert not METRIC_NAME.fullmatch(bad)
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {"bad name": {"value": 1, "unit": "s"}})


def test_benchmark_json_declares_the_metrics_the_runner_prints():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
