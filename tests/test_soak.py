"""The differential soak loop: budget, discovery, shrinking, pinning.

The clean-path tests run the real step-vs-auto comparison over the real
corpus (every kernel must agree bit-identically).  The failure-path
tests inject a deliberately broken ``auto`` run loop — the corruption is
unconditional, so the shrinker's greedy ladder walk must reach the
knob floor — and assert the full discover → shrink → pin → nonzero-exit
contract end to end, including through the CLI.
"""

import json
from pathlib import Path

import pytest

import repro.cpu.simulator as simulator_module
from repro.cli import main
from repro.synth import FAMILY_NAMES, generate_kernel
from repro.synth.soak import (
    SOAK_ENGINES,
    find_disagreement,
    run_observation,
    run_soak,
    write_regression,
)

#: The knob floor the shrink ladder converges to when *every* kernel
#: fails (see ``shrunk_knob_candidates``): all ranges collapsed.
FLOOR = {"min_nests": 1, "max_nests": 1, "min_depth": 1, "max_depth": 1,
         "min_body_ops": 1, "max_body_ops": 1, "min_trips": 1,
         "max_trips": 1, "body_shapes": [0], "early_exit_den": 0}


def _break_auto_engine(monkeypatch):
    """Make the ``auto`` run loop miscount cycles (every kernel, always)."""
    real = simulator_module.run_traced

    def broken(sim, max_steps, predecoded):
        real(sim, max_steps, predecoded)
        sim.stats.cycles += 1

    monkeypatch.setattr(simulator_module, "run_traced", broken)


class TestCleanSoak:
    def test_min_kernels_floor_beats_a_zero_budget(self, tmp_path):
        report = run_soak(budget_seconds=0.0, min_kernels=6,
                          regressions_dir=None)
        assert report.ok
        assert report.kernels_run >= 6
        assert set(report.per_family) <= set(FAMILY_NAMES)
        assert not list(tmp_path.iterdir())  # nothing pinned anywhere

    def test_max_kernels_stops_after_one_round(self):
        report = run_soak(budget_seconds=60.0, max_kernels=1,
                          regressions_dir=None)
        # Rounds are whole family sweeps; the cap is checked between
        # rounds, so one round of every family runs.
        assert report.kernels_run == len(FAMILY_NAMES)
        assert report.ok and report.elapsed_seconds < 60.0

    def test_report_serializes_for_ci_artifacts(self):
        report = run_soak(budget_seconds=0.0, min_kernels=1,
                          families=("baseline",), regressions_dir=None)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["mismatches"] == 0
        assert payload["seed"] == 0
        assert payload["families"] == ["baseline"]
        assert payload["kernels_run"] == report.kernels_run

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one family"):
            run_soak(budget_seconds=0.0, families=())
        with pytest.raises(ValueError, match="reference engine"):
            run_soak(budget_seconds=0.0, engines=("step",))

    def test_fault_outcomes_are_comparable(self):
        kernel = generate_kernel("baseline", 0, 0)
        outcome = run_observation(kernel, "step", max_steps=1)
        assert outcome[0] == "fault" and outcome[1] == "WatchdogError"


class TestBrokenTier:
    def test_soak_discovers_shrinks_and_pins(self, monkeypatch, tmp_path):
        _break_auto_engine(monkeypatch)
        report = run_soak(budget_seconds=60.0, max_kernels=1,
                          families=("branchy",), regressions_dir=tmp_path)
        assert not report.ok
        failure = report.failures[0]
        assert failure.engine == "auto"
        assert failure.kernel_name == "synth:branchy:0:0"
        # Unconditional corruption: the greedy ladder walk must reach
        # the knob floor — the minimal kernel the space can express.
        floor_view = {key: failure.shrunk_knobs[key] for key in FLOOR}
        assert floor_view == FLOOR
        # ...and the reproducer is pinned as a self-contained pair.
        manifest_path = Path(failure.regression_path)
        assert manifest_path.parent == tmp_path
        manifest = json.loads(manifest_path.read_text())
        source = (tmp_path / manifest["source_file"]).read_text()
        assert manifest["mismatching_engine"] == "auto"
        assert manifest["provenance"]["knobs"] == failure.shrunk_knobs
        assert source  # non-empty program text rode along

    def test_disagreement_names_the_engine_and_outcomes(self, monkeypatch):
        _break_auto_engine(monkeypatch)
        kernel = generate_kernel("baseline", 0, 0)
        engine, reference, outcome = find_disagreement(kernel)
        assert engine == "auto"
        assert reference[0] == "ok" and outcome[0] == "ok"
        assert reference != outcome

    def test_cli_soak_exits_nonzero_and_pins(self, monkeypatch, tmp_path,
                                             capsys):
        _break_auto_engine(monkeypatch)
        rc = main(["soak", "--budget-seconds", "60", "--max-kernels", "1",
                   "--family", "branchy", "--no-shrink", "-q",
                   "--regressions-dir", str(tmp_path), "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["mismatches"] == 1
        assert payload["failures"][0]["engine"] == "auto"
        assert list(tmp_path.glob("*.json")) and list(tmp_path.glob("*.s"))

    def test_clean_cli_soak_exits_zero(self, tmp_path, capsys):
        rc = main(["soak", "--budget-seconds", "0", "--min-kernels", "1",
                   "--family", "baseline", "-q",
                   "--regressions-dir", str(tmp_path), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["mismatches"] == 0
        assert not list(tmp_path.iterdir())


class TestWriteRegression:
    def test_pinned_pair_is_self_contained(self, tmp_path):
        kernel = generate_kernel("deep_nest", 0, 1)
        manifest_path = write_regression(kernel, "auto", tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kernel"] == kernel.name
        assert manifest["engines"] == list(SOAK_ENGINES)
        assert manifest["machine"] == kernel.machine.to_dict()
        source = (tmp_path / manifest["source_file"]).read_text()
        assert source == kernel.source
