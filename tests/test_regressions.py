"""Replay every pinned soak regression, forever.

``repro soak`` pins each shrunk differential failure under
``tests/regressions/`` as a self-contained ``.s`` + manifest pair;
this suite replays every checked-in pair through all of its manifest's
engines and asserts bit-identical observations — so a fixed bug stays
fixed without the generator, the corpus or any seeds in the loop.

A manifest with ``"oracle": "machine"`` pins a transform bug rather
than an engine bug: every engine agrees on the wrong answer, so the
replay also checks the machine's data segment and ``s*`` registers
against a stepped run of the same source on the untransformed
XRdefault machine.
"""

import json
from pathlib import Path

import pytest

from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import M_ZOLC_FULL, XR_DEFAULT, MachineSpec
from repro.synth import generate_kernel
from repro.synth.observe import memory_image, observe
from repro.synth.soak import write_regression

REGRESSIONS_DIR = Path(__file__).parent / "regressions"

MANIFESTS = sorted(REGRESSIONS_DIR.glob("*.json"))

#: The callee-saved registers s0..s7 — the synth kernels' live-outs.
S_REGS = range(16, 24)


def live_out(sim):
    """The data segment and ``s*`` registers of a finished run."""
    return (memory_image(sim)[sim.program.data_base:],
            tuple(sim.state.regs.read(reg) for reg in S_REGS))


def replay(manifest_path: Path) -> None:
    """Assert every engine in the manifest observes identical state."""
    manifest = json.loads(manifest_path.read_text())
    source = (manifest_path.parent / manifest["source_file"]).read_text()
    machine = MachineSpec.from_dict(manifest["machine"])
    pipeline = PipelineConfig(**manifest["pipeline"])
    prepared = machine.prepare(source)
    sims = {}
    observations = {}
    for engine in manifest["engines"]:
        sim = sims[engine] = prepared.make_simulator(pipeline=pipeline)
        sim.run(max_steps=manifest["max_steps"], engine=engine)
        observations[engine] = observe(sim)
    reference_engine = manifest["engines"][0]
    reference = observations[reference_engine]
    for engine, observation in observations.items():
        assert observation == reference, (
            f"{manifest['kernel']}: {engine} diverged from "
            f"{reference_engine} (regressed: {manifest_path.name})")
    if manifest.get("oracle") == "machine":
        oracle = XR_DEFAULT.prepare(source).make_simulator(pipeline=pipeline)
        oracle.run(max_steps=manifest["max_steps"], engine="step")
        assert live_out(sims[reference_engine]) == live_out(oracle), (
            f"{manifest['kernel']}: {machine.name} diverged from the "
            f"XRdefault oracle (regressed: {manifest_path.name})")


@pytest.mark.parametrize("manifest_path", MANIFESTS,
                         ids=lambda path: path.stem)
def test_pinned_regression_replays_bit_identical(manifest_path):
    replay(manifest_path)


MACHINE_ORACLE_MANIFESTS = [
    path for path in MANIFESTS
    if json.loads(path.read_text()).get("oracle") == "machine"]


@pytest.mark.parametrize("manifest_path", MACHINE_ORACLE_MANIFESTS,
                         ids=lambda path: path.stem)
def test_machine_oracle_catches_the_pinned_transform_bug(manifest_path,
                                                         monkeypatch):
    """With the legality guard removed, the oracle leg fails the replay."""
    from repro.transform import legality

    monkeypatch.setattr(legality, "_reject_latch_exit_targets",
                        lambda *args: None)
    with pytest.raises(AssertionError, match="XRdefault oracle"):
        replay(manifest_path)


def test_replay_harness_accepts_a_fresh_pin(tmp_path):
    """The pin→replay loop round-trips even with no checked-in pairs."""
    kernel = generate_kernel("rearm_storm", 0, 0)
    manifest_path = write_regression(kernel, "auto", tmp_path)
    replay(manifest_path)


def test_write_regression_pins_a_machine_oracle(tmp_path, monkeypatch):
    """A pin written with the machine oracle replays, oracle leg included."""
    from repro.transform import legality

    kernel = generate_kernel("rearm_storm", 0, 19)
    manifest_path = write_regression(kernel, "step", tmp_path,
                                     machine=M_ZOLC_FULL, oracle="machine")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["oracle"] == "machine"
    assert manifest["machine"]["name"] == "ZOLCfull"
    # The checked-in pin of the same bug is exactly what the writer
    # produces.
    pinned = REGRESSIONS_DIR / manifest_path.name
    assert manifest_path.read_text() == pinned.read_text()
    replay(manifest_path)
    monkeypatch.setattr(legality, "_reject_latch_exit_targets",
                        lambda *args: None)
    with pytest.raises(AssertionError, match="XRdefault oracle"):
        replay(manifest_path)


def test_write_regression_omits_the_oracle_by_default(tmp_path):
    kernel = generate_kernel("rearm_storm", 0, 0)
    manifest_path = write_regression(kernel, "auto", tmp_path)
    assert "oracle" not in json.loads(manifest_path.read_text())
    with pytest.raises(ValueError, match="oracle"):
        write_regression(kernel, "auto", tmp_path, oracle="golden")


def test_every_source_file_is_claimed_by_a_manifest():
    claimed = {json.loads(path.read_text())["source_file"]
               for path in MANIFESTS}
    on_disk = {path.name for path in REGRESSIONS_DIR.glob("*.s")}
    assert on_disk <= claimed  # orphans mean a broken pin
