"""Generated code is byte-identical across fresh interpreter runs.

The emitter's output feeds content-addressed caches and the
generated-code auditor, so it must not depend on set/dict iteration
order.  Two subprocesses with different ``PYTHONHASHSEED`` values
force codegen over the same kernel and hash every recorded source;
the digests must match exactly.
"""

import os
import subprocess
import sys

import repro

_DRIVER = """
import hashlib

from repro.cpu.analysis import audit_codegen, trace_candidate_bodies
from repro.cpu.analysis.verify import VerifyContext
from repro.cpu.engine.emit import codegen_records
from repro.cpu.ir import build_ir
from repro.eval.check import static_plan
from repro.eval.machines import machine_registry
from repro.workloads.suite import registry

machine = machine_registry().get("ZOLCfull")
prepared = machine.prepare(registry().get("vec_sum").source)
program = prepared.program
ir = build_ir(program)
plan = static_plan(prepared)
ctx = VerifyContext(ir=ir, base=program.text_base,
                    entry_pc=program.entry_point(), plan=plan)
audit_codegen(prepared.make_simulator(),
              watched=plan.watched_next_pcs(),
              traces=[(start, tslot, lp.loop_id) for start, tslot, lp
                      in trace_candidate_bodies(ctx)])
records = codegen_records(program)
blob = "\\n===\\n".join(
    f"{key}\\n{record.source}\\n{record.line_member}"
    for key, record in sorted(records.items(),
                              key=lambda kv: repr(kv[0])))
print(hashlib.sha256(blob.encode()).hexdigest())
"""


def _digest(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run([sys.executable, "-c", _DRIVER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = proc.stdout.strip()
    assert len(digest) == 64
    return digest


def test_emitted_source_is_deterministic():
    assert _digest("1") == _digest("31337")
