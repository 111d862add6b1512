"""The process-backend suite runner must be a drop-in for the serial one."""

from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import M_ZOLC_LITE, XR_DEFAULT
from repro.eval.runner import run_suite
from repro.experiments.config import RunConfig
from repro.workloads.api import Kernel
from repro.workloads.suite import registry


def _result_grid(suite):
    return {key: (r.cycles, r.instructions, r.stats.stall_cycles,
                  r.stats.flush_cycles, r.verified)
            for key, r in suite.results.items()}


class TestParallelSuite:
    def test_matches_serial_and_preserves_order(self):
        kernels = [registry().get("vec_sum"), registry().get("quantize")]
        machines = [XR_DEFAULT, M_ZOLC_LITE]
        serial = run_suite(kernels, machines)
        parallel = run_suite(kernels, machines, RunConfig(jobs=2))
        assert _result_grid(parallel) == _result_grid(serial)
        assert list(parallel.results) == list(serial.results)

    def test_pipeline_config_forwarded_to_workers(self):
        kernels = [registry().get("vec_sum")]
        pipeline = PipelineConfig(branch_penalty=3)
        serial = run_suite(kernels, [XR_DEFAULT],
                           RunConfig(pipeline=pipeline))
        parallel = run_suite(kernels, [XR_DEFAULT],
                             RunConfig(pipeline=pipeline, jobs=2))
        assert _result_grid(parallel) == _result_grid(serial)
        assert (parallel.get("vec_sum", "XRdefault").cycles
                > run_suite(kernels, [XR_DEFAULT]).get(
                    "vec_sum", "XRdefault").cycles)

    def test_adhoc_kernel_falls_back_to_serial_with_warning(self):
        # A kernel outside the registry cannot be resolved by name in a
        # worker; the runner runs it in-process and warns that the
        # requested parallelism was ignored.
        import pytest
        base = registry().get("vec_sum")
        adhoc = Kernel(name="not_registered", description="ad-hoc",
                       source=base.source, check=base.check)
        with pytest.warns(RuntimeWarning, match="jobs=4 ignored"):
            suite = run_suite([adhoc, base], [XR_DEFAULT],
                              RunConfig(jobs=4))
        assert suite.get("not_registered", "XRdefault").verified

    def test_adhoc_machine_ships_to_workers(self):
        # Machines are data and travel by value: a custom ZOLC variant
        # that is in no registry parallelizes like the paper machines.
        from repro.core.config import ZolcConfig
        from repro.eval.machines import MachineSpec
        custom = MachineSpec("ZOLCcustom", "zolc", ZolcConfig(
            name="ZOLCcustom", max_loops=2, max_task_entries=8,
            entries_per_loop=1, multi_entry_exit=False))
        kernels = [registry().get("vec_sum"), registry().get("quantize")]
        serial = run_suite(kernels, [XR_DEFAULT, custom])
        parallel = run_suite(kernels, [XR_DEFAULT, custom],
                             RunConfig(jobs=2))
        assert _result_grid(parallel) == _result_grid(serial)
        assert parallel.machines() == ["XRdefault", "ZOLCcustom"]

    def test_jobs_one_is_serial(self):
        kernels = [registry().get("vec_sum")]
        suite = run_suite(kernels, [XR_DEFAULT], RunConfig(jobs=1))
        assert suite.get("vec_sum", "XRdefault").verified

    def test_negative_jobs_rejected(self):
        import pytest
        kernels = [registry().get("vec_sum")]
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            run_suite(kernels, [XR_DEFAULT], RunConfig(jobs=-2))
