"""The incremental backend seam: per-cell callbacks, warm pools,
and how a directly constructed pool reads `jobs`.

Every backend must report each finished cell through ``on_result``
(index + result, or index + exception) *before* ``run_cells`` returns
or raises — that contract is what the runner's crash-safe persistence
and the service's event stream are built on.
"""

import os

import pytest

from repro.cpu.pipeline import PipelineConfig
from repro.eval.machines import M_ZOLC_LITE, XR_DEFAULT
from repro.experiments.backends import (
    Cell,
    ProcessBackend,
    SerialBackend,
    _prepare_cached,
)


def _cell(kernel="vec_sum", machine=XR_DEFAULT, penalty=1,
          max_steps=200_000) -> Cell:
    return Cell(kernel_name=kernel, machine=machine,
                pipeline=PipelineConfig(branch_penalty=penalty),
                max_steps=max_steps)


GRID = [_cell("vec_sum", XR_DEFAULT), _cell("vec_sum", M_ZOLC_LITE),
        _cell("dot_product", XR_DEFAULT), _cell("dot_product", M_ZOLC_LITE)]


class TestSerialCallbacks:
    def test_called_once_per_cell_in_cell_order(self):
        seen = []
        results = SerialBackend().run_cells(
            GRID, on_result=lambda i, r: seen.append((i, r)))
        assert [i for i, _ in seen] == [0, 1, 2, 3]
        assert [r for _, r in seen] == results

    def test_failure_reported_then_raised_after_completed_cells(self):
        cells = [GRID[0], _cell("no_such_kernel"), GRID[1]]
        seen = []
        with pytest.raises(KeyError, match="unknown kernel"):
            SerialBackend().run_cells(
                cells, on_result=lambda i, r: seen.append((i, r)))
        assert [i for i, _ in seen] == [0, 1]
        assert seen[0][1].verified  # cell 0 completed and was reported
        assert isinstance(seen[1][1], KeyError)  # cell 1 is the failure


class TestProcessCallbacks:
    def test_every_cell_reported_once_and_matches_serial(self):
        seen = {}
        backend = ProcessBackend(jobs=2)
        results = backend.run_cells(
            GRID, on_result=lambda i, r: seen.setdefault(i, r))
        assert sorted(seen) == [0, 1, 2, 3]
        serial = SerialBackend().run_cells(GRID)
        assert [r.record() for r in results] \
            == [r.record() for r in serial]
        for index, result in seen.items():
            assert result.record() == serial[index].record()

    def test_worker_failure_reported_with_its_index(self):
        cells = [GRID[0], _cell("no_such_kernel")]
        seen = {}
        with pytest.raises(KeyError, match="unknown kernel"):
            ProcessBackend(jobs=2).run_cells(
                cells, on_result=lambda i, r: seen.setdefault(i, r))
        assert isinstance(seen[1], KeyError)

    def test_persistent_pool_survives_across_run_cells(self):
        with ProcessBackend(jobs=1, persistent=True) as backend:
            backend.run_cells(GRID[:1])
            pool = backend._pool
            assert pool is not None  # even a 1-cell run used the pool
            backend.run_cells(GRID[1:2])
            assert backend._pool is pool  # same workers: caches stay warm
        assert backend._pool is None  # context exit closed it

    def test_persistent_pool_uses_spawn_workers(self):
        # Fork-started workers inherit every open fd of the service
        # process — including in-flight event-stream sockets, which
        # then never reach EOF on the client after the server closes
        # them.  Persistent pools must therefore spawn their workers.
        with ProcessBackend(jobs=1, persistent=True) as backend:
            backend.run_cells(GRID[:1])
            assert backend._pool._mp_context.get_start_method() == "spawn"

    def test_non_persistent_single_cell_degrades_to_serial(self, monkeypatch):
        import repro.experiments.backends as backends_module
        monkeypatch.setattr(backends_module, "ProcessPoolExecutor",
                            _Boom)
        result = ProcessBackend(jobs=4).run_cells(GRID[:1])
        assert result[0].verified  # never touched a pool


class _Boom:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was created")


class TestWarmPrepareCache:
    def test_prepare_is_memoized_per_process(self, monkeypatch):
        import repro.experiments.backends as backends_module
        from repro.workloads.suite import registry

        source = registry().get("vec_sum").source
        monkeypatch.setattr(backends_module, "_PREPARE_CACHE", {})
        first = _prepare_cached(XR_DEFAULT, "vec_sum", source)
        again = _prepare_cached(XR_DEFAULT, "vec_sum", source)
        assert again is first  # warm: no re-prepare
        other = _prepare_cached(XR_DEFAULT, "vec_sum",
                                source + "\n# edited")
        assert other is not first  # source change misses, as it must

    def test_cached_prepare_measures_identically(self, monkeypatch):
        # Two simulations off one cached prepared program — the warm
        # worker path — retire bit-identical measurements.
        import repro.experiments.backends as backends_module

        monkeypatch.setattr(backends_module, "_PREPARE_CACHE", {})
        cell = _cell("dot_product", M_ZOLC_LITE)
        cold = backends_module._run_cell(cell)
        # The kernel's front end and its prepared program.
        assert len(backends_module._PREPARE_CACHE) == 2
        warm = backends_module._run_cell(cell)
        assert warm.record() == cold.record()
        assert len(backends_module._PREPARE_CACHE) == 2

    def test_cache_is_bounded(self, monkeypatch):
        import repro.experiments.backends as backends_module
        from repro.workloads.suite import registry

        source = registry().get("vec_sum").source
        monkeypatch.setattr(backends_module, "_PREPARE_CACHE", {})
        monkeypatch.setattr(backends_module, "_PREPARE_CACHE_LIMIT", 2)
        for tag in ("a", "b", "c"):
            _prepare_cached(XR_DEFAULT, "vec_sum",
                            source + f"\n# {tag}")
        assert len(backends_module._PREPARE_CACHE) == 2


class TestJobsConvention:
    """A constructed pool: None/0 = all CPUs, 1 = serial, n = n."""

    def test_none_and_zero_mean_one_worker_per_cpu(self):
        cpus = os.cpu_count() or 1
        assert ProcessBackend().worker_count() == cpus
        assert ProcessBackend(jobs=None).worker_count() == cpus
        assert ProcessBackend(jobs=0).worker_count() == cpus

    def test_explicit_counts(self):
        assert ProcessBackend(jobs=1).worker_count() == 1
        assert ProcessBackend(jobs=3).worker_count() == 3

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            ProcessBackend(jobs=-1)

    def test_one_job_runs_a_grid_in_process(self, monkeypatch):
        import repro.experiments.backends as backends_module
        monkeypatch.setattr(backends_module, "ProcessPoolExecutor",
                            _Boom)
        cells = [_cell("vec_sum"), _cell("dot_product", M_ZOLC_LITE)]
        results = ProcessBackend(jobs=1).run_cells(cells)
        assert [r.record() for r in results] \
            == [r.record() for r in SerialBackend().run_cells(cells)]
