import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from branchlab import runner, verify
from branchlab.rng import RngStream


def _task(rng):
    return rng.random(2)


def _in_replicate_order(rows):
    # row r holds the first draws of replicate r's stream
    want = np.stack([RngStream(11, r).random(2) for r in range(rows.shape[0])])
    return rows.tobytes() == want.tobytes()


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        assert len(items) >= self.sizes[-1]
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, n_reps, cpus, want",
    [(100_000, 40, 4, 4), (3, 2, 8, 2), (2, 40, 1, 1), (6, 40, 8, 6)],
)
def test_pool_size_is_bounded(monkeypatch, workers, n_reps, cpus, want):
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _InProcessPool.sizes = []
    pooled = runner.map_replicated(_task, n_reps, 11, workers=workers)
    assert _InProcessPool.sizes == [want]
    serial = runner.map_replicated(_task, n_reps, 11)
    assert pooled.tobytes() == serial.tobytes()
    assert _in_replicate_order(serial)


def test_argument_validation():
    with pytest.raises(ValueError):
        runner.map_replicated(_task, 0, 1)
    with pytest.raises(ValueError):
        runner.map_replicated(_task, 5, 1, workers=0)


@pytest.mark.parametrize(
    "n_reps, workers",
    [
        (6, 1),  # past the cap, set to 5 here
        (2**40, 1),
        (2**40, 2),
        (2.0, 1),
        (1.5, 2),
        (float("nan"), 1),
        (True, 1),
        ("3", 1),
        (3, 2.0),
        (3, float("inf")),
        (3, True),
    ],
)
def test_bad_counts_are_refused_before_any_task_or_pool(monkeypatch, n_reps, workers):
    assert 2000 <= runner.MAX_REPLICATES < 2**40  # the registry's largest call fits
    monkeypatch.setattr(runner, "MAX_REPLICATES", 5)
    started, ran = [], []
    monkeypatch.setattr(runner, "ProcessPoolExecutor", started.append)

    def task(rng):
        ran.append(rng)
        return rng.random(2)

    with pytest.raises(ValueError):
        runner.map_replicated(task, n_reps, 1, workers=workers)
    assert started == ran == []
    assert runner.map_replicated(task, np.int64(5), 1).shape == (5, 2)  # at the cap
    assert len(ran) == 5


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool started")


@pytest.mark.parametrize("seed", [2.5, float("nan"), True, "1", None])
def test_bad_seed_is_refused_before_any_pool(monkeypatch, seed):
    # a bad seed used to reach RngStream only inside a worker, after the pool started
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(ValueError, match="seed"):
        runner.map_replicated(_task, 4, seed, workers=2)


@pytest.mark.parametrize("workers", [2.5, float("nan"), True, 0, "2"])
def test_shared_pool_refuses_bad_workers_before_any_pool(monkeypatch, workers):
    # verify_suite opens this block first: a float count used to reach
    # ProcessPoolExecutor before map_replicated refused it
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(ValueError, match="workers"), runner.shared_pool(workers):
        pass


@pytest.mark.parametrize(
    "group",
    [
        "embedding_ks",
        "profile_small_n_tv",
        "limit_sampler_cov",
        "second_moment_identity",
        "moment_ratio_exp",
        "moment_ratio_gamma",
    ],
)
def test_registry_group_draws_through_the_runner(monkeypatch, group):
    calls = []

    def recorder(task, n_reps, seed, workers=1):
        calls.append(workers)
        return runner.map_replicated(task, n_reps, seed, workers=workers)

    monkeypatch.setattr(verify, "map_replicated", recorder)
    fn = dict(verify._REGISTRY)[group]
    pooled = fn(verify.VerifyConfig(quick=True, workers=2), 7)
    assert calls == [2]
    assert pooled == fn(verify.VerifyConfig(quick=True, workers=1), 7)


def test_limit_sampler_maps_plain_arrays(monkeypatch):
    dtypes = []

    def recorder(task, n_reps, seed, workers=1):
        out = runner.map_replicated(task, n_reps, seed, workers=workers)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(verify, "map_replicated", recorder)
    [entry] = verify._test_limit_sampler_cov(verify.VerifyConfig(quick=True), 7)
    assert entry["pass"]
    assert dtypes and object not in dtypes


def test_verify_run_keeps_one_pool(monkeypatch):
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
    manifest = verify.verify_suite(verify.VerifyConfig(master_seed=3, workers=2, quick=True))
    assert manifest["summary"]["all_gating_pass"]
    assert started == [min(2, os.cpu_count() or 1)]
    assert multiprocessing.active_children() == []


def test_shared_pool_serves_map_replicated(monkeypatch):
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _InProcessPool.sizes = []
    serial = runner.map_replicated(_task, 40, 11)
    with runner.shared_pool(3):
        first = runner.map_replicated(_task, 40, 11, workers=2)
        second = runner.map_replicated(_task, 40, 11, workers=8)
    assert _InProcessPool.sizes == [3]
    assert first.tobytes() == second.tobytes() == serial.tobytes()
    assert _in_replicate_order(serial)
    with runner.shared_pool(1):
        runner.map_replicated(_task, 40, 11, workers=2)
    assert _InProcessPool.sizes == [3, 2]
