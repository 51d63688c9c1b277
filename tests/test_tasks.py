"""Contaminated-task construction, sampling determinism, and the majority bound."""

import numpy as np
import pytest

from batchad.errors import ConfigError
from batchad.tasks import (
    MetaDataset,
    MixtureConfig,
    build_contaminated_task,
    hoeffding_violation_bound,
    permute_attributes,
    sample_iteration_tasks,
)


def tagged_meta(k=4, n=100, dim=3):
    """Pools whose first feature encodes the pool index, for provenance checks."""
    pools = []
    for j in range(k):
        pool = np.random.default_rng(j).normal(size=(n, dim))
        pool[:, 0] = j
        pools.append(pool)
    return MetaDataset(pools=tuple(pools), ids=tuple(range(k)))


class TestMixtureConfig:
    def test_rejects_small_pi(self):
        with pytest.raises(ConfigError):
            MixtureConfig(pi=0.5, batch_size=10)

    def test_rejects_tiny_batch(self):
        with pytest.raises(ConfigError):
            MixtureConfig(pi=0.8, batch_size=1)

    def test_accepts_pure(self):
        MixtureConfig(pi=1.0, batch_size=2)


class TestBuildContaminatedTask:
    def test_pure_task(self):
        meta = tagged_meta()
        cfg = MixtureConfig(pi=1.0, batch_size=30)
        task = build_contaminated_task(meta, 0, cfg, np.random.default_rng(0))
        assert task.batch_size == 30
        assert task.y.sum() == 0
        assert np.all(task.x[:, 0] == 0)

    def test_counts_at_eighty_percent(self):
        meta = tagged_meta()
        cfg = MixtureConfig(pi=0.8, batch_size=30)
        task = build_contaminated_task(meta, 1, cfg, np.random.default_rng(0))
        assert (task.y == 0).sum() == 24
        assert (task.y == 1).sum() == 6

    def test_two_pool_complement(self):
        meta = tagged_meta(k=2)
        cfg = MixtureConfig(pi=0.8, batch_size=30)
        task = build_contaminated_task(meta, 0, cfg, np.random.default_rng(1))
        assert np.all(task.x[task.y == 1][:, 0] == 1)

    def test_labels_track_provenance(self):
        meta = tagged_meta(k=5)
        cfg = MixtureConfig(pi=0.7, batch_size=40)
        task = build_contaminated_task(meta, 2, cfg, np.random.default_rng(2))
        assert np.all(task.x[task.y == 0][:, 0] == 2)
        assert np.all(task.x[task.y == 1][:, 0] != 2)

    def test_single_pool_needs_pure(self):
        meta = tagged_meta(k=1)
        cfg = MixtureConfig(pi=0.8, batch_size=10)
        with pytest.raises(ConfigError):
            build_contaminated_task(meta, 0, cfg, np.random.default_rng(0))

    def test_designated_anomaly_pool_wins(self):
        base = tagged_meta(k=2)
        anom = np.full((50, 3), -1.0)
        meta = MetaDataset(pools=base.pools, ids=base.ids, anomaly_pool=anom)
        cfg = MixtureConfig(pi=0.8, batch_size=20)
        task = build_contaminated_task(meta, 0, cfg, np.random.default_rng(3))
        assert np.all(task.x[task.y == 1][:, 0] == -1.0)

    def test_majority_always_holds(self):
        meta = tagged_meta()
        rng = np.random.default_rng(9)
        for pi in (0.51, 0.6, 0.75, 0.9, 0.99):
            for b in (10, 31, 60):
                cfg = MixtureConfig(pi=pi, batch_size=b)
                try:
                    task = build_contaminated_task(meta, 0, cfg, rng)
                except ConfigError:
                    # rounding would have broken the majority; rejected upfront
                    assert round(pi * b) * 2 <= b
                    continue
                assert (task.y == 0).sum() == round(pi * b)
                assert (task.y == 0).sum() > b / 2

    def test_seeded_reproducibility(self):
        meta = tagged_meta()
        cfg = MixtureConfig(pi=0.8, batch_size=30)
        t1 = build_contaminated_task(meta, 1, cfg, np.random.default_rng(42))
        t2 = build_contaminated_task(meta, 1, cfg, np.random.default_rng(42))
        assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.y, t2.y)


class TestSampleIterationTasks:
    def test_singleton(self):
        meta = tagged_meta()
        cfg = MixtureConfig(pi=1.0, batch_size=5, tasks_per_iter=1)
        assert len(sample_iteration_tasks(meta, cfg, np.random.default_rng(0))) == 1

    def test_sources_cover_pool_range(self):
        meta = tagged_meta(k=5)
        cfg = MixtureConfig(pi=0.8, batch_size=10, tasks_per_iter=32)
        tasks = sample_iteration_tasks(meta, cfg, np.random.default_rng(0))
        assert len(tasks) == 32
        assert {t.source_j for t in tasks} <= set(range(5))

    def test_seeded_sequence_identical(self):
        meta = tagged_meta()
        cfg = MixtureConfig(pi=0.8, batch_size=12, tasks_per_iter=6)
        a = sample_iteration_tasks(meta, cfg, np.random.default_rng(5))
        b = sample_iteration_tasks(meta, cfg, np.random.default_rng(5))
        for ta, tb in zip(a, b):
            assert ta.source_j == tb.source_j
            assert np.array_equal(ta.x, tb.x)


class TestHoeffdingBound:
    def test_half_is_one(self):
        assert hoeffding_violation_bound(100, 0.5) == 1.0

    def test_empty_batch_is_one(self):
        assert hoeffding_violation_bound(0, 0.1) == 1.0

    def test_closed_form(self):
        assert hoeffding_violation_bound(30, 0.2) == pytest.approx(np.exp(-5.4), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hoeffding_violation_bound(10, 0.6)

    def test_monotone_in_batch_size(self):
        values = [hoeffding_violation_bound(b, 0.3) for b in (0, 10, 50, 200)]
        assert values == sorted(values, reverse=True)


class TestPermuteAttributes:
    def test_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(permute_attributes(x, [0, 1, 2, 3]), x)

    def test_definition(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(permute_attributes(x, [2, 0, 1]), [[3.0, 1.0, 2.0]])

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 6))
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        np.testing.assert_array_equal(permute_attributes(permute_attributes(x, perm), inv), x)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permute_attributes(np.ones((2, 3)), [0, 0, 1])
