"""Contaminated-task construction, sampling determinism, and the majority bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchad.errors import ConfigError
from batchad.tasks import (
    MetaDataset,
    build_contaminated_task,
    hoeffding_violation_bound,
    normal_count,
    sample_iteration_tasks,
)
from batchad.training import TrainConfig


def tagged_meta(k=4, n=100, dim=3, sizes=None):
    """Pools whose first feature encodes the pool index, for provenance checks."""
    pools = []
    for j in range(k):
        pool = np.random.default_rng(j).normal(size=(sizes[j] if sizes else n, dim))
        pool[:, 0] = j
        pools.append(pool)
    return MetaDataset(pools=tuple(pools), ids=tuple(range(k)))


def one_task(meta, j, pi, batch_size, rng):
    """The (B, D) rows and (B,) labels of a single task for pool ``j``."""
    x, y = build_contaminated_task(meta, [j], pi, batch_size, rng)
    return x[0], y[0]


class TestMixtureConfig:
    """The mixture settings (pi, batch size) as ``TrainConfig`` checks them."""

    def test_rejects_small_pi(self):
        with pytest.raises(ConfigError):
            TrainConfig(pi=0.5, batch_size=10)

    def test_rejects_tiny_batch(self):
        with pytest.raises(ConfigError):
            TrainConfig(pi=0.8, batch_size=1)

    def test_accepts_pure(self):
        TrainConfig(pi=1.0, batch_size=2)


class TestMetaDataset:
    def test_pools_are_views_of_one_array(self):
        base = tagged_meta(k=3)
        meta = MetaDataset(pools=base.pools, ids=base.ids, anomaly_pool=np.full((7, 3), -1.0))
        # disjoint slices never overlap, so each view is checked against the
        # one array they all live in
        for part in (*meta.pools, meta.anomaly_pool):
            assert part.base is meta.rows and np.shares_memory(meta.rows, part)
        assert meta.rows.shape == (307, 3)
        assert meta.offsets.tolist() == [0, 100, 200, 300]
        assert meta.sizes.tolist() == [100, 100, 100, 7]
        for j, pool in enumerate(base.pools):
            assert np.array_equal(meta.pools[j], pool)
        assert np.all(meta.anomaly_pool == -1.0)


    @pytest.mark.parametrize(
        "pools, ids, anomaly_pool, message",
        [
            ((), (), None, "^a meta-set needs at least one pool$"),
            ((np.ones((3, 2)),) * 2, (0,), None, "^ids and pools must have equal length$"),
            ((np.ones((3, 2)),) * 2, (1, 1), None, "^pool ids must be unique$"),
            ((np.ones((3, 2)),), (0,), np.ones((3, 4)),
             r"^pools disagree on feature dimension: \[2, 4\]$"),
        ],
        ids=["no-pool", "ids-length", "ids-repeated", "anomaly-dimension"],
    )
    def test_rejects_an_inconsistent_meta_set(self, pools, ids, anomaly_pool, message):
        with pytest.raises(ConfigError, match=message):
            MetaDataset(pools=pools, ids=ids, anomaly_pool=anomaly_pool)

    def test_rejects_an_empty_pool(self):
        # an empty pool has no row to draw; its offset is the next pool's
        with pytest.raises(ConfigError, match="at least one row"):
            MetaDataset(pools=(np.ones((3, 2)), np.ones((0, 2))), ids=(0, 1))

    def test_can_contaminate_from_a_second_pool_or_an_anomaly_pool(self):
        one = np.ones((3, 2))
        assert not MetaDataset(pools=(one,), ids=(0,)).can_contaminate
        assert MetaDataset(pools=(one, one), ids=(0, 1)).can_contaminate
        assert MetaDataset(pools=(one,), ids=(0,), anomaly_pool=one).can_contaminate


class TestBuildContaminatedTask:
    def test_pure_task(self):
        meta = tagged_meta()
        x, y = one_task(meta, 0, 1.0, 30, np.random.default_rng(0))
        assert x.shape == (30, 3)
        assert y.sum() == 0
        assert np.all(x[:, 0] == 0)

    def test_counts_at_eighty_percent(self):
        meta = tagged_meta()
        _x, y = one_task(meta, 1, 0.8, 30, np.random.default_rng(0))
        assert (y == 0).sum() == 24
        assert (y == 1).sum() == 6

    def test_two_pool_complement(self):
        meta = tagged_meta(k=2)
        x, y = one_task(meta, 0, 0.8, 30, np.random.default_rng(1))
        assert np.all(x[y == 1][:, 0] == 1)

    def test_labels_track_provenance(self):
        meta = tagged_meta(k=5)
        x, y = one_task(meta, 2, 0.7, 40, np.random.default_rng(2))
        assert np.all(x[y == 0][:, 0] == 2)
        assert np.all(x[y == 1][:, 0] != 2)

    def test_single_pool_needs_pure(self):
        meta = tagged_meta(k=1)
        with pytest.raises(ConfigError):
            one_task(meta, 0, 0.8, 10, np.random.default_rng(0))

    def test_pool_index_out_of_range(self):
        with pytest.raises(ConfigError, match="pool index 4"):
            build_contaminated_task(tagged_meta(), [0, 4], 0.8, 10, np.random.default_rng(0))

    def test_designated_anomaly_pool_wins(self):
        base = tagged_meta(k=2)
        anom = np.full((50, 3), -1.0)
        meta = MetaDataset(pools=base.pools, ids=base.ids, anomaly_pool=anom)
        x, y = one_task(meta, 0, 0.8, 20, np.random.default_rng(3))
        assert np.all(x[y == 1][:, 0] == -1.0)

    def test_majority_always_holds(self):
        meta = tagged_meta()
        rng = np.random.default_rng(9)
        for pi in (0.51, 0.6, 0.75, 0.9, 0.99):
            for b in (10, 31, 60):
                try:
                    _x, y = one_task(meta, 0, pi, b, rng)
                except ConfigError:
                    # rounding would have broken the majority or left no
                    # anomaly; rejected upfront
                    n = round(pi * b)
                    assert n * 2 <= b or (n == b and pi < 1.0)
                    continue
                assert (y == 0).sum() == round(pi * b)
                assert (y == 0).sum() > b / 2
                assert (y == 1).sum() >= 1

    def test_seeded_reproducibility(self):
        meta = tagged_meta()
        x1, y1 = one_task(meta, 1, 0.8, 30, np.random.default_rng(42))
        x2, y2 = one_task(meta, 1, 0.8, 30, np.random.default_rng(42))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    share=st.floats(0.5, 1.0, exclude_min=True),
    batch_size=st.integers(2, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_normal_count_is_the_one_mixture_rule(share, batch_size, seed):
    # the rule: round(share * B) normal rows, a majority, and for a share
    # below 1 at least one contaminant; the sampler draws by the same rule
    n = round(share * batch_size)
    accepted = n * 2 > batch_size and (n < batch_size or share == 1.0)
    what = f"share {share} in {batch_size} rows"
    meta = tagged_meta(k=3, n=5)
    rng = np.random.default_rng(seed)
    if not accepted:
        with pytest.raises(ConfigError) as refused:
            normal_count(share, batch_size, what)
        assert str(refused.value).startswith(what + " ")
        with pytest.raises(ConfigError):
            build_contaminated_task(meta, [0, 1, 2], share, batch_size, rng)
        return
    assert normal_count(share, batch_size, what) == n
    _x, y = build_contaminated_task(meta, [0, 1, 2], share, batch_size, rng)
    assert np.all((y == 0).sum(axis=1) == n)
    if share < 1.0:
        assert np.all((y == 1).sum(axis=1) >= 1)


class TestStackedSampler:
    def test_every_task_has_the_exact_normal_count(self):
        meta = tagged_meta(k=5)
        for pi, b in ((0.8, 60), (0.95, 60), (0.7, 31)):
            _x, y = build_contaminated_task(meta, np.arange(200) % 5, pi, b, np.random.default_rng(4))
            assert y.shape == (200, b)
            assert np.all((y == 0).sum(axis=1) == round(pi * b))
        # round(0.99 * 11) is all 11 rows, and every task must hold a contaminant
        with pytest.raises(ConfigError, match="^pi=0.99 with batch_size=11 rounds to zero anomalies"):
            build_contaminated_task(meta, np.arange(200) % 5, 0.99, 11, np.random.default_rng(4))

    def test_contaminants_never_come_from_the_own_pool(self):
        meta = tagged_meta(k=4)
        js = np.arange(400) % 4
        x, y = build_contaminated_task(meta, js, 0.7, 40, np.random.default_rng(6))
        source = x[..., 0]
        own = js[:, None]
        assert np.all((source == own) == (y == 0))

    def test_anomaly_pool_supplies_every_contaminant(self):
        base = tagged_meta(k=3)
        meta = MetaDataset(pools=base.pools, ids=base.ids, anomaly_pool=np.full((9, 3), -1.0))
        js = np.arange(300) % 3
        x, y = build_contaminated_task(meta, js, 0.8, 20, np.random.default_rng(8))
        assert np.all(x[y == 1][:, 0] == -1.0)
        assert np.all(x[y == 0][:, 0] == np.broadcast_to(js[:, None], y.shape)[y == 0])

    def test_donor_pools_weighted_equally_despite_unequal_sizes(self):
        # pool 0 draws contaminants from pools 1-3 of 10, 100 and 1000 rows;
        # donors are picked before rows, so each supplies a third. 60000
        # contaminants give a binomial std of 115 per count; the tolerance,
        # fixed beforehand, is 1000 (8.7 std), and row-weighted sampling
        # would put pool 1 near 540 and pool 3 near 54000.
        meta = tagged_meta(k=4, sizes=[50, 10, 100, 1000])
        x, y = build_contaminated_task(meta, np.zeros(3000, dtype=int), 0.8, 100, np.random.default_rng(11))
        counts = np.bincount(x[y == 1][:, 0].astype(int), minlength=4)
        assert counts[0] == 0
        assert counts.sum() == 60000
        assert np.all(np.abs(counts[1:] - 20000) <= 1000), counts

    def test_rows_come_from_within_each_pool(self):
        # every row of every pool is reachable and nothing outside the pools is
        meta = tagged_meta(k=2, n=5, dim=2)
        x, _y = build_contaminated_task(meta, [0, 1] * 100, 0.8, 10, np.random.default_rng(2))
        seen = {row.tobytes() for row in x.reshape(-1, 2)}
        assert seen == {row.tobytes() for row in meta.rows}


class TestSampleIterationTasks:
    def test_singleton(self):
        meta = tagged_meta()
        x, y = sample_iteration_tasks(meta, 1, 1.0, 5, np.random.default_rng(0))
        assert x.shape == (1, 5, 3) and y.shape == (1, 5)

    def test_sources_cover_pool_range(self):
        meta = tagged_meta(k=5)
        x, y = sample_iteration_tasks(meta, 32, 0.8, 10, np.random.default_rng(0))
        assert len(x) == 32
        sources = {int(task[labels == 0][0, 0]) for task, labels in zip(x, y)}
        assert sources <= set(range(5))

    def test_seeded_sequence_identical(self):
        meta = tagged_meta()
        xa, ya = sample_iteration_tasks(meta, 6, 0.8, 12, np.random.default_rng(5))
        xb, yb = sample_iteration_tasks(meta, 6, 0.8, 12, np.random.default_rng(5))
        assert np.array_equal(xa, xb)
        assert np.array_equal(ya, yb)


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
