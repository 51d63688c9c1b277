"""Meta-set generation, CSV round trips, splits, and leakage guards."""

import numpy as np
import pytest

from batchad.data import (
    GaussianMetaSpec,
    TabularSource,
    apply_standardizer,
    augment_with_permutations,
    fit_standardizer,
    generate_gaussian_metaset,
    load_tabular,
    one_vs_rest_split,
    row_digests,
    save_metaset_csv,
)
from batchad.errors import ConfigError


class TestGaussianGenerator:
    def test_degenerate_within_scale(self):
        spec = GaussianMetaSpec(
            dim=3, train_distributions=2, test_distributions=1,
            samples_per_distribution=20, mean_scale=5.0, within_scale=0.0,
        )
        train, _ = generate_gaussian_metaset(spec, seed=0)
        for pool in train.pools:
            assert np.all(pool == pool[0])

    def test_fixed_seed_reproducible(self):
        spec = GaussianMetaSpec(samples_per_distribution=50)
        a_train, a_test = generate_gaussian_metaset(spec, seed=9)
        b_train, b_test = generate_gaussian_metaset(spec, seed=9)
        for pa, pb in zip(a_train.pools + a_test.pools, b_train.pools + b_test.pools):
            assert np.array_equal(pa, pb)

    def test_pool_shapes_and_split(self):
        spec = GaussianMetaSpec(samples_per_distribution=100)
        train, test = generate_gaussian_metaset(spec, seed=1)
        assert train.k == 8 and test.k == 4
        assert all(p.shape == (100, 8) for p in train.pools)
        assert set(train.ids).isdisjoint(test.ids)

    def test_pairwise_mean_distances(self):
        # hyper-prior scale 8 in 8 dimensions: median inter-cluster distance
        # comfortably exceeds the scale itself (verified over 100 seeds)
        medians = []
        spec = GaussianMetaSpec(samples_per_distribution=5)
        for seed in range(100):
            train, test = generate_gaussian_metaset(spec, seed=seed)
            means = np.array([p.mean(axis=0) for p in train.pools + test.pools])
            dists = [
                np.linalg.norm(means[i] - means[j])
                for i in range(len(means))
                for j in range(i + 1, len(means))
            ]
            medians.append(np.median(dists))
        assert min(medians) > 8.0

    def test_rejects_indistinct_scales(self):
        with pytest.raises(ConfigError):
            GaussianMetaSpec(mean_scale=1.0, within_scale=1.0)

    def test_train_and_test_rows_disjoint(self):
        spec = GaussianMetaSpec(samples_per_distribution=50)
        train, test = generate_gaussian_metaset(spec, seed=3)
        assert row_digests(train).isdisjoint(row_digests(test))


class TestCsvRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        spec = GaussianMetaSpec(
            dim=5, train_distributions=3, test_distributions=2,
            samples_per_distribution=40,
        )
        train, test = generate_gaussian_metaset(spec, seed=7)
        csv_path, _ = save_metaset_csv(train, test, tmp_path, seed=7)
        source = TabularSource(path=str(csv_path), train_bins=3, standardize=False)
        loaded_train, loaded_test = load_tabular(source)
        assert loaded_train.k == 3 and loaded_test.k == 2
        for orig, got in zip(train.pools + test.pools, loaded_train.pools + loaded_test.pools):
            assert np.array_equal(orig, got)

    def test_same_seed_same_bytes(self, tmp_path):
        spec = GaussianMetaSpec(
            dim=2, train_distributions=2, test_distributions=1,
            samples_per_distribution=10,
        )
        pair = generate_gaussian_metaset(spec, seed=4)
        c1, j1 = save_metaset_csv(*pair, tmp_path / "a", seed=4)
        c2, j2 = save_metaset_csv(*pair, tmp_path / "b", seed=4)
        assert c1.read_bytes() == c2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()


def write_csv(path, rows, header="bin,label,f0,f1"):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


class TestLoadTabular:
    def test_groups_rows_by_bin(self, tmp_path):
        rows = [f"0,0,{i},{i}" for i in range(10)] + [f"1,0,{i},{i}" for i in range(10)]
        path = write_csv(tmp_path / "d.csv", rows)
        train, test = load_tabular(TabularSource(path=path, train_bins=1))
        assert train.k == 1 and test.k == 1
        assert train.pools[0].shape == (10, 2)

    def test_single_bin_is_an_error(self, tmp_path):
        rows = [f"0,0,{i},{i}" for i in range(10)]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ConfigError):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["0,0,1,1"], header="bin,label,f0,f1")
        with pytest.raises(ConfigError):
            load_tabular(TabularSource(path=path, label_col="target", train_bins=1))

    def test_unparseable_row_reports_line(self, tmp_path):
        rows = ["0,0,1,2", "0,0,oops,2", "1,0,3,4"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ValueError, match="line.*3"):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_malformed_csv_reports_file_and_line(self, tmp_path):
        # a field past the csv module's size limit is a csv.Error
        rows = ["0,0,1,2", "0,0," + "9" * 200_000 + ",2", "1,0,3,4"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ValueError, match=r"d\.csv: malformed CSV at line 3: field larger"):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_non_finite_rejected(self, tmp_path):
        rows = ["0,0,1,2", "0,0,nan,2", "1,0,3,4"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ValueError, match="line"):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_anomalies_kept_only_in_test_bins(self, tmp_path):
        rows = (
            [f"0,0,{i},0" for i in range(8)]
            + ["0,1,99,0"]  # train-bin anomaly: dropped
            + [f"1,0,{i},0" for i in range(8)]
            + ["1,1,77,0", "1,1,78,0"]
        )
        path = write_csv(tmp_path / "d.csv", rows)
        train, test = load_tabular(TabularSource(path=path, train_bins=1, standardize=False))
        assert train.pools[0].shape[0] == 8
        assert test.anomaly_pool is not None
        assert test.anomaly_pool.shape[0] == 2
        assert set(test.anomaly_pool[:, 0]) == {77.0, 78.0}

    def test_standardization_fitted_on_train_only(self, tmp_path):
        rows = [f"0,0,{i},1" for i in range(4)] + [f"1,0,{i + 100},1" for i in range(4)]
        path = write_csv(tmp_path / "d.csv", rows)
        train, test = load_tabular(TabularSource(path=path, train_bins=1))
        # train bin values 0..3 standardize to mean 0; the shifted test bin does not
        assert abs(train.pools[0][:, 0].mean()) < 1e-12
        assert test.pools[0][:, 0].mean() > 10

    def test_no_timestamp_column_single_pool(self, tmp_path):
        rows = ["0,1,2", "0,3,4", "1,9,9"]
        path = write_csv(tmp_path / "d.csv", rows, header="label,f0,f1")
        train, test = load_tabular(
            TabularSource(path=path, timestamp_col=None, standardize=False)
        )
        assert test is None
        assert train.k == 1
        assert train.pools[0].shape == (2, 2)  # the anomaly row is excluded


class TestStandardizer:
    def test_refit_is_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        mean, scale = fit_standardizer(x)
        z = apply_standardizer(x, mean, scale)
        mean2, scale2 = fit_standardizer(z)
        np.testing.assert_allclose(mean2, 0.0, atol=1e-12)
        np.testing.assert_allclose(scale2, 1.0, atol=1e-12)

    def test_zero_variance_feature_kept(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        mean, scale = fit_standardizer(x)
        z = apply_standardizer(x, mean, scale)
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(z[:, 0], 0.0)


class TestAugmentWithPermutations:
    def make_meta(self, dim=4, k=3):
        spec = GaussianMetaSpec(
            dim=dim, train_distributions=max(k, 2), test_distributions=1,
            samples_per_distribution=30,
        )
        return generate_gaussian_metaset(spec, seed=2)[0]

    def test_zero_copies_is_noop(self):
        meta = self.make_meta()
        assert augment_with_permutations(meta, 0, seed=0) is meta

    def test_count_contract(self):
        meta = self.make_meta(k=3)
        out = augment_with_permutations(meta, 1, seed=0)
        assert out.k == 6
        out2 = augment_with_permutations(meta, 3, seed=0)
        assert out2.k == 12

    def test_originals_unchanged(self):
        meta = self.make_meta()
        before = [p.copy() for p in meta.pools]
        augment_with_permutations(meta, 2, seed=1)
        for old, now in zip(before, meta.pools):
            assert np.array_equal(old, now)

    def test_copies_are_column_permutations(self):
        meta = self.make_meta(k=2)
        out = augment_with_permutations(meta, 1, seed=3)
        orig, copy = out.pools[0], out.pools[2]
        assert sorted(map(tuple, orig.T.tolist())) == sorted(map(tuple, copy.T.tolist()))

    def test_one_dimensional_copies_identical(self):
        spec = GaussianMetaSpec(
            dim=1, train_distributions=2, test_distributions=1,
            samples_per_distribution=20,
        )
        meta = generate_gaussian_metaset(spec, seed=0)[0]
        out = augment_with_permutations(meta, 1, seed=0)
        assert np.array_equal(out.pools[0], out.pools[2])


class TestOneVsRest:
    def pools(self):
        return {c: np.full((10, 2), float(c)) for c in range(5)}

    def test_definition(self):
        meta = one_vs_rest_split(self.pools(), normal_class=2)
        assert meta.k == 1
        assert np.all(meta.pools[0] == 2.0)
        assert set(meta.anomaly_pool[:, 0]) == {0.0, 1.0, 3.0, 4.0}

    def test_two_classes(self):
        meta = one_vs_rest_split({0: np.zeros((5, 1)), 1: np.ones((5, 1))}, 0)
        assert np.all(meta.anomaly_pool == 1.0)

    def test_rotation_yields_disjoint_normals(self):
        pools = self.pools()
        seen = []
        for c in pools:
            meta = one_vs_rest_split(pools, c)
            seen.append(meta.ids[0])
            assert meta.anomaly_pool.shape[0] == 40
        assert sorted(seen) == list(range(5))

    def test_missing_class(self):
        with pytest.raises(ConfigError):
            one_vs_rest_split(self.pools(), normal_class=9)
