"""AUROC against the pair-counting oracle, the projected TV diagnostic, and
the batch scoring protocol."""

import numpy as np
import pytest

from batchad.data import GaussianMetaSpec, generate_gaussian_metaset
from batchad.errors import BatchTooSmallError, UndefinedMetricError
from batchad.evaluation import (
    auroc,
    collect_latents,
    evaluate,
    tie_average_ranks,
    tv_distance_diagnostic,
)
from batchad.model import Architecture, DetectorModel
from batchad.training import TrainConfig, train

from helpers import pair_count_auroc, reference_tie_average_ranks, toy_two_pool_meta


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties_is_half(self):
        assert auroc([3.0, 3.0, 3.0, 3.0], [1, 0, 1, 0]) == 0.5

    def test_inverted_ranking(self):
        assert auroc([0.3, 0.7, 0.5], [1, 0, 1]) == 0.0

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_pair_counting_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        # coarse grid forces plenty of exact ties
        scores = rng.integers(0, 6, size=n).astype(float) / 2.0
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pair_count_auroc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == base
        assert auroc(3.0 * scores + 7.0, labels) == base


class TestTieAverageRanks:
    @pytest.mark.parametrize("seed", range(10))
    def test_bit_equal_to_reference_on_ties_and_nan(self, seed):
        rng = np.random.default_rng([seed, 3])
        n = 19 * seed  # from empty up to 171 scores
        # a handful of distinct values forces long tie runs; signed zeros tie
        values = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0, np.inf], size=n)
        values[rng.random(n) < 0.2] = np.nan
        np.testing.assert_array_equal(
            tie_average_ranks(values).view(np.int64),
            reference_tie_average_ranks(values).view(np.int64),
        )


class TestTvDiagnostic:
    def test_identical_samples_zero(self):
        z = np.random.default_rng(0).normal(size=(50, 3))
        assert tv_distance_diagnostic(z, z.copy()) == 0.0

    def test_disjoint_supports_one(self):
        a = np.zeros((40, 2))
        b = np.ones((40, 2)) * 9.0
        assert tv_distance_diagnostic(a, b) == 1.0

    def test_hand_histogram(self):
        a = np.zeros((100, 1))
        b = np.concatenate([np.zeros((50, 1)), np.ones((50, 1))])
        assert tv_distance_diagnostic(a, b, bins=2, n_projections=0) == 0.5

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(80, 4))
        b = rng.normal(1.0, 2.0, size=(60, 4))
        ab = tv_distance_diagnostic(a, b, seed=5)
        ba = tv_distance_diagnostic(b, a, seed=5)
        assert ab == ba
        assert 0.0 <= ab <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tv_distance_diagnostic(np.zeros((0, 2)), np.zeros((5, 2)))


def untrained_model(dim=8, seed=0, **kw):
    return DetectorModel(
        Architecture(input_dim=dim, hidden=(32, 32, 32), latent_dim=16, **kw),
        rng=np.random.default_rng(seed),
    )


class TestScoreBatch:
    def test_row_duplication_leaves_scores_unchanged(self):
        model = untrained_model(dim=4)
        x = np.random.default_rng(1).normal(size=(10, 4))
        base = model.score_batch(x).s
        doubled = model.score_batch(np.concatenate([x, x])).s
        np.testing.assert_allclose(doubled[:10], base, atol=1e-8)
        np.testing.assert_allclose(doubled[10:], base, atol=1e-8)

    def test_batch_too_small(self):
        model = untrained_model(dim=4)
        with pytest.raises(BatchTooSmallError):
            model.score_batch(np.ones((1, 4)))

    def test_shift_removed_when_first_layer_normalizes(self):
        model = untrained_model(dim=4, seed=3, input_bn=True)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 4))
        shifted = x + rng.normal(size=4)
        s1 = model.score_batch(x).s
        s2 = model.score_batch(shifted).s
        np.testing.assert_allclose(s2, s1, rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(np.argsort(s1), np.argsort(s2))

    def test_trained_model_flags_injected_outlier(self):
        meta = toy_two_pool_meta(seed=2)
        cfg = TrainConfig(
            iterations=300, tasks_per_iter=4, batch_size=30, pi=0.8,
            learning_rate=1e-3, seed=1, hidden=(16, 16), latent_dim=8,
        )
        model, _ = train(meta, cfg)
        rng = np.random.default_rng(9)
        batch = rng.normal(50.0, 1.0, size=(30, 1))  # an unseen location
        batch[7, 0] = 50.0 + 5.0
        scores = model.score_batch(batch).s
        assert np.argmax(scores) == 7


@pytest.fixture(scope="module")
def small_setup():
    spec = GaussianMetaSpec(
        dim=4, train_distributions=3, test_distributions=2,
        samples_per_distribution=400,
    )
    return generate_gaussian_metaset(spec, seed=5)


class TestEvaluate:
    def test_single_run_single_ratio(self, small_setup):
        _, test_meta = small_setup
        rep = evaluate(
            untrained_model(dim=4), test_meta, ratios=[0.1], runs=1,
            batches_per_run=4, batch_size=20,
        )
        mean, std = rep.per_ratio[0.1]
        assert std == 0.0
        assert 0.0 <= mean <= 1.0

    def test_untrained_null_and_builtin_adaptation(self, small_setup):
        # with normalization disabled an untrained network is a coin flip;
        # with it enabled, the batch statistics alone already separate the
        # far-out admixture even before any training
        _, test_meta = small_setup
        nulls, adapted = [], []
        for seed in range(5):
            model = untrained_model(dim=4, seed=seed)
            kw = dict(ratios=[0.1], runs=2, batches_per_run=10, batch_size=30, seed=seed)
            adapted.append(evaluate(model, test_meta, **kw).per_ratio[0.1][0])
            ident = untrained_model(dim=4, seed=seed)
            ident.bn_mode = "identity"
            nulls.append(evaluate(ident, test_meta, **kw).per_ratio[0.1][0])
        assert 0.3 <= np.mean(nulls) <= 0.7
        assert np.mean(adapted) > 0.8

    def test_deterministic_given_seed(self, small_setup):
        _, test_meta = small_setup
        model = untrained_model(dim=4)
        a = evaluate(model, test_meta, ratios=[0.1, 0.2], runs=2, batches_per_run=3, seed=7)
        b = evaluate(model, test_meta, ratios=[0.1, 0.2], runs=2, batches_per_run=3, seed=7)
        assert a.per_ratio == b.per_ratio


class TestCollectLatents:
    def test_latents_are_batch_normalized_at_init(self):
        # gamma starts at 1 and beta at 0, so each scored batch leaves the
        # final normalization with per-feature mean 0 and unit variance
        model = untrained_model(dim=4)
        x = np.random.default_rng(0).normal(3.0, 2.0, size=(40, 4))
        z = model.latent_batch(x)
        assert np.abs(z.mean(axis=0)).max() < 1e-8
        assert np.abs(z.var(axis=0) - 1.0).max() < 1e-3

    def test_raw_mode_returns_inputs_dim(self):
        spec = GaussianMetaSpec(
            dim=4, train_distributions=3, test_distributions=1,
            samples_per_distribution=200,
        )
        train_meta, _ = generate_gaussian_metaset(spec, seed=1)
        model = untrained_model(dim=4)
        raw, latent = collect_latents(model, train_meta, 0.1, 3, 20, seed=0)
        assert raw.shape == (60, 4)
        assert latent.shape == (60, 16)
        # one sampling pass: each latent batch is the model's view of its raw batch
        np.testing.assert_array_equal(latent[20:40], model.latent_batch(raw[20:40]))
