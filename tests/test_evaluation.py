"""AUROC against the pair-counting oracle, the projected TV diagnostic, and
the batch scoring protocol."""

import os
import re
import sys
import threading
import time

import numpy as np
import pytest

from batchad import evaluation
from batchad.data import GaussianMetaSpec, generate_gaussian_metaset
from batchad.errors import BatchTooSmallError, ConfigError, UndefinedMetricError
from batchad.evaluation import (
    CELL_THREAD_MACS,
    CELL_THREADS,
    auroc,
    collect_latents,
    evaluate,
    tv_distance_diagnostic,
)
import batchad.model
from batchad.model import HEADS, STACK_ROWS, Architecture, DetectorModel
from batchad.nn import BN_BATCH, BN_MODES
from batchad.scores import bce_scores, dsvdd_scores
from batchad.training import TrainConfig, train

from helpers import (
    assert_same_bits,
    pair_count_auroc,
    reference_tie_average_ranks,
    toy_two_pool_meta,
)


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

    def test_scores_and_labels_of_different_lengths(self):
        with pytest.raises(ValueError, match="^scores and labels disagree on length$"):
            auroc([0.1, 0.2, 0.3], [0, 1])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_pair_counting_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        # 2 to 50 scores, then the 1500 of an evaluation cell
        n = int(rng.integers(2, 51)) if seed < 24 else 1500
        # a coarse grid forces plenty of exact ties; signed zeros tie, and so
        # do two infinities of one sign
        grid = [-np.inf, -0.0, 0.0, 0.5, 1.0, 1.5, 2.5, np.inf]
        scores = rng.choice(grid, size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        if seed % 3 == 1:  # NaN in either class, at least one in each
            scores[rng.random(n) < 0.2] = np.nan
            scores[[np.argmax(labels == 1), np.argmax(labels == 0)]] = np.nan
        elif seed % 3 == 2:  # one class all NaN, positives or negatives
            scores[labels == seed % 2] = np.nan
        assert auroc(scores, labels) == pair_count_auroc(scores, labels)

    def test_nan_positive_outscores_nothing(self):
        assert auroc([np.nan, 0.5], [1, 0]) == 0.0
        assert auroc([0.5, np.nan], [1, 0]) == 0.0
        assert auroc([np.nan, np.nan], [1, 0]) == 0.0
        assert auroc([np.nan, 1.0, 0.5], [1, 1, 0]) == 0.5

    @pytest.mark.parametrize("seed", range(14))
    def test_bit_equal_to_rank_sum_on_finite_ties(self, seed):
        rng = np.random.default_rng([seed, 3])
        # 2 up to 173 scores, then the 1500 of an evaluation cell
        n = 19 * seed + 2 if seed < 10 else 1500
        # a handful of distinct values forces long tie runs; signed zeros tie,
        # and so do two infinities of one sign
        scores = rng.choice([-np.inf, -1.5, -0.0, 0.0, 0.5, 2.0, np.inf], size=n)
        # from all ties at seed 0 to mostly distinct scores at seed 13
        distinct = rng.random(n) < seed / 14
        scores[distinct] = rng.normal(size=distinct.sum())
        labels = rng.integers(0, 2, size=n)
        labels[:2] = 0, 1
        pos = labels == 1
        n_pos = int(pos.sum())
        ranks = reference_tie_average_ranks(scores)
        rank_sum = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
        assert_same_bits(np.float64(auroc(scores, labels)), np.float64(rank_sum))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == base
        assert auroc(3.0 * scores + 7.0, labels) == base


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
        # every projection of a 1-D sample is +-x: half of b's mass moves
        assert tv_distance_diagnostic(a, b) == 0.5

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(80, 4))
        b = rng.normal(1.0, 2.0, size=(60, 4))
        ab = tv_distance_diagnostic(a, b)
        ba = tv_distance_diagnostic(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tv_distance_diagnostic(np.zeros((0, 2)), np.zeros((5, 2)))

    def test_rejects_samples_of_different_dimension(self):
        with pytest.raises(ValueError, match="^samples disagree on dimension$"):
            tv_distance_diagnostic(np.zeros((5, 2)), np.zeros((5, 3)))


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

    @pytest.mark.parametrize("shape", [(10, 3), (2, 10, 5)], ids=["batch", "stack"])
    def test_wrong_width_is_rejected_naming_both(self, shape):
        model = untrained_model(dim=4)
        with pytest.raises(ValueError, match=f"^model expects 4 features, got {shape[-1]}$"):
            model.score_batch(np.ones(shape))

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


def scoring_model(head: str, mode: str) -> DetectorModel:
    """A model off its init values, scoring in ``mode``, frozen statistics set."""
    rng = np.random.default_rng(6)
    arch = Architecture(
        input_dim=5, hidden=(16, 16), latent_dim=6, input_bn=True, head=head, bn_mode=mode
    )
    model = DetectorModel(arch, rng)
    model.theta += rng.normal(0.0, 0.2, model.theta.shape)
    model.freeze_batch_stats(rng.normal(size=(30, 5)))
    return model


def scored_one_batch_at_a_time(model, x):
    """(s, a, latent rows) of a stack from one call per batch, in row order."""
    parts = [(model.score_batch(batch), model.latent_batch(batch)) for batch in x]
    return tuple(np.concatenate(v) for v in zip(*((sv.s, sv.a, z) for sv, z in parts)))


class TestStackedScoring:
    @pytest.mark.parametrize("rows", [2, 3, 60])
    @pytest.mark.parametrize("mode", BN_MODES)
    @pytest.mark.parametrize("head", HEADS)
    def test_stack_scores_bit_equal_to_the_per_batch_loop(self, head, mode, rows):
        model = scoring_model(head, mode)
        x = np.random.default_rng(rows).normal(2.0, 3.0, size=(7, rows, 5))
        sv = model.score_batch(x)
        stacked = (sv.s, sv.a, model.latent_batch(x))
        for got, want in zip(stacked, scored_one_batch_at_a_time(model, x)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("budget", [STACK_ROWS, 60, 59, 150])
    @pytest.mark.parametrize("head", HEADS)
    def test_stack_over_the_row_budget_scores_as_unchunked(self, head, budget, monkeypatch):
        # 81 batches of 60 rows are 4860 rows, over the 4096-row budget
        model = scoring_model(head, BN_BATCH)
        x = np.random.default_rng(8).normal(size=(81, 60, 5))
        monkeypatch.setattr(batchad.model, "STACK_ROWS", 10**9)
        whole = model.score_batch(x), model.latent_batch(x)
        monkeypatch.setattr(batchad.model, "STACK_ROWS", budget)
        chunks = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda xs: chunks.append(len(xs)) or forward(xs))
        sv, z = model.score_batch(x), model.latent_batch(x)
        # whole batches, as many as fit the budget, and at least one
        per_chunk = max(1, budget // 60)
        assert chunks == 2 * [min(per_chunk, 81 - lo) for lo in range(0, 81, per_chunk)]
        for got, want in ((sv.s, whole[0].s), (sv.a, whole[0].a), (z, whole[1])):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("head", HEADS)
    def test_a_batch_scores_as_its_forward_pass(self, head):
        model = scoring_model(head, BN_BATCH)
        x = np.random.default_rng(9).normal(size=(60, 5))
        out, latent = model.forward(x)
        sv = model.score_batch(x)
        if head == "dsvdd":
            want = dsvdd_scores(out, model.center, model.arch.inverse_eps)
        else:
            want = bce_scores(out[:, 0] + model.offset)
        assert_same_bits(sv.s, want.s)
        assert_same_bits(sv.a, want.a)
        assert_same_bits(model.latent_batch(x), latent)

    def test_stack_of_one_row_batches_is_too_small(self):
        model = scoring_model("dsvdd", BN_BATCH)
        with pytest.raises(BatchTooSmallError):
            model.score_batch(np.ones((4, 1, 5)))
        with pytest.raises(BatchTooSmallError):
            model.latent_batch(np.ones((4, 1, 5)))

    def test_four_dimensional_input_is_rejected(self):
        model = scoring_model("dsvdd", BN_BATCH)
        with pytest.raises(ValueError):
            model.score_batch(np.ones((2, 3, 4, 5)))
        with pytest.raises(ValueError):
            model.latent_batch(np.ones((2, 3, 4, 5)))

    @pytest.mark.parametrize("mode", BN_MODES)
    @pytest.mark.parametrize("head", HEADS)
    def test_threads_sharing_a_model_score_as_serial_calls(self, head, mode):
        # a trained model is safe to share across threads: two threads score
        # it at once and each gets the bits of a call made alone
        model = scoring_model(head, mode)
        rng = np.random.default_rng(10)
        batch, stack = rng.normal(size=(60, 5)), rng.normal(size=(25, 60, 5))

        def results():
            sv_batch, sv_stack = model.score_batch(batch), model.score_batch(stack)
            return [sv_batch.s, sv_batch.a, sv_stack.s, sv_stack.a, model.latent_batch(stack)]

        serial = results()
        start = threading.Barrier(2)
        got = [None, None]

        def score(k):
            start.wait(timeout=60)
            got[k] = [results() for _ in range(20)]

        threads = [threading.Thread(target=score, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert None not in got
        for rounds in got:
            for arrays in rounds:
                for array, want in zip(arrays, serial, strict=True):
                    assert_same_bits(array, want)


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
            ident = untrained_model(dim=4, seed=seed, bn_mode="identity")
            nulls.append(evaluate(ident, test_meta, **kw).per_ratio[0.1][0])
        assert 0.3 <= np.mean(nulls) <= 0.7
        assert np.mean(adapted) > 0.8

    def test_deterministic_given_seed(self, small_setup):
        _, test_meta = small_setup
        model = untrained_model(dim=4)
        a = evaluate(model, test_meta, ratios=[0.1, 0.2], runs=2, batches_per_run=3, seed=7)
        b = evaluate(model, test_meta, ratios=[0.1, 0.2], runs=2, batches_per_run=3, seed=7)
        assert a.per_ratio == b.per_ratio

    @pytest.mark.parametrize(
        "name, value",
        [
            ("runs", 0),
            ("runs", -1),
            ("batches_per_run", 0),
            ("runs", 2.5),
            ("runs", True),
            ("batches_per_run", 1.5),
            ("batches_per_run", True),
        ],
        ids=str,
    )
    def test_count_below_one_is_config_error_naming_it(self, name, value, small_setup):
        _, test_meta = small_setup
        if type(value) is int:
            message = f"{name} must be at least 1, got {value}"
        else:  # a float or a bool is not a count
            message = f"{name} must be an int, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            evaluate(untrained_model(dim=4), test_meta, ratios=[0.1], **{name: value})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("batch_size", 60.0, "batch_size must be an int, got 60.0"),
            ("batch_size", True, "batch_size must be an int, got True"),
            ("batch_size", 1, "batch_size must be at least 2, got 1"),
            ("seed", -1, "seed must be nonnegative, got -1"),
            ("seed", 1.5, "seed must be an int, got 1.5"),
            ("seed", "0", "seed must be an int, got '0'"),
        ],
        ids=str,
    )
    def test_batch_size_and_seed_are_checked_like_the_counts(
        self, name, value, message, small_setup
    ):
        _, test_meta = small_setup
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            evaluate(untrained_model(dim=4), test_meta, ratios=[0.1], **{name: value})

    def test_duplicate_ratio_is_config_error(self, small_setup):
        # the report keys cells by ratio, so a second entry would overwrite
        # the first one's cells while n_scored counted both
        _, test_meta = small_setup
        with pytest.raises(ConfigError, match="^anomaly ratio 0.1 is listed twice$"):
            evaluate(untrained_model(dim=4), test_meta, ratios=(0.1, 0.1), runs=2,
                     batches_per_run=3)

    def test_numpy_integer_arguments_give_the_int_report(self, small_setup):
        _, test_meta = small_setup
        model = untrained_model(dim=4)
        ints = dict(runs=2, batches_per_run=3, batch_size=20, seed=7)
        a = evaluate(model, test_meta, ratios=[0.1], **ints)
        b = evaluate(model, test_meta, ratios=[0.1], **{k: np.int64(v) for k, v in ints.items()})
        assert a.cells == b.cells and a.n_scored == b.n_scored


def with_cpus(monkeypatch, count: int) -> None:
    """Make the process see ``count`` CPUs it may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)), raising=False)


def scoring_threads(monkeypatch, model) -> set:
    """The threads that call ``model.score_batch`` from now on (kept as
    objects: a finished thread's ident may be reused)."""
    threads = set()
    score = model.score_batch
    monkeypatch.setattr(
        model, "score_batch", lambda x: threads.add(threading.current_thread()) or score(x)
    )
    return threads


class TestEvaluateThreads:
    WIDTH = 128  # the widest product of the model below has WIDTH**2 fan-in x fan-out
    GUARD_ROWS = CELL_THREAD_MACS // WIDTH**2 + 1  # the fewest rows over the guard

    @pytest.mark.parametrize(
        "ratios, runs", [([0.1], 1), ([0.1, 0.2], 3)], ids=["2-cells", "12-cells"]
    )
    @pytest.mark.parametrize(
        "rows", [20, GUARD_ROWS - 1, GUARD_ROWS], ids=["below-guard", "at-guard", "over-guard"]
    )
    def test_report_does_not_depend_on_the_cpu_count(
        self, rows, ratios, runs, small_setup, monkeypatch
    ):
        _, test_meta = small_setup  # two pools: 2 cells per ratio and run
        model = DetectorModel(
            Architecture(input_dim=4, hidden=(self.WIDTH, self.WIDTH), latent_dim=16),
            rng=np.random.default_rng(0),
        )
        threads = scoring_threads(monkeypatch, model)
        reports = {}
        for cpus in (1, 2, 7):  # 7 CPUs are more than the 2-cell grid has cells
            with_cpus(monkeypatch, cpus)
            threads.clear()
            reports[cpus] = evaluate(
                model, test_meta, ratios=ratios, runs=runs, seed=3,
                batch_size=rows, batches_per_run=2,
            )
            assert threading.current_thread() in threads
            assert len(threads) == (1 if cpus == 1 or rows == self.GUARD_ROWS else CELL_THREADS)
        for cpus in (2, 7):
            for key in ("cells", "per_ratio", "auroc", "n_scored"):
                assert getattr(reports[cpus], key) == getattr(reports[1], key), (cpus, key)
        assert reports[1].n_scored == 2 * len(ratios) * runs * 2 * rows

    @pytest.mark.parametrize("cpu_count, want", [(1, 1), (None, 1), (3, CELL_THREADS)])
    def test_cpu_count_is_the_fallback_without_affinity(
        self, cpu_count, want, small_setup, monkeypatch
    ):
        _, test_meta = small_setup
        model = untrained_model(dim=4)
        threads = scoring_threads(monkeypatch, model)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        evaluate(model, test_meta, ratios=[0.1], runs=2, batch_size=20, batches_per_run=2)
        assert len(threads) == want

    def test_error_in_a_helper_thread_reaches_the_caller_unchanged(self, small_setup, monkeypatch):
        _, test_meta = small_setup
        model = untrained_model(dim=4)
        with_cpus(monkeypatch, 2)
        caller = threading.get_ident()
        error = MemoryError("cell scored on a helper thread")
        score = model.score_batch

        def score_on_caller_only(x):
            if threading.get_ident() != caller:
                raise error
            return score(x)

        monkeypatch.setattr(model, "score_batch", score_on_caller_only)
        before = threading.enumerate()
        with pytest.raises(MemoryError, match=f"^{error}$") as raised:
            evaluate(model, test_meta, ratios=[0.1], runs=2, batch_size=20, batches_per_run=2)
        assert raised.value is error
        assert threading.enumerate() == before

    @pytest.mark.parametrize(
        "cpus, width, rows", [(1, 32, 20), (2, WIDTH, GUARD_ROWS)], ids=["one-cpu", "over-guard"]
    )
    def test_error_on_the_only_scoring_thread_stops_the_loop(
        self, cpus, width, rows, small_setup, monkeypatch
    ):
        # with n = 1 the caller scores every cell and no helper thread starts
        _, test_meta = small_setup  # two pools: four cells at one ratio and two runs
        model = DetectorModel(
            Architecture(input_dim=4, hidden=(width, width), latent_dim=16),
            rng=np.random.default_rng(0),
        )
        with_cpus(monkeypatch, cpus)
        error = MemoryError("second cell")
        scorers = []
        score = model.score_batch

        def fail_second(x):
            scorers.append(threading.current_thread())
            if len(scorers) == 2:
                raise error
            return score(x)

        monkeypatch.setattr(model, "score_batch", fail_second)
        before = threading.enumerate()
        with pytest.raises(MemoryError) as raised:
            evaluate(model, test_meta, ratios=[0.1], runs=2, batch_size=rows, batches_per_run=2)
        assert raised.value is error
        assert scorers == [threading.current_thread()] * 2  # cells 3 and 4 never scored
        assert threading.enumerate() == before

    def test_the_first_failed_cell_in_order_is_raised(self, small_setup, monkeypatch):
        # cell 1 fails at once on the helper, cell 0 only after a pause on
        # the caller: the serial loop raises cell 0's error, and so must evaluate
        _, test_meta = small_setup
        with_cpus(monkeypatch, 2)

        def build(meta, js, pi, batch_size, rng):
            if js[0] == 0:  # ratios [0.1] and one run: the rotation is the cell
                time.sleep(0.2)
            raise ValueError(f"cell {js[0]} fails")

        monkeypatch.setattr(evaluation, "build_contaminated_task", build)
        with pytest.raises(ValueError, match="^cell 0 fails$"):
            evaluate(untrained_model(dim=4), test_meta, ratios=[0.1], runs=1, batch_size=20)

    def test_threads_under_fast_switching_give_the_serial_report(self, small_setup, monkeypatch):
        # a lost or misplaced cell value would change the report
        _, test_meta = small_setup
        model = untrained_model(dim=4)
        kw = dict(ratios=[0.1, 0.2], runs=7, seed=4, batch_size=20, batches_per_run=2)
        with_cpus(monkeypatch, 1)
        serial = evaluate(model, test_meta, **kw)
        threads = scoring_threads(monkeypatch, model)
        with_cpus(monkeypatch, 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = evaluate(model, test_meta, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == CELL_THREADS
        assert threaded.cells == serial.cells
        assert threaded.n_scored == serial.n_scored == 2 * 2 * 7 * 2 * 20

    def test_a_failed_cell_stops_the_other_threads(self, small_setup, monkeypatch):
        # the first cell scored fails; the cells not yet started are dropped
        # instead of being scored through the other 199
        _, test_meta = small_setup
        model = untrained_model(dim=4)
        with_cpus(monkeypatch, 2)
        calls = []
        lock = threading.Lock()
        score = model.score_batch

        def fail_first(x):
            with lock:
                calls.append(1)
                first = len(calls) == 1
            if first:
                raise ValueError("the first cell scored fails")
            return score(x)

        monkeypatch.setattr(model, "score_batch", fail_first)
        with pytest.raises(ValueError, match="^the first cell scored fails$"):
            evaluate(
                model, test_meta, ratios=[0.1, 0.2], runs=50, batch_size=20, batches_per_run=2
            )
        assert len(calls) < 100


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
