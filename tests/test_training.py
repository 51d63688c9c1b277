"""Loss definitions, the training loop contract, and checkpointing."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from batchad.errors import ConfigError, DivergenceError
from batchad.model import (
    CHECKPOINT_MAGIC,
    STAT_FIELDS,
    Architecture,
    DetectorModel,
    load_checkpoint,
    save_checkpoint,
)
from batchad.nn import Adam
from batchad.scores import ScoreVector, meta_oe_loss
from batchad.tasks import MetaDataset, sample_iteration_tasks
from batchad import training
from batchad.training import (
    DIVERGENCE_PATIENCE,
    TrainConfig,
    average_task_gradients,
    no_bn_trivial_loss_value,
    train,
)

from helpers import toy_two_pool_meta


def sv(s, a=None):
    s = np.asarray(s, dtype=float)
    return ScoreVector(s=s, a=np.asarray(a, dtype=float) if a is not None else 1.0 / (s + 1e-6))


class TestLosses:
    def test_all_normal_reduces_to_mean_s(self):
        assert meta_oe_loss(sv([1.0, 2.0, 3.0]), [0, 0, 0]) == pytest.approx(2.0)

    def test_all_anomalous_reduces_to_mean_a(self):
        scores = sv([9.0, 9.0], a=[2.0, 4.0])
        assert meta_oe_loss(scores, [1, 1]) == pytest.approx(3.0)

    def test_mixed_hand_value(self):
        scores = sv([1.0, 1.0, 4.0, 99.0], a=[9.0, 9.0, 9.0, 8.0])
        assert meta_oe_loss(scores, [0, 0, 0, 1]) == pytest.approx(3.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            meta_oe_loss(sv([1.0]), [0, 1])

    def test_losses_agree_on_pure_batch(self):
        # one_class is the mixed objective with every row labeled normal,
        # whatever labels it is given
        model = DetectorModel(small_cfg().architecture(1))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 12, 1))
        y = (rng.random((2, 12)) < 0.3).astype(float)
        loss, grad = model.loss_and_grads(x, np.zeros_like(y), loss_kind="meta_oe")
        one_loss, one_grad = model.loss_and_grads(x, y, loss_kind="one_class")
        assert loss == one_loss
        assert np.array_equal(grad, one_grad)


class TestTrivialOptimum:
    def test_at_default_mixture(self):
        assert no_bn_trivial_loss_value(0.8) == pytest.approx(1.6)

    def test_at_half(self):
        assert no_bn_trivial_loss_value(0.5) == pytest.approx(2.0)

    def test_limit_at_one(self):
        assert no_bn_trivial_loss_value(1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            no_bn_trivial_loss_value(0.3)


def small_cfg(**kw):
    base = dict(
        iterations=5,
        tasks_per_iter=2,
        batch_size=16,
        pi=0.8,
        learning_rate=1e-3,
        seed=0,
        hidden=(8, 8),
        latent_dim=4,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_zero_iterations_forbidden(self):
        with pytest.raises(ConfigError):
            small_cfg(iterations=0)

    def test_single_iteration_single_task(self):
        meta = toy_two_pool_meta(n=200)
        model, report = train(meta, small_cfg(iterations=1, tasks_per_iter=1))
        assert len(report.loss_curve) == 1

    def test_loss_curve_length_matches_iterations(self):
        meta = toy_two_pool_meta(n=200)
        _, report = train(meta, small_cfg(iterations=7))
        assert len(report.loss_curve) == 7

    def test_toy_run_reduces_loss(self):
        meta = toy_two_pool_meta(n=2000)
        cfg = small_cfg(iterations=200, tasks_per_iter=4, batch_size=30, hidden=(16, 16), seed=3)
        _, report = train(meta, cfg)
        smoothed = np.mean(report.loss_curve[-20:])
        assert smoothed < report.loss_curve[0]

    def test_pure_mixture_equals_one_class_trajectory(self):
        # with no contaminants the mixed objective IS the one-class objective
        meta = toy_two_pool_meta(n=500)
        a = train(meta, small_cfg(iterations=20, pi=1.0, loss="meta_oe"))[1]
        b = train(meta, small_cfg(iterations=20, pi=1.0, loss="one_class"))[1]
        assert a.loss_curve == b.loss_curve

    def test_frozen_center_gets_no_gradient_and_stays_at_zero(self):
        meta = toy_two_pool_meta(n=400)
        cfg = small_cfg(iterations=5, center_frozen=True)
        model = DetectorModel(cfg.architecture(meta.dim), np.random.default_rng(0))
        x, y = sample_iteration_tasks(meta, 2, 0.8, 16, np.random.default_rng(1))
        _loss, grad = model.loss_and_grads(x, y)
        assert not model.views(grad)["center"].any() and grad.any()
        trained, _ = train(meta, cfg)
        assert not trained.center.any()

    def test_single_pool_with_contamination_rejected(self):
        meta = MetaDataset(pools=(np.zeros((50, 2)),), ids=(0,))
        with pytest.raises(ConfigError):
            train(meta, small_cfg(pi=0.8))

    def test_reproducible_loss_curve(self):
        meta = toy_two_pool_meta(n=300)
        r1 = train(meta, small_cfg(iterations=15, seed=11))[1]
        r2 = train(meta, small_cfg(iterations=15, seed=11))[1]
        assert r1.loss_curve == r2.loss_curve

    def test_divergence_guard_aborts(self):
        rng = np.random.default_rng(0)
        huge = rng.normal(scale=1e200, size=(100, 2))
        meta = MetaDataset(pools=(huge, -huge), ids=(0, 1))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            train(meta, small_cfg(iterations=20, bn_mode="identity"))

    @staticmethod
    def nan_gradient_on(monkeypatch, iterations):
        """Make ``average_task_gradients`` return a NaN gradient, with its
        finite loss, on the given 0-based iterations."""
        seen = []

        def patched(*args, **kwargs):
            loss, grad = average_task_gradients(*args, **kwargs)
            if len(seen) in iterations:
                grad[0] = np.nan
            seen.append(loss)
            return loss, grad

        monkeypatch.setattr(training, "average_task_gradients", patched)

    def test_non_finite_gradient_skips_the_step(self, monkeypatch):
        meta = toy_two_pool_meta(n=300)
        before = train(meta, small_cfg(iterations=7))[0].theta
        self.nan_gradient_on(monkeypatch, {7})
        model, report = train(meta, small_cfg(iterations=8))
        assert report.diverged_iterations == 1
        assert np.isfinite(model.theta).all()
        # the last iteration's step was skipped, not taken
        assert np.array_equal(model.theta, before)

    def test_non_finite_gradients_in_a_row_abort(self, monkeypatch):
        meta = toy_two_pool_meta(n=300)
        self.nan_gradient_on(monkeypatch, set(range(2, 1 + DIVERGENCE_PATIENCE)))
        model, report = train(meta, small_cfg(iterations=10))
        assert report.diverged_iterations == DIVERGENCE_PATIENCE - 1
        assert np.isfinite(model.theta).all()
        self.nan_gradient_on(monkeypatch, set(range(2, 2 + DIVERGENCE_PATIENCE)))
        with pytest.raises(DivergenceError, match="gradient"):
            train(meta, small_cfg(iterations=10))

    def test_frozen_mode_records_statistics(self):
        meta = toy_two_pool_meta(n=300)
        model, _ = train(meta, small_cfg(bn_mode="frozen"))
        assert model.has_frozen_stats()

    def test_frozen_mode_with_a_masked_position(self, tmp_path):
        # a masked-off position is identity and gets no statistics
        meta = toy_two_pool_meta(n=300)
        model, _ = train(meta, small_cfg(bn_mode="frozen", bn_mask=(1, 0, 1)))
        assert model.has_frozen_stats()
        norms = [layer for _n, kind, layer in model.blocks if kind == "bn"]
        assert norms[1].frozen_mean is None
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        x = np.random.default_rng(5).normal(size=(12, 1))
        assert np.array_equal(model.score_batch(x).s, clone.score_batch(x).s)

    def test_masked_positions_act_as_identity(self):
        # all positions masked off must reproduce the identity-mode trajectory
        meta = toy_two_pool_meta(n=300)
        n_bn = len(small_cfg().hidden) + 1
        masked = train(meta, small_cfg(bn_mask=(0,) * n_bn))[1]
        ident = train(meta, small_cfg(bn_mode="identity"))[1]
        assert masked.loss_curve == ident.loss_curve


class TestTrainMatchesAHandLoop:
    @pytest.mark.parametrize("bn_mode", ["batch", "frozen"])
    def test_train_steps_on_the_tasks_as_sampled(self, bn_mode):
        # train() is, bit for bit: sample a stack, one loss_and_grads on it as
        # sampled, one Adam step; a frozen model then freezes the last task
        meta = toy_two_pool_meta(n=400)
        cfg = small_cfg(iterations=6, tasks_per_iter=5, bn_mode=bn_mode)
        model, report = train(meta, cfg)

        init_ss, task_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        ref = DetectorModel(cfg.architecture(meta.dim), np.random.default_rng(init_ss))
        adam = Adam(ref.theta, cfg.learning_rate)
        task_rng = np.random.default_rng(task_ss)
        losses = []
        for _ in range(cfg.iterations):
            x, y = sample_iteration_tasks(meta, cfg.tasks_per_iter, cfg.pi, cfg.batch_size, task_rng)
            loss, grad = ref.loss_and_grads(x, y, loss_kind=cfg.loss, mode="batch")
            losses.append(loss)
            adam.step(grad)

        assert report.loss_curve == losses
        assert np.array_equal(model.theta, ref.theta)
        if bn_mode == "frozen":
            ref.freeze_batch_stats(x[-1])
            for (_n, got), (_m, want) in zip(model.active_norms(), ref.active_norms(), strict=True):
                assert np.array_equal(got.frozen_mean, want.frozen_mean)
                assert np.array_equal(got.frozen_var, want.frozen_var)


class TestStackedReduction:
    def setup_iteration(self, tasks_per_iter=5):
        meta = toy_two_pool_meta(n=400)
        model, _ = train(meta, small_cfg(iterations=3))
        return model, *sample_iteration_tasks(meta, tasks_per_iter, 0.8, 16, np.random.default_rng(5))

    def test_matches_mean_of_per_task_passes(self):
        model, x, y = self.setup_iteration()
        loss, grad = average_task_gradients(model, x, y, "meta_oe", "batch")
        grads = model.views(grad)
        per_task = [model.loss_and_grads(xt, yt, loss_kind="meta_oe") for xt, yt in zip(x, y)]
        per_task = [(l, model.views(g)) for l, g in per_task]
        ref_loss = sum(l for l, _ in per_task) / len(x)
        assert abs(loss - ref_loss) <= 1e-15 * abs(ref_loss)
        # one scale for every array: a small gradient, such as the first
        # layer's weights on this 1-D input, agrees only to rounding of the largest
        scale = max(np.abs(g).max() for g in grads.values())
        for name, g in grads.items():
            ref = sum(pt[1][name] for pt in per_task) / len(x)
            assert np.abs(g - ref).max() <= 1e-12 * scale, name

    def test_records_the_last_sampled_task(self):
        # a frozen model holds the statistics of the last task sampled in the
        # final iteration, under the final parameters
        meta = toy_two_pool_meta(n=400)
        cfg = small_cfg(iterations=3, tasks_per_iter=5, bn_mode="frozen")
        model, _ = train(meta, cfg)
        task_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
        for _ in range(cfg.iterations):
            x, y = sample_iteration_tasks(meta, cfg.tasks_per_iter, cfg.pi, cfg.batch_size, task_rng)
        frozen = [(bn.frozen_mean, bn.frozen_var) for _n, bn in model.active_norms()]
        model.freeze_batch_stats(x[-1])
        for (_n, bn), (mean, var) in zip(model.active_norms(), frozen):
            assert np.array_equal(mean, bn.frozen_mean)
            assert np.array_equal(var, bn.frozen_var)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        meta = toy_two_pool_meta(n=300)
        model, _ = train(meta, small_cfg(iterations=10))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        for (ka, va), (kb, vb) in zip(model.params().items(), clone.params().items()):
            assert ka == kb
            assert np.array_equal(va, vb)
        x = np.random.default_rng(5).normal(size=(12, 1))
        assert np.array_equal(model.score_batch(x).s, clone.score_batch(x).s)

    def test_round_trip_preserves_frozen_stats(self, tmp_path):
        meta = toy_two_pool_meta(n=300)
        model, _ = train(meta, small_cfg(bn_mode="frozen"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        assert clone.has_frozen_stats()
        x = np.random.default_rng(5).normal(size=(12, 1))
        assert np.array_equal(model.score_batch(x).s, clone.score_batch(x).s)

    @pytest.mark.parametrize("mask", [None, (1, 1), (1, 0)], ids=str)
    def test_round_trip_keeps_the_description(self, mask, tmp_path):
        # the header lists the resolved mask; an all-on mask is read back as
        # the unset one, so the loaded description equals the saved one and
        # replacing its head re-sizes the unset mask as it does the original
        arch = Architecture(input_dim=3, hidden=(4,), latent_dim=2, bn_mask=mask)
        path = tmp_path / "model.ckpt"
        save_checkpoint(DetectorModel(arch), path)
        loaded = load_checkpoint(path).arch
        assert loaded == arch
        if mask != (1, 0):
            assert replace(loaded, head="bce").bn_on() == (True,)

    def test_save_is_deterministic(self, tmp_path):
        meta = toy_two_pool_meta(n=300)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(train(meta, small_cfg(iterations=8))[0], p1)
        save_checkpoint(train(meta, small_cfg(iterations=8))[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "arch, digest",
        [
            (
                Architecture(input_dim=8),
                "06d2cc3c118c0fc88e66ba399a15e7f50a6a1e9667c19f4f5afabb4c36b15545",
            ),
            (
                Architecture(
                    3, hidden=(6, 5), latent_dim=4, input_bn=True, head="bce", bn_mask=(1, 0, 1)
                ),
                "4bfda8b8dbb867164f43122131423216d06ebb005be020004c74a7cfa3c78a08",
            ),
            (
                Architecture(3, hidden=(6, 5), latent_dim=4, bn_mode="frozen", center_frozen=True),
                "f1c1ddd98a2d0aa898da4a889dda75d45c2ecfdb535280407364dbe5a9310ab5",
            ),
        ],
        ids=["headline", "bce-input-bn-masked", "frozen-center-frozen"],
    )
    def test_untrained_checkpoint_bytes_are_pinned(self, arch, digest, tmp_path):
        # an untrained model's values are plain RNG draws and zeros, which
        # touch no BLAS: the bytes are the same on every platform
        path = tmp_path / "model.ckpt"
        save_checkpoint(DetectorModel(arch, np.random.default_rng(0)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @staticmethod
    def rewrite(path, edit_params, tail: int):
        """Apply ``edit_params`` to the header's parameter list, then keep
        ``tail`` bytes more (positive) or fewer (negative) of the array blob."""
        magic, header, blob = path.read_bytes().split(b"\n", 2)
        head = json.loads(header)
        edit_params(head["params"])
        blob = blob + blob[-tail:] if tail > 0 else blob[:tail]
        path.write_bytes(magic + b"\n" + json.dumps(head).encode() + b"\n" + blob)

    def saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(train(toy_two_pool_meta(n=300), small_cfg(iterations=2))[0], path)
        return path

    def test_header_without_center_is_rejected(self, tmp_path):
        # the center is the last array; drop its entry and its 4 values
        path = self.saved(tmp_path)
        self.rewrite(path, lambda params: params.remove(["center", [4]]), -4 * 8)
        with pytest.raises(ValueError, match="center"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tail, too", [(8, "trailing"), (-8, "too few")])
    def test_blob_of_the_wrong_length_is_rejected(self, tail, too, tmp_path):
        # frozen statistics follow the parameters: a short blob can still
        # hold every parameter the header's architecture needs
        path = tmp_path / "model.ckpt"
        model, _ = train(toy_two_pool_meta(n=300), small_cfg(iterations=2, bn_mode="frozen"))
        save_checkpoint(model, path)
        self.rewrite(path, lambda params: None, tail)
        with pytest.raises(ValueError, match=f"^checkpoint {path} has {too} bytes$"):
            load_checkpoint(path)

    def test_parameter_listed_twice_is_rejected(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite(path, lambda params: params.append(["center", [4]]), 4 * 8)
        with pytest.raises(ValueError, match="center"):
            load_checkpoint(path)

    def test_frozen_header_without_statistics_is_rejected(self, tmp_path):
        # an untrained frozen model has no statistics to save; loading must
        # fail, not the first scoring call
        path = tmp_path / "model.ckpt"
        save_checkpoint(DetectorModel(small_cfg(bn_mode="frozen").architecture(1)), path)
        with pytest.raises(ValueError, match="frozen mode but lists no statistics"):
            load_checkpoint(path)

    @pytest.mark.parametrize("position, name", [(0, "lin0.weight"), (-1, "center")])
    def test_non_finite_value_is_rejected_naming_its_array(self, tmp_path, position, name):
        path = self.saved(tmp_path)
        magic, header, blob = path.read_bytes().split(b"\n", 2)
        values = np.frombuffer(blob, dtype="<f8").copy()
        values[position] = np.inf
        path.write_bytes(magic + b"\n" + header + b"\n" + values.tobytes())
        with pytest.raises(ValueError, match=f"non-finite value in {name}"):
            load_checkpoint(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)
        # a header line that is not JSON, or not UTF-8, names the file
        for header in (b"{not json", b"\xff\xfe"):
            path.write_bytes(CHECKPOINT_MAGIC + header + b"\n" + bytes(8))
            with pytest.raises(ValueError, match="malformed header") as info:
                load_checkpoint(path)
            assert str(path) in str(info.value)

    def test_body_is_theta_then_statistics(self, tmp_path):
        model, _ = train(toy_two_pool_meta(n=300), small_cfg(bn_mode="frozen"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        _magic, _header, body = path.read_bytes().split(b"\n", 2)
        stats = [getattr(bn, f) for _n, bn in model.active_norms() for f in STAT_FIELDS]
        assert body == b"".join(a.astype("<f8").tobytes() for a in [model.theta, *stats])
        assert np.array_equal(load_checkpoint(path).theta, model.theta)
