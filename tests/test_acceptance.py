"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL
line with the measured values (run with ``pytest -s`` to see them live).

The headline setup is the desk-scale Gaussian preset: 8 training pools and 4
held-out pools in 8 dimensions, cluster means drawn with scale 8, unit
within-cluster noise. Expensive trained models are shared across criteria via
module fixtures.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from batchad.cli import main as cli_main
from batchad.data import GaussianMetaSpec, generate_gaussian_metaset
from batchad.evaluation import (
    auroc,
    collect_latents,
    evaluate,
    tv_distance_diagnostic,
)
from batchad.scores import ScoreVector, meta_oe_loss, naive_bn_score
from batchad.tasks import MetaDataset, hoeffding_violation_bound
from batchad.training import TrainConfig, no_bn_trivial_loss_value, train

from helpers import (
    REL_TOL,
    max_rel_error,
    numeric_grad,
    pair_count_auroc,
    smooth_random_instance,
    spearman_rho,
)

PRESET = GaussianMetaSpec()  # d=8, 8 train + 4 test pools, N=2000, scales 8/1

HEADLINE_CFG = TrainConfig(
    iterations=2000,
    tasks_per_iter=8,
    batch_size=60,
    pi=0.8,
    learning_rate=1e-3,
    seed=0,
)

EVAL_RATIOS = (0.01, 0.05, 0.1, 0.2)


def check(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def preset_metaset():
    return generate_gaussian_metaset(PRESET, seed=0)


@pytest.fixture(scope="module")
def headline(preset_metaset):
    """The shared headline model: trained once, evaluated at all ratios."""
    train_meta, test_meta = preset_metaset
    started = time.perf_counter()
    model, report = train(train_meta, HEADLINE_CFG)
    eval_report = evaluate(model, test_meta, ratios=EVAL_RATIOS, runs=5, seed=0)
    elapsed = time.perf_counter() - started
    return model, report, eval_report, elapsed


def test_a01_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(12):
        model, x, y = smooth_random_instance(seed)
        _, grads = model.loss_and_grads(x, y)
        params = model.params()
        numeric = numeric_grad(lambda: model.loss_and_grads(x, y)[0], list(params.values()))
        worst = max(
            worst,
            max(max_rel_error(grads[k], n) for k, n in zip(params, numeric)),
        )
        checked += 1
    for seed in range(6):
        model, x, y = smooth_random_instance(100 + seed, head="bce")
        _, grads = model.loss_and_grads(x, y)
        params = model.params()
        numeric = numeric_grad(lambda: model.loss_and_grads(x, y)[0], list(params.values()))
        worst = max(
            worst,
            max(max_rel_error(grads[k], n) for k, n in zip(params, numeric)),
        )
        checked += 1
    for seed in range(4):
        model, x, y = smooth_random_instance(200 + seed)
        _, grads = model.loss_and_grads(x, y, loss_kind="one_class")
        params = model.params()
        numeric = numeric_grad(
            lambda: model.loss_and_grads(x, y, loss_kind="one_class")[0],
            list(params.values()),
        )
        worst = max(
            worst,
            max(max_rel_error(grads[k], n) for k, n in zip(params, numeric)),
        )
        checked += 1
    elapsed = time.perf_counter() - started
    check(
        "A01",
        worst <= REL_TOL and checked >= 20 and elapsed < 10.0,
        f"{checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_a02_naive_detector_on_shifting_means():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    scores, labels = [], []
    for _ in range(200):
        mu = rng.uniform(-100.0, 100.0)
        batch = np.concatenate(
            [rng.normal(mu, 1.0, (57, 1)), rng.normal(mu + 5.0, 1.0, (3, 1))]
        )
        scores.append(naive_bn_score(batch))
        labels.append(np.repeat([0, 1], [57, 3]))
    value = auroc(np.concatenate(scores), np.concatenate(labels))
    elapsed = time.perf_counter() - started
    check(
        "A02",
        value >= 0.95 and elapsed < 1.0,
        f"pooled AUROC {value:.4f} over 200 batches, {elapsed:.2f}s",
    )


def test_a03_zero_shot_generalization(headline):
    _, _, eval_report, elapsed = headline
    mean, std = eval_report.per_ratio[0.1]
    check(
        "A03",
        mean >= 0.90 and elapsed < 300.0,
        f"AUROC at 10% on 4 unseen pools {mean:.4f}+-{std:.4f}, train+eval {elapsed:.0f}s",
    )


def test_a04_batch_statistics_are_necessary(preset_metaset, headline):
    train_meta, test_meta = preset_metaset
    results = {}
    for mode in ("identity", "frozen"):
        cfg = TrainConfig(**{**HEADLINE_CFG.__dict__, "bn_mode": mode})
        model, _ = train(train_meta, cfg)
        results[mode] = evaluate(model, test_meta, ratios=[0.1], runs=5, seed=0).per_ratio[0.1][0]
    batch_auroc = headline[2].per_ratio[0.1][0]
    ok = (
        0.4 <= results["identity"] <= 0.6
        and 0.4 <= results["frozen"] <= 0.65
        and batch_auroc >= 0.90
    )
    check(
        "A04",
        ok,
        f"identity {results['identity']:.3f}, frozen {results['frozen']:.3f}, "
        f"batch-stats {batch_auroc:.3f}",
    )


def test_a05_trivial_optimum_floor_without_normalization():
    # two 1-D pools; the bound applies to the loss summed over both pools,
    # estimated as K times the mean per-task loss after warm-up
    rng = np.random.default_rng(7)
    meta = MetaDataset(
        pools=(rng.normal(-4.0, 1.0, (2000, 1)), rng.normal(4.0, 1.0, (2000, 1))),
        ids=(0, 1),
    )
    floor = no_bn_trivial_loss_value(0.8)
    assert floor == pytest.approx(1.6)

    summed = {}
    for mode in ("identity", "batch"):
        cfg = TrainConfig(
            iterations=800, tasks_per_iter=4, batch_size=60, pi=0.8,
            learning_rate=1e-3, seed=3, hidden=(32, 32, 32), latent_dim=8,
            bn_mode=mode,
        )
        _, report = train(meta, cfg)
        tail = report.loss_curve[len(report.loss_curve) // 2 :]
        summed[mode] = meta.k * float(np.mean(tail))
    ok = summed["identity"] >= floor - 0.15 and summed["batch"] < floor - 0.15
    check(
        "A05",
        ok,
        f"no-normalization loss {summed['identity']:.3f} >= {floor - 0.15:.2f}; "
        f"normalized run {summed['batch']:.3f} < {floor - 0.15:.2f}",
    )


def test_a06_anomaly_ratio_robustness(headline):
    per_ratio = headline[2].per_ratio
    means = [per_ratio[r][0] for r in EVAL_RATIOS]
    spread = max(means) - min(means)
    check(
        "A06",
        spread < 0.05,
        "spread {:.4f} over ratios {}".format(
            spread, {r: round(per_ratio[r][0], 4) for r in EVAL_RATIOS}
        ),
    )


def test_a07_training_mixture_robustness(preset_metaset, headline):
    train_meta, test_meta = preset_metaset
    cells = {0.8: headline[2].per_ratio[0.1][0]}
    for pi in (0.6, 0.9, 0.95, 0.99):
        cfg = TrainConfig(**{**HEADLINE_CFG.__dict__, "pi": pi})
        model, _ = train(train_meta, cfg)
        cells[pi] = evaluate(model, test_meta, ratios=[0.1], runs=5, seed=0).per_ratio[0.1][0]
    worst = max(abs(cells[pi] - cells[0.8]) for pi in cells)
    check(
        "A07",
        worst < 0.05,
        "max deviation from the pi=0.8 cell {:.4f}; cells {}".format(
            worst, {pi: round(v, 4) for pi, v in sorted(cells.items())}
        ),
    )


def test_a08_batch_size_trend(preset_metaset, headline):
    _, test_meta = preset_metaset
    model = headline[0]
    sizes = (3, 6, 20, 60)
    means = []
    for b in sizes:
        per_seed = []
        for seed in range(5):
            rep = evaluate(
                model, test_meta, ratios=[1.0 / b], runs=1, seed=seed,
                batch_size=b, batches_per_run=40,
            )
            per_seed.append(rep.per_ratio[1.0 / b][0])
        means.append(float(np.mean(per_seed)))
    rho = spearman_rho(sizes, means)
    gap = means[-1] - means[0]
    check(
        "A08",
        rho > 0.0 and gap >= 0.05,
        "one-anomaly AUROC per batch size {}, spearman {:.2f}, B60-B3 gap {:.3f}".format(
            {b: round(m, 4) for b, m in zip(sizes, means)}, rho, gap
        ),
    )


def test_a09_oracle_equivalences():
    rng = np.random.default_rng(99)
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        scores = rng.integers(0, 8, size=n).astype(float) / 2.0
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        worst_gap = max(worst_gap, abs(auroc(scores, labels) - pair_count_auroc(scores, labels)))

    mpmath.mp.dps = 50
    hoeffding_gap = 0.0
    for b, p in [(30, 0.2), (60, 0.05), (0, 0.3), (100, 0.5), (7, 0.49)]:
        reference = float(mpmath.exp(-2 * b * mpmath.mpf(0.5 - p) ** 2))
        hoeffding_gap = max(hoeffding_gap, abs(hoeffding_violation_bound(b, p) - reference))

    hand = meta_oe_loss(
        ScoreVector(s=np.array([1.0, 1.0, 4.0, 0.0]), a=np.array([0.0, 0.0, 0.0, 8.0])),
        np.array([0, 0, 0, 1]),
    )
    ok = worst_gap == 0.0 and hoeffding_gap <= 1e-12 and hand == pytest.approx(3.5, abs=1e-12)
    check(
        "A09",
        ok,
        f"auroc==pair-counting over 1000 instances (gap {worst_gap}), "
        f"hoeffding gap {hoeffding_gap:.1e}, mixed-loss hand value {hand}",
    )


def test_a10_normalization_shrinks_distribution_gap(preset_metaset):
    train_meta, test_meta = preset_metaset
    pairs = []
    for seed in range(5):
        cfg = TrainConfig(**{**HEADLINE_CFG.__dict__, "iterations": 500, "seed": seed})
        model, _ = train(train_meta, cfg)
        kw = dict(n_batches=30, batch_size=60)
        raw_train, lat_train = collect_latents(model, train_meta, 0.2, seed=seed * 2 + 1, **kw)
        raw_test, lat_test = collect_latents(model, test_meta, 0.1, seed=seed * 2 + 2, **kw)
        pairs.append(
            (
                tv_distance_diagnostic(lat_train, lat_test),
                tv_distance_diagnostic(raw_train, raw_test),
            )
        )
    ok = all(lat <= raw for lat, raw in pairs)
    check(
        "A10",
        ok,
        "latent vs raw TV per seed: "
        + ", ".join(f"{lat:.3f}<={raw:.3f}" for lat, raw in pairs),
    )


def test_a11_training_determinism(tmp_path):
    import json

    config = tmp_path / "exp.toml"
    config.write_text(
        "\n".join(
            [
                "iterations = 100",
                "tasks_per_iter = 4",
                "batch_size = 30",
                "seed = 5",
                'data_preset = "gaussian8"',
                "samples_per_distribution = 400",
            ]
        )
        + "\n"
    )
    reports = []
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.ckpt"
        assert cli_main(["train", "--config", str(config), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
        reports.append(json.loads((tmp_path / f"{name}.report.json").read_text()))
    ok = blobs[0] == blobs[1] and reports[0]["loss_curve"] == reports[1]["loss_curve"]
    check(
        "A11",
        ok,
        f"checkpoints byte-identical ({len(blobs[0])} bytes), "
        f"loss curves identical (final {reports[0]['final_loss']:.6f})",
    )
