"""Zero-shot scoring on unseen pools, AUROC, and distribution diagnostics.

Evaluation rotates over the test pools (each in turn plays the normal role),
builds contaminated batches at the requested anomaly ratios, scores them with
a full forward pass (normalization statistics recomputed per batch), and
aggregates AUROC over rotations and independent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ConfigError, UndefinedMetricError
from .model import DetectorModel
from .nn import DTYPE, as_batch
from .tasks import MetaDataset, MixtureConfig, build_contaminated_task, normal_count

DEFAULT_RATIOS = (0.01, 0.05, 0.1, 0.2)


def check_ratios(ratios, batch_size: int) -> list[float]:
    """The anomaly ratios as floats, each in (0, 0.5) and leaving at least one
    anomaly and a normal majority in a batch of ``batch_size`` rows."""
    if batch_size < 2:
        raise ConfigError(f"batch_size must be at least 2, got {batch_size}")
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise ConfigError("ratios must list at least one anomaly ratio")
    for r in ratios:
        if not 0.0 < r < 0.5:
            raise ConfigError(f"anomaly ratio must lie in (0, 0.5), got {r}")
        if normal_count(1.0 - r, batch_size) >= batch_size:
            raise ConfigError(
                f"ratio {r} with batch_size {batch_size} rounds to zero anomalies per batch"
            )
    return ratios


def tie_average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank range."""
    values = np.asarray(values)
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # a tie group starts wherever the sorted value changes (NaN never ties)
    start = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    end = np.r_[start[1:], len(values)]
    ranks = np.empty(len(values), dtype=DTYPE)
    ranks[order] = np.repeat(0.5 * (start + 1 + end), end - start)
    return ranks


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUROC with tie-averaged ranks.

    Equals the probability that a random positive outranks a random negative,
    counting exact ties as one half.
    """
    scores = np.asarray(scores, dtype=DTYPE).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels disagree on length")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both a positive and a negative label")
    ranks = tie_average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ----- distribution-shift diagnostic ----------------------------------------

def tv_distance_diagnostic(
    a: np.ndarray,
    b: np.ndarray,
    bins: int | None = None,
    n_projections: int = 16,
    seed: int = 0,
) -> float:
    """Projected histogram lower bound on the total variation distance.

    Projects both samples onto every coordinate plus ``n_projections`` random
    unit directions, histograms each projection with shared equal-width bins
    over the pooled range, and returns the largest half-L1 difference. A true
    d-dimensional TV estimate is unreliable; a projection bound is honest and
    still moves in the right direction.
    """
    za = as_batch(a)
    zb = as_batch(b)
    if za.shape[1] != zb.shape[1]:
        raise ValueError("samples disagree on dimension")
    if len(za) == 0 or len(zb) == 0:
        raise ValueError("empty sample")
    if bins is None:
        bins = max(2, math.isqrt(min(len(za), len(zb))))
    if bins < 2:
        raise ValueError("need at least 2 bins")

    d = za.shape[1]
    projections = [za[:, k] for k in range(d)], [zb[:, k] for k in range(d)]
    pa_list, pb_list = projections
    if n_projections > 0:
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(n_projections, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pa_list = pa_list + [za @ u for u in dirs]
        pb_list = pb_list + [zb @ u for u in dirs]

    worst = 0.0
    for pa, pb in zip(pa_list, pb_list):
        lo = min(pa.min(), pb.min())
        hi = max(pa.max(), pb.max())
        if hi == lo:
            continue  # all mass in one shared bin: contributes zero
        ha, _ = np.histogram(pa, bins=bins, range=(lo, hi))
        hb, _ = np.histogram(pb, bins=bins, range=(lo, hi))
        tv = 0.5 * np.abs(ha / len(pa) - hb / len(pb)).sum()
        worst = max(worst, float(tv))
    return worst


def collect_latents(
    model: DetectorModel,
    meta: MetaDataset,
    anomaly_ratio: float,
    n_batches: int,
    batch_size: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(raw rows, latent rows) of contaminated batches from all pools of
    ``meta``: the untransformed inputs, the pre-network baseline the
    diagnostic is compared against, and the model's representation of them.
    """
    mix = MixtureConfig(pi=1.0 - anomaly_ratio, batch_size=batch_size)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    raw, latent = [], []
    for i in range(n_batches):
        j = int(rng.integers(0, meta.k))
        task = build_contaminated_task(meta, j, mix, rng)
        raw.append(task.x)
        latent.append(model.latent_batch(task.x))
    return np.concatenate(raw, axis=0), np.concatenate(latent, axis=0)


# ----- full evaluation protocol ----------------------------------------------

@dataclass
class EvalReport:
    """Aggregated scoring results.

    ``per_ratio`` maps each anomaly ratio to (mean, std) of the AUROC over
    independent runs, where each run's value is already averaged over the
    normal-pool rotations. ``auroc`` is the grand mean over ratios.
    """

    auroc: float
    per_ratio: dict[float, tuple[float, float]]
    cells: dict[float, list[list[float]]] = field(default_factory=dict)
    n_scored: int = 0


def evaluate(
    model: DetectorModel,
    meta_test: MetaDataset,
    ratios=DEFAULT_RATIOS,
    runs: int = 5,
    seed: int = 0,
    batch_size: int = 60,
    batches_per_run: int = 25,
) -> EvalReport:
    """One-vs-rest evaluation over the test meta-set.

    For every test pool (rotation), anomaly ratio, and run, builds
    ``batches_per_run`` contaminated batches, scores them, and computes one
    AUROC per cell from the pooled scores. Cell RNG streams depend only on
    (seed, ratio index, rotation, run), so results are independent of
    execution order.
    """
    ratios = check_ratios(ratios, batch_size)
    cell_auc = np.zeros((len(ratios), meta_test.k, runs))
    n_scored = 0
    for (ri, ratio), rotation, run in product(enumerate(ratios), range(meta_test.k), range(runs)):
        mix = MixtureConfig(pi=1.0 - ratio, batch_size=batch_size)
        rng = np.random.default_rng(np.random.SeedSequence([seed, ri, rotation, run]))
        scores, labels = [], []
        for _ in range(batches_per_run):
            task = build_contaminated_task(meta_test, rotation, mix, rng)
            scores.append(model.score_batch(task.x).s)
            labels.append(task.y)
        scores = np.concatenate(scores)
        cell_auc[ri, rotation, run] = auroc(scores, np.concatenate(labels))
        n_scored += len(scores)

    per_ratio = {}
    cells = {}
    for ri, ratio in enumerate(ratios):
        run_means = cell_auc[ri].mean(axis=0)  # average rotations per run
        per_ratio[ratio] = (float(run_means.mean()), float(run_means.std()))
        cells[ratio] = cell_auc[ri].tolist()

    return EvalReport(
        auroc=float(np.mean([m for m, _ in per_ratio.values()])),
        per_ratio=per_ratio,
        cells=cells,
        n_scored=n_scored,
    )
