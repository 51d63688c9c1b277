"""Zero-shot scoring on unseen pools, AUROC, and distribution diagnostics.

Evaluation rotates over the test pools (each in turn plays the normal role),
builds contaminated batches at the requested anomaly ratios, scores them with
a full forward pass (normalization statistics recomputed per batch), and
aggregates AUROC over rotations and independent runs. The AUROC is the exact
Mann-Whitney pair count, in which a NaN score outscores and ties nothing.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ConfigError, UndefinedMetricError, check_value
from .model import DetectorModel
from .nn import DTYPE, as_batch
from .tasks import MetaDataset, build_contaminated_task, normal_count, sample_iteration_tasks

DEFAULT_RATIOS = (0.01, 0.05, 0.1, 0.2)

# the most multiply-adds (rows x fan-in x fan-out) of a scored batch's widest
# product for which cells are spread over threads: OpenBLAS (0.3.31) threads a
# larger product itself, and cell threads would compete with its own threads
CELL_THREAD_MACS = 10**6
# the most threads that score cells: two were measured to pay off on a 2-vCPU
# host; about 42% of a cell holds the GIL, so more cannot be relied on to gain
CELL_THREADS = 2


def check_ratios(ratios, batch_size: int) -> list[float]:
    """The anomaly ratios as floats, each in (0, 0.5), listed once, and
    leaving an anomaly and a normal majority in a ``batch_size``-row batch."""
    check_value("batch_size", batch_size, int, 2)
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise ConfigError("ratios must list at least one anomaly ratio")
    for i, r in enumerate(ratios):
        if not 0.0 < r < 0.5:
            raise ConfigError(f"anomaly ratio must lie in (0, 0.5), got {r}")
        if r in ratios[:i]:  # the report is keyed by ratio
            raise ConfigError(f"anomaly ratio {r} is listed twice")
        try:
            normals = normal_count(1.0 - r, batch_size)
        except ConfigError:  # its message names pi = 1 - r, which no one set
            raise ConfigError(
                f"anomaly ratio {r} with batch_size {batch_size} leaves no normal majority"
            ) from None
        if normals >= batch_size:
            raise ConfigError(
                f"ratio {r} with batch_size {batch_size} rounds to zero anomalies per batch"
            )
    return ratios


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exact AUROC: the share of (positive, negative) pairs in which the
    positive (label 1) outscores the negative (any other label), ties
    counting one half. A NaN score outscores and ties nothing."""
    scores = np.asarray(scores, dtype=DTYPE).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels disagree on length")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both a positive and a negative label")
    neg = np.sort(scores[~pos])  # NaN sorts last, above every score searched for
    p = scores[pos & (scores == scores)]  # a NaN positive wins no pair
    # negatives below each positive plus those below or tied: twice its count
    twice = np.searchsorted(neg, p, "left").sum() + np.searchsorted(neg, p, "right").sum()
    return float(0.5 * twice / (n_pos * n_neg))


# ----- distribution-shift diagnostic ----------------------------------------

def tv_distance_diagnostic(a: np.ndarray, b: np.ndarray) -> float:
    """Projected histogram lower bound on the total variation distance.

    Projects both samples onto every coordinate plus 16 random unit
    directions (drawn with seed 0), histograms each projection with
    ``max(2, isqrt(n))`` shared equal-width bins over the pooled range, ``n``
    being the smaller sample size, and returns the largest half-L1
    difference. A true d-dimensional TV estimate is unreliable; a projection
    bound is honest and still moves in the right direction.
    """
    za = as_batch(a)
    zb = as_batch(b)
    if za.shape[1] != zb.shape[1]:
        raise ValueError("samples disagree on dimension")
    if len(za) == 0 or len(zb) == 0:
        raise ValueError("empty sample")
    bins = max(2, math.isqrt(min(len(za), len(zb))))
    dirs = np.random.default_rng(0).normal(size=(16, za.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def projections(z):
        return [*z.T, *(z @ u for u in dirs)]

    worst = 0.0
    for pa, pb in zip(projections(za), projections(zb)):
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
    ``meta``, sampled in one call: the untransformed inputs, the pre-network
    baseline the diagnostic is compared against, and the model's
    representation of them, each batch normalized on its own.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x, _y = sample_iteration_tasks(meta, n_batches, 1.0 - anomaly_ratio, batch_size, rng)
    return x.reshape(-1, meta.dim), model.latent_batch(x)


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

    For every test pool (rotation), anomaly ratio, and run, samples
    ``batches_per_run`` contaminated batches in one call, scores them as one
    stack, each batch normalized on its own, and computes one AUROC per cell
    from the pooled scores. Cell RNG streams depend only on (seed, ratio
    index, rotation, run), so results are independent of execution order.

    Cells are scored on ``n = min(CELL_THREADS, CPUs the process may use)``
    threads, the caller and ``n - 1`` helpers joined before this returns or
    raises, or on the caller alone when a batch's widest product exceeds
    ``CELL_THREAD_MACS`` multiply-adds. An error raised is the first failed
    cell's in cell order. The report does not depend on the CPU count.
    """
    check_value("runs", runs, int, 1)
    check_value("batches_per_run", batches_per_run, int, 1)
    check_value("seed", seed, int, 0)
    ratios = check_ratios(ratios, batch_size)  # checks batch_size too
    grid = list(product(enumerate(ratios), range(meta_test.k), range(runs)))

    def score_cell(cell) -> float:
        (ri, ratio), rotation, run = cell
        rng = np.random.default_rng(np.random.SeedSequence([seed, ri, rotation, run]))
        js = np.full(batches_per_run, rotation)
        x, y = build_contaminated_task(meta_test, js, 1.0 - ratio, batch_size, rng)
        return auroc(model.score_batch(x).s, y)

    widest = max(layer.weight.size for _name, kind, layer in model.blocks if kind == "linear")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = 1 if batch_size * widest > CELL_THREAD_MACS else min(CELL_THREADS, cpus or 1, len(grid))
    pool = ThreadPoolExecutor(max(n - 1, 1))  # starts a thread only when a cell is submitted
    try:  # the caller scores every n-th cell (all of them when n = 1) and takes
        # results in cell order, so it raises the first failed cell's error
        helped = {i: pool.submit(score_cell, cell) for i, cell in enumerate(grid) if i % n}
        aucs = [helped[i].result() if i % n else score_cell(c) for i, c in enumerate(grid)]
    finally:
        pool.shutdown(cancel_futures=True)  # drops cells not yet started, joins the threads
    cell_auc = np.array(aucs).reshape(len(ratios), meta_test.k, runs)

    run_means = cell_auc.mean(axis=1)  # average rotations per run
    per_ratio = {r: (float(m.mean()), float(m.std())) for r, m in zip(ratios, run_means)}
    return EvalReport(
        auroc=float(np.mean([m for m, _ in per_ratio.values()])),
        per_ratio=per_ratio,
        cells=dict(zip(ratios, cell_auc.tolist())),
        n_scored=len(grid) * batches_per_run * batch_size,
    )
