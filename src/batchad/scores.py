"""Scoring heads and the training objective over their scores.

Every head produces a pair of per-sample score vectors: ``s`` is large on
anomalies, and ``a`` is its inverse companion, large on normal samples. Both
share the same underlying features, which is what lets a single contaminated
batch supervise both directions of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BatchTooSmallError
from .nn import DTYPE, as_batch

DEFAULT_INVERSE_EPS = 1e-6

LOSS_META_OE = "meta_oe"
LOSS_ONE_CLASS = "one_class"
LOSSES = (LOSS_META_OE, LOSS_ONE_CLASS)


@dataclass(frozen=True)
class ScoreVector:
    """Paired anomaly scores, one per row in row order, of a batch or of a
    stack of batches each normalized on its own: s (anomalous-is-large) and a
    (inverse)."""

    s: np.ndarray
    a: np.ndarray

    def __len__(self) -> int:
        return len(self.s)


def dsvdd_scores(z: np.ndarray, center: np.ndarray, inverse_eps: float = DEFAULT_INVERSE_EPS) -> ScoreVector:
    """Squared distance to a shared center, with guarded reciprocal.

    ``s_i = ||z_i - c||^2`` and ``a_i = 1 / (s_i + inverse_eps)``. The guard is
    required because training drives s toward zero on normal points, where a
    bare reciprocal would blow up.
    """
    z = as_batch(z)
    diff = z - np.asarray(center, dtype=DTYPE)
    s = np.einsum("ij,ij->i", diff, diff)
    return ScoreVector(s=s, a=1.0 / (s + inverse_eps))


def bce_scores(logits: np.ndarray) -> ScoreVector:
    """Cross-entropy style scores from 1-D logits.

    Uses the identities -log(1 - sigmoid(t)) = softplus(t) and
    -log sigmoid(t) = softplus(-t), which stay finite for any |t|.
    """
    t = np.asarray(logits, dtype=DTYPE).reshape(-1)
    return ScoreVector(s=np.logaddexp(0.0, t), a=np.logaddexp(0.0, -t))


def meta_oe_loss(scores: ScoreVector, y) -> float:
    """Mixed objective: mean of s over normal rows and of the inverse score a
    over contaminant rows, (1/B) * sum((1-y)*s + y*a)."""
    y = np.asarray(y, dtype=DTYPE).reshape(-1)
    if y.shape[0] != len(scores):
        raise ValueError("labels and scores disagree on length")
    return float(np.mean((1.0 - y) * scores.s + y * scores.a))


def naive_bn_score(batch: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Parameter-free batch-relative score: squared norm of the z-scored row.

    Each row is centered and scaled by the per-feature batch mean and biased
    standard deviation; features whose batch variance falls below ``eps``
    contribute zero (degenerate-variance guard).
    """
    x = as_batch(batch)
    if x.shape[0] < 2:
        raise BatchTooSmallError("need at least 2 rows to form batch statistics")
    centered = x - x.mean(axis=0)
    var = x.var(axis=0)
    live = var >= eps
    if not np.any(live):
        return np.zeros(x.shape[0], dtype=DTYPE)
    z2 = centered[:, live] ** 2 / var[live]
    return z2.sum(axis=1)
