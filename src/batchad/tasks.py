"""Meta-set containers, contaminated-task construction, and task sampling.

A meta-set is a list of sample pools, one per source distribution. A task is
one mini-batch drawn mostly from a single pool (the "normal" side) and topped
up with rows from the other pools, which play the anomaly role for that task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import DTYPE, as_batch


@dataclass(frozen=True)
class MetaDataset:
    """K sample pools sharing one feature dimension.

    ``anomaly_pool`` optionally designates an explicit pool of anomalies (used
    by one-vs-rest test splits of labeled data); when absent, anomalies for a
    task are drawn from the union of the other pools.
    """

    pools: tuple[np.ndarray, ...]
    ids: tuple[int, ...]
    anomaly_pool: np.ndarray | None = None

    def __post_init__(self):
        if len(self.pools) < 1:
            raise ConfigError("a meta-set needs at least one pool")
        if len(self.ids) != len(self.pools):
            raise ConfigError("ids and pools must have equal length")
        if len(set(self.ids)) != len(self.ids):
            raise ConfigError("pool ids must be unique")
        dims = {p.shape[1] for p in self.pools}
        if self.anomaly_pool is not None:
            dims.add(self.anomaly_pool.shape[1])
        if len(dims) != 1:
            raise ConfigError(f"pools disagree on feature dimension: {sorted(dims)}")

    @property
    def k(self) -> int:
        return len(self.pools)

    @property
    def dim(self) -> int:
        return self.pools[0].shape[1]


@dataclass(frozen=True)
class TaskBatch:
    """One contaminated mini-batch with per-row anomaly labels.

    ``y[i] == 0`` iff row i was drawn from the task's own pool; ``source_j``
    is the positional index of that pool in the meta-set.
    """

    x: np.ndarray
    y: np.ndarray
    source_j: int

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class MixtureConfig:
    """Contamination settings: pi is the fraction of the batch that is normal."""

    pi: float
    batch_size: int
    tasks_per_iter: int = 1

    def __post_init__(self):
        if not (0.5 < self.pi <= 1.0):
            raise ConfigError(f"pi must lie in (0.5, 1], got {self.pi}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if self.tasks_per_iter < 1:
            raise ConfigError("tasks_per_iter must be at least 1")


def normal_count(pi: float, batch_size: int) -> int:
    """Deterministic per-batch count of normal rows: round(pi * B).

    Rejects combinations where rounding would break the normal-majority
    guarantee (only possible for tiny batches with pi near 0.5).
    """
    n = round(pi * batch_size)
    if n * 2 <= batch_size:
        raise ConfigError(
            f"pi={pi} with batch_size={batch_size} does not give a normal majority"
        )
    return n


def build_contaminated_task(
    meta: MetaDataset, j: int, cfg: MixtureConfig, rng: np.random.Generator
) -> TaskBatch:
    """Draw one task batch for pool ``j``: round(pi*B) own rows labeled 0, the
    rest labeled 1 and drawn from the designated anomaly pool if present,
    otherwise from the other pools (donor pool chosen uniformly first, then a
    row within it, so unequal pool sizes still weight donors equally).
    """
    if not 0 <= j < meta.k:
        raise ConfigError(f"pool index {j} out of range for K={meta.k}")
    b = cfg.batch_size
    n_norm = normal_count(cfg.pi, b)
    n_anom = b - n_norm

    x = np.empty((b, meta.dim), dtype=DTYPE)
    y = np.zeros(b, dtype=np.int64)
    own = meta.pools[j]
    x[:n_norm] = own[rng.integers(0, len(own), size=n_norm)]

    if n_anom > 0:
        if meta.anomaly_pool is not None:
            pool = meta.anomaly_pool
            x[n_norm:] = pool[rng.integers(0, len(pool), size=n_anom)]
        else:
            if meta.k < 2:
                raise ConfigError(
                    "pi < 1 needs either a second pool or a designated anomaly pool"
                )
            donors = [i for i in range(meta.k) if i != j]
            for row in range(n_anom):
                donor = meta.pools[donors[rng.integers(0, len(donors))]]
                x[n_norm + row] = donor[rng.integers(0, len(donor))]
        y[n_norm:] = 1

    perm = rng.permutation(b)
    return TaskBatch(x=x[perm], y=y[perm], source_j=j)


def sample_iteration_tasks(
    meta: MetaDataset, cfg: MixtureConfig, rng: np.random.Generator
) -> list[TaskBatch]:
    """Sample ``tasks_per_iter`` independent tasks, source pools uniform with replacement."""
    js = rng.integers(0, meta.k, size=cfg.tasks_per_iter)
    return [build_contaminated_task(meta, int(j), cfg, rng) for j in js]


def hoeffding_violation_bound(batch_size: int, p: float) -> float:
    """Upper bound on the probability that anomalies form a batch majority.

    For anomaly fraction p <= 1/2 and an i.i.d. batch of size B the bound is
    exp(-2 B (1/2 - p)^2).
    """
    if batch_size < 0:
        raise ValueError("batch_size must be nonnegative")
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"anomaly fraction must lie in [0, 0.5], got {p}")
    return math.exp(-2.0 * batch_size * (0.5 - p) ** 2)


def permute_attributes(x: np.ndarray, perm) -> np.ndarray:
    """Reorder columns: column k of the output is column perm[k] of the input."""
    x = as_batch(x)
    perm = np.asarray(perm)
    if sorted(perm.tolist()) != list(range(x.shape[1])):
        raise ValueError("perm must be a bijection over the columns")
    return x[:, perm]
