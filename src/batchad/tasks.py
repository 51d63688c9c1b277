"""Meta-set containers, contaminated-task construction, and task sampling.

A meta-set is a list of sample pools, one per source distribution. A task is
one mini-batch drawn mostly from a single pool (the "normal" side) and topped
up with rows from the other pools, which play the anomaly role for that task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .nn import DTYPE


@dataclass(frozen=True)
class MetaDataset:
    """K sample pools sharing one feature dimension, held in one array.

    ``anomaly_pool`` optionally designates an explicit pool of anomalies (the
    rows a CSV labels anomalous); when absent, anomalies for a task are drawn
    from the union of the other pools.

    Construction copies the K pools, then the anomaly pool, into one float64
    array ``rows``; ``pools`` and ``anomaly_pool`` become views into it, so no
    second copy of the data stays alive. Pool j (the anomaly pool is index K)
    is ``rows[offsets[j]:offsets[j] + sizes[j]]``.
    """

    pools: tuple[np.ndarray, ...]
    ids: tuple[int, ...]
    anomaly_pool: np.ndarray | None = None
    rows: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.pools) < 1:
            raise ConfigError("a meta-set needs at least one pool")
        if len(self.ids) != len(self.pools):
            raise ConfigError("ids and pools must have equal length")
        if len(set(self.ids)) != len(self.ids):
            raise ConfigError("pool ids must be unique")
        parts = list(self.pools)
        if self.anomaly_pool is not None:
            parts.append(self.anomaly_pool)
        dims = {p.shape[1] for p in parts}
        if len(dims) != 1:
            raise ConfigError(f"pools disagree on feature dimension: {sorted(dims)}")

        sizes = np.array([len(p) for p in parts])
        if not sizes.all():
            raise ConfigError("every pool needs at least one row")
        offsets = np.cumsum(sizes) - sizes
        rows = np.concatenate(parts, axis=0, dtype=DTYPE)
        views = tuple(rows[o:o + n] for o, n in zip(offsets, sizes))
        for name, value in (
            ("rows", rows),
            ("offsets", offsets),
            ("sizes", sizes),
            ("pools", views[:len(self.pools)]),
            ("anomaly_pool", views[-1] if self.anomaly_pool is not None else None),
        ):
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return len(self.pools)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def can_contaminate(self) -> bool:
        """Whether tasks can draw anomalies: from a second pool or an anomaly pool."""
        return self.k > 1 or self.anomaly_pool is not None


def normal_count(share: float, batch_size: int, what: str | None = None) -> int:
    """Deterministic per-batch count of normal rows: round(share * B).

    The one rule for every batch mixture: the count must be a majority of
    the batch, and for a share below 1 it must leave at least one anomaly.
    A pair that breaks it is a :class:`ConfigError` whose message starts
    with ``what``, by default ``pi=<share> with batch_size=<B>``.
    """
    n = round(share * batch_size)
    if n * 2 > batch_size and (n < batch_size or share >= 1.0):
        return n
    what = what or f"pi={share} with batch_size={batch_size}"
    if n * 2 <= batch_size:
        raise ConfigError(f"{what} does not give a normal majority")
    raise ConfigError(f"{what} rounds to zero anomalies per batch")


def build_contaminated_task(
    meta: MetaDataset, js, pi: float, batch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one task per source pool in ``js``: a (T, B, D) row stack ``x``
    and its (T, B) label stack ``y``.

    Task t holds round(pi*B) rows of pool ``js[t]`` labeled 0, the rest
    labeled 1 and drawn from the designated anomaly pool if present,
    otherwise from the other pools (donor pool chosen uniformly first, then
    a row within it, so unequal pool sizes still weight donors equally). The
    labeled-1 positions of each task are placed uniformly at random. One RNG
    call draws three uniforms per position: a sort key that places the
    labels, a donor pick and a row pick (an integer uniform on [0, n) is
    floor(u * n)); ``x`` is then one gather on ``meta.rows``.
    """
    js = np.asarray(js, dtype=np.int64)
    bad = js[(js < 0) | (js >= meta.k)]
    if bad.size:
        raise ConfigError(f"pool index {bad[0]} out of range for K={meta.k}")
    n_norm = normal_count(pi, batch_size)
    if n_norm < batch_size and not meta.can_contaminate:
        raise ConfigError("pi < 1 needs either a second pool or a designated anomaly pool")

    keys, donor_u, row_u = rng.random((3, len(js), batch_size))
    y = keys.argsort(axis=1) >= n_norm
    own = js[:, None]
    if meta.anomaly_pool is not None:
        other = meta.k  # the anomaly pool's index in offsets and sizes
    else:
        other = (donor_u * (meta.k - 1)).astype(np.int64)
        other += other >= own
    pool = np.where(y, other, own)
    index = meta.offsets[pool] + (row_u * meta.sizes[pool]).astype(np.int64)
    return meta.rows[index], y.astype(np.int64)


def sample_iteration_tasks(
    meta: MetaDataset, n_tasks: int, pi: float, batch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n_tasks`` independent tasks, source pools uniform with
    replacement, as the (x, y) stacks of :func:`build_contaminated_task`."""
    js = rng.integers(0, meta.k, size=n_tasks)
    return build_contaminated_task(meta, js, pi, batch_size, rng)


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
