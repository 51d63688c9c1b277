"""Synthetic meta-set generation, CSV ingestion with timestamp binning, and
train/test splitting helpers."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .nn import DTYPE
from .tasks import MetaDataset, permute_attributes


@dataclass(frozen=True)
class GaussianMetaSpec:
    """Desk-scale family of related Gaussian clusters.

    Cluster means are drawn from a zero-centered hyper-prior with scale
    ``mean_scale``; each cluster then contributes ``samples_per_distribution``
    rows with isotropic ``within_scale`` noise. Anomalies for any one cluster
    are, by construction, the normal rows of the other clusters.
    """

    dim: int = 8
    train_distributions: int = 8
    test_distributions: int = 4
    samples_per_distribution: int = 2000
    mean_scale: float = 8.0
    within_scale: float = 1.0

    def __post_init__(self):
        if self.train_distributions < 2 or self.test_distributions < 1:
            raise ConfigError("need at least 2 train and 1 test distributions")
        if self.mean_scale <= self.within_scale:
            raise ConfigError(
                "mean_scale must exceed within_scale or the pools are indistinguishable"
            )
        if self.samples_per_distribution < 2 or self.dim < 1:
            raise ConfigError("invalid pool size or dimension")


GAUSSIAN_PRESETS = {
    "gaussian8": GaussianMetaSpec(),
    "gaussian1d": GaussianMetaSpec(
        dim=1, train_distributions=2, test_distributions=1, mean_scale=8.0
    ),
}


def generate_gaussian_metaset(
    spec: GaussianMetaSpec, seed: int
) -> tuple[MetaDataset, MetaDataset]:
    """Draw the full meta-set and split it into disjoint train/test pool sets."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    k_total = spec.train_distributions + spec.test_distributions
    means = rng.normal(0.0, spec.mean_scale, size=(k_total, spec.dim))
    pools = []
    for k in range(k_total):
        noise = rng.normal(0.0, 1.0, size=(spec.samples_per_distribution, spec.dim))
        pools.append((means[k] + spec.within_scale * noise).astype(DTYPE))
    kt = spec.train_distributions
    train = MetaDataset(pools=tuple(pools[:kt]), ids=tuple(range(kt)))
    test = MetaDataset(pools=tuple(pools[kt:]), ids=tuple(range(kt, k_total)))
    return train, test


# ----- CSV schema -------------------------------------------------------------

def _format_value(x: float) -> str:
    # 17 significant digits round-trip any float64 exactly
    return format(float(x), ".17g")


def save_metaset_csv(
    train: MetaDataset,
    test: MetaDataset,
    out_dir,
    seed: int,
    name: str = "metaset",
    delimiter: str = ",",
) -> tuple[Path, Path]:
    """Write both pool sets into one CSV plus a JSON sidecar.

    Columns: ``bin`` (the pool id, doubling as the timestamp key), ``label``
    (always 0 for generated pools), then ``f0..f{d-1}``. Output bytes depend
    only on the data and seed, never on the clock.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = train.dim
    feature_cols = [f"f{k}" for k in range(d)]
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["bin", "label"] + feature_cols)
        for meta in (train, test):
            for pool_id, pool in zip(meta.ids, meta.pools):
                for row in pool:
                    writer.writerow([pool_id, 0] + [_format_value(v) for v in row])

    sidecar = {
        "dim": d,
        "k_train": train.k,
        "k_test": test.k,
        "seed": seed,
        "feature_columns": feature_cols,
        "label_column": "label",
        "timestamp_column": "bin",
        "bins": {"train": list(train.ids), "test": list(test.ids)},
        "rows_per_bin": {
            str(pid): len(pool)
            for meta in (train, test)
            for pid, pool in zip(meta.ids, meta.pools)
        },
    }
    json_path = out_dir / f"{name}.json"
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return csv_path, json_path


@dataclass(frozen=True)
class TabularSource:
    """Description of a delimited file to ingest.

    Rows are grouped into pools by the value of ``timestamp_col`` (bins sorted
    numerically when possible, else lexicographically); the first
    ``train_bins`` bins become the training pools. Every column but the
    label and timestamp columns is a feature. Anomaly-labeled rows are
    kept only on the test side, as a designated anomaly pool. Per-feature
    standardization constants are fitted on the training bins only and applied
    everywhere.
    """

    path: str
    label_col: str = "label"
    timestamp_col: str | None = "bin"
    train_bins: int | None = None
    delimiter: str = ","
    standardize: bool = True


def fit_standardizer(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and scale; zero-variance features get scale 1."""
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return mean, scale


def apply_standardizer(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (x - mean) / scale


def _bin_sort_key(value: str):
    try:
        return (0, float(value), "")
    except ValueError:
        return (1, 0.0, value)


def load_tabular(source: TabularSource) -> tuple[MetaDataset, MetaDataset | None]:
    """Read a delimited file into (train meta-set, test meta-set).

    Without a timestamp column the whole file forms a single training pool and
    the test side is ``None``. Unparseable or non-finite rows, and malformed
    CSV, abort the load with their line numbers; anomaly detectors are too
    sensitive to imputation for silent repair to be safe.
    """
    path = Path(source.path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=source.delimiter)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: malformed CSV at line {reader.line_num}: {exc}") from None
    if header is None:
        raise ConfigError(f"{path}: empty file")

    def column_index(name: str) -> int:
        try:
            return header.index(name)
        except ValueError:
            raise ConfigError(f"{path}: missing column {name!r}") from None

    label_idx = column_index(source.label_col)
    ts_idx = column_index(source.timestamp_col) if source.timestamp_col else None
    skip = {label_idx} | ({ts_idx} if ts_idx is not None else set())
    feat_idx = [i for i in range(len(header)) if i not in skip]
    if not feat_idx:
        raise ConfigError(f"{path}: no feature columns")

    features = np.empty((len(rows), len(feat_idx)), dtype=DTYPE)
    labels = np.empty(len(rows), dtype=np.int64)
    bins: list[str] = []
    bad_lines: list[int] = []
    for i, row in enumerate(rows):
        lineno = i + 2  # header is line 1
        try:
            vals = [float(row[c]) for c in feat_idx]
            lab = int(row[label_idx])
            if lab not in (0, 1) or not all(math.isfinite(v) for v in vals):
                raise ValueError
        except (ValueError, IndexError):
            bad_lines.append(lineno)
            continue
        features[i] = vals
        labels[i] = lab
        bins.append(row[ts_idx] if ts_idx is not None else "")
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:10])
        more = "" if len(bad_lines) <= 10 else f" (+{len(bad_lines) - 10} more)"
        raise ValueError(f"{path}: unparseable or non-finite rows at lines {shown}{more}")

    if ts_idx is None:
        normal = features[labels == 0]
        if len(normal) == 0:
            raise ConfigError(f"{path}: no normal rows")
        mean, scale = fit_standardizer(normal)
        if source.standardize:
            normal = apply_standardizer(normal, mean, scale)
        return MetaDataset(pools=(normal,), ids=(0,)), None

    bin_keys = sorted(set(bins), key=_bin_sort_key)
    if len(bin_keys) < 2:
        raise ConfigError(f"{path}: timestamp binning needs at least 2 bins, got {len(bin_keys)}")
    if source.train_bins is None:
        raise ConfigError("train_bins is required when a timestamp column is set")
    if not 1 <= source.train_bins < len(bin_keys):
        raise ConfigError(
            f"train_bins must lie in [1, {len(bin_keys) - 1}], got {source.train_bins}"
        )
    bin_of = {key: b for b, key in enumerate(bin_keys)}
    row_bin = np.array([bin_of[b] for b in bins])

    train_mask = row_bin < source.train_bins
    train_norm = train_mask & (labels == 0)
    if not train_norm.any():
        raise ConfigError(f"{path}: training bins contain no normal rows")
    mean, scale = fit_standardizer(features[train_norm])
    if source.standardize:
        features = apply_standardizer(features, mean, scale)

    train_pools, train_ids = [], []
    test_pools, test_ids = [], []
    for b in range(len(bin_keys)):
        normal = features[(row_bin == b) & (labels == 0)]
        if len(normal) == 0:
            continue
        if b < source.train_bins:
            train_pools.append(normal)
            train_ids.append(b)
        else:
            test_pools.append(normal)
            test_ids.append(b)
    anomalies = features[(row_bin >= source.train_bins) & (labels == 1)]

    if not train_pools or not test_pools:
        raise ConfigError(f"{path}: empty train or test side after binning")
    train = MetaDataset(pools=tuple(train_pools), ids=tuple(train_ids))
    test = MetaDataset(
        pools=tuple(test_pools),
        ids=tuple(test_ids),
        anomaly_pool=anomalies if len(anomalies) else None,
    )
    return train, test


# ----- meta-set manipulation ---------------------------------------------------

def augment_with_permutations(meta: MetaDataset, n_perms: int, seed: int) -> MetaDataset:
    """Extend a training meta-set with column-permuted copies of each pool.

    K grows to K*(1+n_perms); each copy gets its own random permutation. The
    original pools are left untouched (copies are new arrays).
    """
    if n_perms < 0:
        raise ConfigError("n_perms must be nonnegative")
    if n_perms == 0:
        return meta
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pools = list(meta.pools)
    ids = list(meta.ids)
    next_id = max(ids) + 1
    for _ in range(n_perms):
        for pool in meta.pools:
            perm = rng.permutation(meta.dim)
            pools.append(permute_attributes(pool, perm))
            ids.append(next_id)
            next_id += 1
    return MetaDataset(pools=tuple(pools), ids=tuple(ids), anomaly_pool=meta.anomaly_pool)


def one_vs_rest_split(labeled_pools: dict[int, np.ndarray], normal_class: int) -> MetaDataset:
    """Test split where one class is normal and all others form the anomaly pool."""
    if normal_class not in labeled_pools:
        raise ConfigError(f"class {normal_class} not present")
    others = [np.asarray(p, dtype=DTYPE) for c, p in sorted(labeled_pools.items()) if c != normal_class]
    if not others:
        raise ConfigError("one-vs-rest needs at least two classes")
    return MetaDataset(
        pools=(np.asarray(labeled_pools[normal_class], dtype=DTYPE),),
        ids=(normal_class,),
        anomaly_pool=np.concatenate(others, axis=0),
    )


def row_digests(meta: MetaDataset) -> set[bytes]:
    """Hashes of every row, for disjointness checks between pool sets."""
    out: set[bytes] = set()
    pools = list(meta.pools) + ([meta.anomaly_pool] if meta.anomaly_pool is not None else [])
    for pool in pools:
        for row in pool:
            out.add(hashlib.blake2b(row.tobytes(), digest_size=16).digest())
    return out
