"""Synthetic meta-set generation, CSV ingestion with timestamp binning, and
train/test splitting helpers."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_fields, check_value
from .nn import DTYPE
from .tasks import MetaDataset


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
        check_fields(self, dim=1, train_distributions=2, test_distributions=1,
                     samples_per_distribution=2)
        if not self.mean_scale > self.within_scale:
            raise ConfigError(
                "mean_scale must exceed within_scale or the pools are indistinguishable"
            )


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
    train: MetaDataset, test: MetaDataset, out_dir, seed: int
) -> tuple[Path, Path]:
    """Write both pool sets into ``metaset.csv`` plus a ``metaset.json`` sidecar.

    Columns: ``bin`` (the pool id, doubling as the timestamp key), ``label``
    (always 0 for generated pools), then ``f0..f{d-1}``. Output bytes depend
    only on the data and seed, never on the clock.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = train.dim
    feature_cols = [f"f{k}" for k in range(d)]
    csv_path = out_dir / "metaset.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
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
    json_path = out_dir / "metaset.json"
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return csv_path, json_path


@dataclass(frozen=True)
class TabularSource:
    """Description of a delimited file to ingest.

    Rows are grouped into pools by the value of ``timestamp_col``. Bins that
    are numbers come first in numeric order, then the others, NaN included,
    in text order; two spellings of one number go by their text. The first
    ``train_bins`` bins become the training pools. Every column but the
    label and timestamp columns is a feature. Anomaly-labeled rows are
    kept only on the test side, as a designated anomaly pool. Per-feature
    standardization constants are fitted on the training bins only and applied
    everywhere.
    """

    path: str | os.PathLike
    label_col: str = "label"
    timestamp_col: str | None = "bin"
    train_bins: int | None = None
    delimiter: str = ","

    def __post_init__(self):
        check_fields(self, train_bins=1)
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.delimiter in "\r\n":  # rows are lines before they are cells
            raise ConfigError(f"delimiter must not be a line break, got {self.delimiter!r}")
        if self.label_col == self.timestamp_col:
            raise ConfigError(f"label_col and timestamp_col must differ, both are {self.label_col!r}")


def _standardize(x: np.ndarray, fit: np.ndarray) -> np.ndarray:
    """``(x - mean) / scale`` with the per-feature mean and standard deviation
    of the rows ``fit``; a zero-variance feature gets scale 1. Works in place
    on ``x`` and returns it; ``fit`` may be ``x`` itself."""
    mean = fit.mean(axis=0)
    scale = fit.std(axis=0)
    x -= mean
    x /= np.where(scale > 0, scale, 1.0)
    return x


def _bin_sort_key(value: str):
    # numbers in numeric order, then the rest (NaN too) as text; text breaks ties
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    return (1, 0.0, value) if math.isnan(number) else (0, number, value)


# rows converted per pass: the file's rows are never all held as strings at once
CSV_CHUNK_ROWS = 1024


def _convert_rows(rows, feat_idx, label_idx, ts_idx, codes: dict, delimiter=None):
    """(features, labels, bin codes) of a list of rows, built a column at a
    time from one transpose, or None if a row lacks a cell, does not parse,
    or has a label other than 0 or 1 or a non-finite feature. ``codes``
    numbers the timestamp values in the order first seen. Given a
    ``delimiter``, ``rows`` are lines and ``_loadtxt`` parses them."""
    n = len(rows)
    try:
        if delimiter is None:
            # zip stops at the shortest row, so a row without a cell that is
            # read leaves that column out; no rows give empty columns
            columns = list(zip(*rows)) if n else [()] * (max(*feat_idx, label_idx, ts_idx or 0) + 1)
            features = np.empty((n, len(feat_idx)), dtype=DTYPE)
            for j, c in enumerate(feat_idx):
                features[:, j] = np.fromiter(map(float, columns[c]), DTYPE, n)
        else:
            columns, features = _loadtxt(rows, delimiter, feat_idx, label_idx, ts_idx)
        # ValueError if fewer than n, as when loadtxt skipped a blank line
        labels = np.fromiter(map(int, columns[label_idx]), np.int64, n)
        stamps = [""] * n if ts_idx is None else columns[ts_idx]
    except (ValueError, IndexError, OverflowError, Warning):
        return None
    if not (np.isfinite(features).all() and ((labels == 0) | (labels == 1)).all()):
        return None
    for stamp in dict.fromkeys(stamps):
        codes.setdefault(stamp, len(codes))
    return features, labels, np.fromiter(map(codes.__getitem__, stamps), np.intp, n)


def _loadtxt(lines, delimiter, feat_idx, label_idx, ts_idx):
    """({column: cells} of the label and timestamp columns, features) of
    lines, by one ``np.loadtxt`` call, whose float64 is ``float()``. Raises
    ValueError or a warning where a line holds a quote, a NUL or
    ``\\x1c``-``\\x1f`` or more characters than the csv field limit, or
    loadtxt fails or warns; blank lines are skipped."""
    text = "".join(lines)
    # the csv module splits quotes and rejects long fields; numpy reads the
    # others around a number as white space, float() does not
    if any(char in text for char in '"\0\x1c\x1d\x1e\x1f') or (  # faster than re
        max(map(len, lines)) > csv.field_size_limit()
    ):
        raise ValueError("a quote, a NUL or \\x1c-\\x1f, or a long line")
    names = {label_idx: "label"} | ({} if ts_idx is None else {ts_idx: "stamp"})
    dtype = [(name, object) for name in names.values()] + [("x", DTYPE, (len(feat_idx),))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(lines, dtype, delimiter=delimiter, comments=None,
                           usecols=[*names, *feat_idx], ndmin=1)
    return {c: table[name] for c, name in names.items()}, table["x"].copy()


def _read_rows(rows, path, columns, delimiter=None):
    """({timestamp: code}, features, labels, row codes) of the rows that
    iterator ``rows`` yields, converted ``CSV_CHUNK_ROWS`` at a time by
    ``_convert_rows``; ValueError names the lines of the rows that fail.
    Given a ``delimiter``, ``rows`` yields lines for ``_loadtxt``, and the
    result is None at the first chunk it cannot read."""
    codes: dict[str, int] = {}
    parts = [_convert_rows([], *columns, codes)]  # so a file without rows has arrays too
    bad_lines: list[int] = []
    first_line = 2  # header is line 1
    for chunk in iter(lambda: list(islice(rows, CSV_CHUNK_ROWS)), []):
        part = _convert_rows(chunk, *columns, codes, delimiter)
        if part is None and delimiter is not None:
            return None
        if part is None:  # a failed chunk: name its failing rows one by one
            bad_lines += [
                line for line, row in enumerate(chunk, first_line)
                if _convert_rows([row], *columns, {}) is None
            ]
        parts.append(part)
        first_line += len(chunk)
        del chunk  # the strings go before the next chunk is read
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:10])
        more = "" if len(bad_lines) <= 10 else f" (+{len(bad_lines) - 10} more)"
        raise ValueError(f"{path}: unparseable or non-finite rows at lines {shown}{more}")
    return codes, *(np.concatenate(column) for column in zip(*parts))


def load_tabular(source: TabularSource) -> tuple[MetaDataset, MetaDataset | None]:
    """Read a delimited file into (train meta-set, test meta-set).

    The header's columns, and ``train_bins`` when a timestamp column is set,
    are checked before any row is read. Rows are then read and converted
    ``CSV_CHUNK_ROWS`` at a time, so besides the result the load holds one
    chunk of strings, the parsed columns and one copy of the features. One
    ``np.loadtxt`` call parses each chunk until one holds a quote, a line
    longer than the csv field limit or a cell that does not convert; then
    the file is read again from row 1 by the ``csv`` module, ``float()`` and
    ``int()``, so quoted files load too and every error comes from that
    pass. Both passes load what ``float()`` and ``int()`` of the cells give;
    the second needs a file that can seek.
    Without a timestamp column the whole file forms a single training pool
    and the test side is ``None``. Rows that lack a cell, do not parse or
    hold a non-finite value, malformed CSV and bytes that are not UTF-8 abort
    the load with their line numbers; anomaly detectors are too sensitive to
    imputation for silent repair to be safe.
    """
    path = Path(source.path)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh, delimiter=source.delimiter)
            header = next(reader, None)
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
            if ts_idx is not None and source.train_bins is None:
                raise ConfigError("train_bins is required when a timestamp column is set")

            columns = (feat_idx, label_idx, ts_idx)
            loaded = _read_rows(fh, path, columns, source.delimiter)
            if loaded is None:  # the csv module reads the whole file again
                try:
                    fh.seek(0)
                except io.UnsupportedOperation as exc:
                    raise ConfigError(f"{path}: cannot rewind for the csv pass: {exc}") from None
                reader = csv.reader(fh, delimiter=source.delimiter)
                next(reader)
                loaded = _read_rows(reader, path, columns)
        except csv.Error as exc:
            raise ValueError(f"{path}: malformed CSV at line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            if not path.is_file():  # a pipe cannot be read again to find the line
                raise ConfigError(f"{path}: not UTF-8 ({exc.reason})") from None
            # the streaming decoder only knows its chunk: find the line in the file
            data = path.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise ConfigError(f"{path}: line {line} is not UTF-8 ({exc.reason})") from None
            raise
    codes, features, labels, row_codes = loaded
    del loaded  # else it would keep the features past their del below

    if ts_idx is None:
        normal = features[labels == 0]
        del features
        if len(normal) == 0:
            raise ConfigError(f"{path}: no normal rows")
        return MetaDataset(pools=(_standardize(normal, normal),), ids=(0,)), None

    bin_keys = sorted(codes, key=_bin_sort_key)
    if len(bin_keys) < 2:
        raise ConfigError(f"{path}: timestamp binning needs at least 2 bins, got {len(bin_keys)}")
    if not 1 <= source.train_bins < len(bin_keys):
        raise ConfigError(
            f"train_bins must lie in [1, {len(bin_keys) - 1}], got {source.train_bins}"
        )
    # argsort inverts the permutation that takes bin indices to codes
    row_bin = np.argsort([codes[key] for key in bin_keys])[row_codes]

    train_norm = (row_bin < source.train_bins) & (labels == 0)
    if not train_norm.any():
        raise ConfigError(f"{path}: training bins contain no normal rows")
    _standardize(features, features[train_norm])

    # every bin with normal rows is a pool, on the side its index falls on; one
    # stable sort puts the normal rows first, bin by bin, in file order in a bin
    order = np.argsort(np.where(labels == 0, row_bin, len(bin_keys)), kind="stable")
    counts = np.bincount(row_bin[labels == 0], minlength=len(bin_keys))
    normal = np.split(features[order[:counts.sum()]], np.cumsum(counts[:-1]))
    train_ids = [b for b in range(source.train_bins) if len(normal[b])]
    test_ids = [b for b in range(source.train_bins, len(bin_keys)) if len(normal[b])]
    anomalies = features[(row_bin >= source.train_bins) & (labels == 1)]
    del features  # the pools view one copy, which MetaDataset copies once more

    if not train_ids or not test_ids:
        raise ConfigError(f"{path}: empty train or test side after binning")
    train = MetaDataset(pools=tuple(normal[b] for b in train_ids), ids=tuple(train_ids))
    test = MetaDataset(
        pools=tuple(normal[b] for b in test_ids),
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
    check_value("n_perms", n_perms, int, 0)
    if n_perms == 0:
        return meta
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pools = list(meta.pools)
    ids = list(meta.ids)
    next_id = max(ids) + 1
    for _ in range(n_perms):
        for pool in meta.pools:
            pools.append(pool[:, rng.permutation(meta.dim)])
            ids.append(next_id)
            next_id += 1
    return MetaDataset(pools=tuple(pools), ids=tuple(ids), anomaly_pool=meta.anomaly_pool)
