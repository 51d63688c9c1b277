"""Shared test utilities: finite-difference oracles and instance filters."""

from __future__ import annotations

import csv
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np

# 1e-4 keeps the O(h^2) truncation of the central difference near 1e-6 even
# through stacked normalization layers, well under the 1e-4 gate
FD_STEP = 1e-4
REL_TOL = 1e-4
# arrays whose gradient magnitude sits below this are compared absolutely;
# central differences carry O(h^2) truncation noise that would otherwise
# dominate a vanishing denominator
REL_FLOOR = 1e-3


def numeric_grad(loss_fn, arrays: list[np.ndarray], h: float = FD_STEP) -> list[np.ndarray]:
    """Central finite differences of a scalar loss w.r.t. every array entry.

    The arrays are perturbed in place and restored, so ``loss_fn`` must read
    them afresh on every call.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = REL_FLOOR) -> float:
    """Relative disagreement of one gradient array, infinity-norm normalized.

    Per-component ratios would be dominated by the O(h^2) truncation of the
    central difference wherever a single component happens to sit near zero;
    the array-level ratio keeps the check sharp (a wrong formula shows up at
    O(1)) without flagging truncation noise.
    """
    a = np.asarray(analytic, dtype=float).reshape(-1)
    n = np.asarray(numeric, dtype=float).reshape(-1)
    denom = max(np.abs(a).max(), np.abs(n).max(), floor)
    return float(np.abs(a - n).max() / denom)


def min_prerelu_margin(model, x: np.ndarray, mode: str) -> float:
    """Smallest |pre-activation| feeding any ReLU in a forward pass.

    Finite differences are only valid where the loss is smooth; instances with
    a pre-activation within the step size of a ReLU kink are resampled.
    """
    margin = np.inf
    bn_i = 0
    act = np.asarray(x, dtype=float)
    for _name, kind, layer in model.blocks:
        if kind == "linear":
            act, _ = layer.forward(act)
        elif kind == "bn":
            act, _ = layer.forward(act, model._bn_behavior(bn_i, mode))
            bn_i += 1
        else:
            margin = min(margin, float(np.abs(act).min()))
            act = np.maximum(act, 0.0)
    return margin


def smooth_random_instance(
    seed: int, head: str = "dsvdd", mode: str = "batch", batch: int = 5, tasks: int | None = None
):
    """A small random model plus a labeled batch (or, with ``tasks``, a
    (tasks, batch, features) stack), resampled until the loss surface is
    smooth within the finite-difference step around the instance."""
    from batchad.model import Architecture, DetectorModel

    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt])
        arch = Architecture(input_dim=3, hidden=(6, 5), latent_dim=4, head=head)
        model = DetectorModel(arch, rng)
        for name, p in model.params().items():
            if name.endswith("gamma"):
                p += rng.normal(0.0, 0.1, p.shape)
            elif name.endswith(("beta", "center", "offset")):
                p += rng.normal(0.0, 0.3, p.shape)
        rows = (batch,) if tasks is None else (tasks, batch)
        x = rng.normal(size=(*rows, 3))
        y = (rng.random(rows) < 0.4).astype(float)
        if y.sum() == 0:
            y.flat[0] = 1.0
        if min_prerelu_margin(model, x, mode) > 5 * FD_STEP:
            return model, x, y
    raise AssertionError("could not build a smooth instance")


def pair_count_auroc(scores, labels) -> float:
    """Exhaustive pair-counting oracle: wins + half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    ties = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                ties += 1.0
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def reference_tie_average_ranks(values) -> np.ndarray:
    """Tie-averaged 1-based ranks by walking the sorted values group by group;
    NaN sorts last and never ties."""
    values = np.asarray(values)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    return ranks


def reference_load_tabular(source):
    """``batchad.data.load_tabular`` as one pass over every row, holding the
    whole file as strings; the oracle for the chunked, column-wise loader."""
    from batchad.data import _bin_sort_key, _standardize
    from batchad.errors import ConfigError
    from batchad.nn import DTYPE
    from batchad.tasks import MetaDataset

    path = Path(source.path)
    with open(path, newline="", encoding="utf-8") as fh:
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
            stamp = row[ts_idx] if ts_idx is not None else ""
            if lab not in (0, 1) or not all(math.isfinite(v) for v in vals):
                raise ValueError
        except (ValueError, IndexError):
            bad_lines.append(lineno)
            continue
        features[i] = vals
        labels[i] = lab
        bins.append(stamp)
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:10])
        more = "" if len(bad_lines) <= 10 else f" (+{len(bad_lines) - 10} more)"
        raise ValueError(f"{path}: unparseable or non-finite rows at lines {shown}{more}")

    if ts_idx is None:
        normal = features[labels == 0]
        if len(normal) == 0:
            raise ConfigError(f"{path}: no normal rows")
        return MetaDataset(pools=(_standardize(normal, normal),), ids=(0,)), None

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
    features = _standardize(features, features[train_norm])

    normal = {b: features[(row_bin == b) & (labels == 0)] for b in range(len(bin_keys))}
    train_ids = [b for b in range(source.train_bins) if len(normal[b])]
    test_ids = [b for b in range(source.train_bins, len(bin_keys)) if len(normal[b])]
    anomalies = features[(row_bin >= source.train_bins) & (labels == 1)]

    if not train_ids or not test_ids:
        raise ConfigError(f"{path}: empty train or test side after binning")
    train = MetaDataset(pools=tuple(normal[b] for b in train_ids), ids=tuple(train_ids))
    test = MetaDataset(
        pools=tuple(normal[b] for b in test_ids),
        ids=tuple(test_ids),
        anomaly_pool=anomalies if len(anomalies) else None,
    )
    return train, test


def traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` during one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 2**20


def spearman_rho(x, y) -> float:
    """Rank correlation via tie-averaged ranks (small inputs only)."""
    rx = reference_tie_average_ranks(np.asarray(x, dtype=float))
    ry = reference_tie_average_ranks(np.asarray(y, dtype=float))
    return float(np.corrcoef(rx, ry)[0, 1])


def toy_two_pool_meta(seed: int = 7, n: int = 2000, separation: float = 4.0):
    """1-D meta-set with two unit-variance pools at -separation and +separation."""
    from batchad.tasks import MetaDataset

    rng = np.random.default_rng(seed)
    pools = (
        rng.normal(-separation, 1.0, (n, 1)),
        rng.normal(separation, 1.0, (n, 1)),
    )
    return MetaDataset(pools=pools, ids=(0, 1))


def row_digests(meta) -> set[bytes]:
    """Hashes of every row, for disjointness checks between pool sets."""
    out: set[bytes] = set()
    pools = list(meta.pools) + ([meta.anomaly_pool] if meta.anomaly_pool is not None else [])
    for pool in pools:
        for row in pool:
            out.add(hashlib.blake2b(row.tobytes(), digest_size=16).digest())
    return out


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    # array_equal calls -0.0 and 0.0 equal; the bytes do not
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ----- out-of-place layer formulas -------------------------------------------
# The layer passes of ``batchad.nn`` written with one fresh array per
# operation, in the same operation order: the bit-exact oracle for the
# in-place passes.

def _column_sums(a: np.ndarray) -> np.ndarray:
    return np.matmul(np.ones(a.shape[-2]), a)


def reference_linear(layer, x: np.ndarray, grad: np.ndarray):
    """(output, input gradient, weight gradient) of a Linear layer; a stack's
    output and input gradient are one product per batch, the output by a
    contiguous copy of ``W.T``, and its weight gradient is the in-order sum
    of the per-batch products ``grad_t.T @ x_t``."""
    w_t = np.ascontiguousarray(layer.weight.T)
    batches = x.reshape(-1, *x.shape[-2:])
    grads = grad.reshape(-1, *grad.shape[-2:])
    out = np.stack([batch @ w_t for batch in batches])
    g_x = np.stack([g @ layer.weight for g in grads])
    g_weight = grads[0].T @ batches[0]
    for g, batch in zip(grads[1:], batches[1:]):
        g_weight = g_weight + g.T @ batch
    return out.reshape(*x.shape[:-1], layer.out_dim), g_x.reshape(x.shape), g_weight


def reference_batchnorm(layer, x: np.ndarray, mode: str, grad: np.ndarray):
    """(output, input gradient, gamma gradient, beta gradient) of a BatchNorm
    layer in ``mode``."""
    if mode == "batch":
        b = x.shape[-2]
        mean = _column_sums(x)[..., None, :] / b
        centered = x - mean
        var = np.einsum("...ij,...ij->...j", centered, centered) / b
        inv = (1.0 / np.sqrt(var + layer.eps))[..., None, :]
    elif mode == "frozen":
        centered = x - layer.frozen_mean
        inv = 1.0 / np.sqrt(layer.frozen_var + layer.eps)
    else:
        centered, inv = x, 1.0
    # the normalized rows are centered * inv; the scale gamma * inv is applied at once
    out = centered * (layer.gamma * inv) + layer.beta
    g_sum = _column_sums(grad)[..., None, :]
    gx_sum = np.einsum("...ij,...ij->...j", grad, centered)[..., None, :] * inv
    g_gamma = gx_sum.reshape(-1, layer.dim).sum(axis=0)
    g_beta = g_sum.reshape(-1, layer.dim).sum(axis=0)
    if mode == "batch":
        scale = layer.gamma * inv
        g_x = grad * scale - scale * g_sum / b - centered * (scale * inv * gx_sum / b)
    else:
        g_x = grad * (layer.gamma * inv)
    return out, g_x, g_gamma, g_beta


def reference_relu(x: np.ndarray, grad: np.ndarray):
    """(output, input gradient) of a ReLU."""
    out = np.maximum(x, 0.0)
    return out, grad * (out > 0)
