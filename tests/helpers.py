"""Shared test utilities: finite-difference oracles and instance filters."""

from __future__ import annotations

import hashlib

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
        arch = Architecture(input_dim=3, hidden=(6, 5), latent_dim=4)
        model = DetectorModel(arch, head=head, rng=rng)
        for name, p in model.params().items():
            if name.endswith("gamma"):
                p += rng.normal(0.0, 0.1, p.shape)
            elif name.endswith(("beta", "bias", "center")):
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
    the oracle for the vectorized ranks in ``batchad.evaluation``."""
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


def spearman_rho(x, y) -> float:
    """Rank correlation via tie-averaged ranks (small inputs only)."""
    from batchad.evaluation import tie_average_ranks

    rx = tie_average_ranks(np.asarray(x, dtype=float))
    ry = tie_average_ranks(np.asarray(y, dtype=float))
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


# ----- out-of-place layer formulas -------------------------------------------
# The layer passes of ``batchad.nn`` written with one fresh array per
# operation, in the same operation order: the bit-exact oracle for the
# in-place passes.

def _column_sums(a: np.ndarray) -> np.ndarray:
    return np.matmul(np.ones(a.shape[-2]), a)


def reference_linear(layer, x: np.ndarray, grad: np.ndarray):
    """(output, input gradient, weight gradient, bias gradient) of a Linear layer."""
    rows_in = x.reshape(-1, layer.in_dim)
    out = (rows_in @ layer.weight.T + layer.bias).reshape(*x.shape[:-1], layer.out_dim)
    rows = grad.reshape(-1, layer.out_dim)
    g_x = (rows @ layer.weight).reshape(x.shape)
    return out, g_x, rows.T @ rows_in, _column_sums(rows)


def reference_batchnorm(layer, x: np.ndarray, mode: str, grad: np.ndarray):
    """(output, input gradient, gamma gradient, beta gradient) of a BatchNorm
    layer in ``mode``."""
    if mode == "batch":
        b = x.shape[-2]
        mean = _column_sums(x)[..., None, :] / b
        centered = x - mean
        var = np.einsum("...ij,...ij->...j", centered, centered) / b
        inv = (1.0 / np.sqrt(var + layer.eps))[..., None, :]
        xhat = centered * inv
    elif mode == "frozen":
        inv = 1.0 / np.sqrt(layer.frozen_var + layer.eps)
        xhat = (x - layer.frozen_mean) * inv
    else:
        xhat = x
    out = layer.gamma * xhat + layer.beta
    g_sum = _column_sums(grad)[..., None, :]
    gx_sum = np.einsum("...ij,...ij->...j", grad, xhat)[..., None, :]
    g_gamma = gx_sum.reshape(-1, layer.dim).sum(axis=0)
    g_beta = g_sum.reshape(-1, layer.dim).sum(axis=0)
    if mode == "batch":
        g_x = (layer.gamma * inv / b) * (b * grad - g_sum - xhat * gx_sum)
    elif mode == "frozen":
        g_x = grad * layer.gamma * inv
    else:
        g_x = grad * layer.gamma
    return out, g_x, g_gamma, g_beta


def reference_relu(x: np.ndarray, grad: np.ndarray):
    """(output, input gradient) of a ReLU."""
    mask = x > 0
    return x * mask, grad * mask
