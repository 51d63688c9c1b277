"""Detector model: a batch-normalized MLP feature extractor plus a scoring head.

Two heads are supported. The distance head scores each row by its squared
distance to a learnable center in latent space; the classifier head emits a
single logit per row. Normalization layers sit after every linear map (and
after the latent layer for the distance head); each can be switched between
batch statistics, frozen train-time statistics, and plain affine identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .nn import (
    BN_BATCH,
    BN_FROZEN,
    BN_IDENTITY,
    BN_MODES,
    DTYPE,
    BatchNorm,
    Linear,
    as_batch,
    relu_backward,
    relu_forward,
)
from .scores import (
    DEFAULT_INVERSE_EPS,
    LOSS_META_OE,
    LOSS_ONE_CLASS,
    LOSSES,
    ScoreVector,
    bce_scores,
    dsvdd_scores,
    meta_oe_loss,
)

HEAD_DSVDD = "dsvdd"
HEAD_BCE = "bce"
HEADS = (HEAD_DSVDD, HEAD_BCE)

CHECKPOINT_MAGIC = b"batchad-checkpoint v1\n"
# the only per-layer statistics a checkpoint may carry
STAT_FIELDS = ("frozen_mean", "frozen_var")


@dataclass(frozen=True)
class Architecture:
    """MLP shape: hidden widths, latent width, and optional input normalization."""

    input_dim: int
    hidden: tuple[int, ...] = (64, 64, 64)
    latent_dim: int = 32
    input_bn: bool = False

    def __post_init__(self):
        if self.input_dim < 1 or self.latent_dim < 1:
            raise ValueError("dimensions must be positive")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")

    def n_bn_positions(self, head: str) -> int:
        return int(self.input_bn) + len(self.hidden) + (1 if head == HEAD_DSVDD else 0)

    def n_params(self, head: str) -> int:
        """Number of parameter values of a model of this shape, counted
        without building it: linear weights and biases, every gamma and
        beta, and the distance head's center."""
        latent = self.latent_dim if head == HEAD_DSVDD else 0
        widths = (self.input_dim, *self.hidden, latent or 1)
        linear = sum((a + 1) * b for a, b in zip(widths, widths[1:]))
        norms = self.input_bn * self.input_dim + sum(self.hidden) + latent
        return linear + 2 * norms + latent


def check_model_settings(
    arch: Architecture, head: str, bn_mode: str, bn_mask
) -> tuple[bool, ...]:
    """The normalization mask of a model of this shape as booleans (all on
    when ``bn_mask`` is None); raises ``ValueError`` for an unknown head or
    ``bn_mode`` or a mask of the wrong length. Builds nothing."""
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}")
    if bn_mode not in BN_MODES:
        raise ValueError(f"unknown bn_mode {bn_mode!r}")
    n_bn = arch.n_bn_positions(head)
    mask = (True,) * n_bn if bn_mask is None else tuple(bool(m) for m in bn_mask)
    if len(mask) != n_bn:
        raise ValueError(f"bn_mask must have {n_bn} entries, got {len(mask)}")
    return mask


class DetectorModel:
    """Layer stack plus head parameters.

    ``bn_mode`` is the scoring-time behavior of the active normalization
    layers; ``bn_mask`` switches individual positions to affine identity
    (the layer-position ablation). Scoring never mutates the model, so a
    trained instance can be shared across concurrent workers.

    Once the layers have drawn their initial values, every parameter array
    becomes a view into one float64 vector ``theta``, in manifest order;
    ``layout`` holds each array's ``(name, start, stop, shape)`` in it.
    """

    def __init__(
        self,
        arch: Architecture,
        head: str = HEAD_DSVDD,
        rng: np.random.Generator | None = None,
        bn_mode: str = BN_BATCH,
        bn_mask: tuple[bool, ...] | None = None,
        inverse_eps: float = DEFAULT_INVERSE_EPS,
        center_frozen: bool = False,
    ):
        self.bn_mask = check_model_settings(arch, head, bn_mode, bn_mask)
        if rng is None:
            rng = np.random.default_rng(0)

        self.arch = arch
        self.head = head
        self.bn_mode = bn_mode
        self.inverse_eps = float(inverse_eps)
        self.center_frozen = bool(center_frozen)

        blocks: list[tuple[str, str, object]] = []
        if arch.input_bn:
            blocks.append(("bn_in", "bn", BatchNorm(arch.input_dim)))
        prev = arch.input_dim
        for i, width in enumerate(arch.hidden):
            blocks.append((f"lin{i}", "linear", Linear(prev, width, rng)))
            blocks.append((f"bn{i}", "bn", BatchNorm(width)))
            blocks.append((f"relu{i}", "relu", None))
            prev = width
        out_dim = arch.latent_dim if head == HEAD_DSVDD else 1
        blocks.append(("lin_out", "linear", Linear(prev, out_dim, rng)))
        if head == HEAD_DSVDD:
            blocks.append(("bn_out", "bn", BatchNorm(arch.latent_dim)))
        self.blocks = blocks

        self.center = np.zeros(arch.latent_dim, dtype=DTYPE) if head == HEAD_DSVDD else None

        owners = [
            (layer, attr, f"{name}.{attr}")
            for name, _kind, layer in blocks
            if layer is not None
            for attr in layer.PARAMS
        ]
        if self.center is not None:
            owners.append((self, "center", "center"))
        arrays = [getattr(owner, attr) for owner, attr, _name in owners]
        stops = np.cumsum([arr.size for arr in arrays]).tolist()
        self.layout = tuple(
            (name, stop - arr.size, stop, arr.shape)
            for (_owner, _attr, name), arr, stop in zip(owners, arrays, stops)
        )
        self.theta = np.concatenate([arr.ravel() for arr in arrays])
        for (owner, attr, _name), view in zip(owners, self.params().values()):
            setattr(owner, attr, view)

    # ----- parameters ------------------------------------------------------

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice, by name, of a vector laid out like ``theta``."""
        return {name: vec[start:stop].reshape(shape) for name, start, stop, shape in self.layout}

    def params(self) -> dict[str, np.ndarray]:
        return self.views(self.theta)

    # ----- forward / backward ----------------------------------------------

    def _bn_behavior(self, bn_index: int, mode: str) -> str:
        return mode if self.bn_mask[bn_index] else BN_IDENTITY

    def forward(self, x: np.ndarray, mode: str | None = None, tape: list | None = None):
        """Run the full stack on a (batch, features) batch or a (tasks, batch,
        features) stack. Returns (head output, latent).

        ``latent`` is the activation after the last normalization position,
        the representation the generalization diagnostic inspects.

        Given a list as ``tape``, appends each block's cache to it, in block
        order, for a backward pass; without one no cache is kept, so each
        activation is freed as soon as the next one exists. ``x`` is never
        written: every ReLU zeroes, in place, the normalization output made
        just before it in this call (the latent is copied first when a ReLU
        follows it).
        """
        x = as_batch(x, stacked=True)
        if x.shape[-1] != self.arch.input_dim:
            raise ValueError(
                f"model expects {self.arch.input_dim} features, got {x.shape[-1]}"
            )
        mode = self.bn_mode if mode is None else mode
        latent = None
        bn_i = 0
        for _name, kind, layer in self.blocks:
            if kind == "linear":
                x, cache = layer.forward(x)
            elif kind == "bn":
                x, cache = layer.forward(x, self._bn_behavior(bn_i, mode))
                latent = x
                bn_i += 1
            else:
                if bn_i == len(self.bn_mask):  # this ReLU would zero the latent
                    latent = x.copy()
                x, cache = relu_forward(x)
            if tape is not None:
                tape.append(cache)
        if latent is None:
            latent = x
        return x, latent

    def _scores(self, out: np.ndarray) -> ScoreVector:
        """The head's score pair for a (rows, outputs) network output."""
        if self.head == HEAD_DSVDD:
            return dsvdd_scores(out, self.center, self.inverse_eps)
        return bce_scores(out[:, 0])

    def score_batch(self, x: np.ndarray) -> ScoreVector:
        """Score one (batch, features) batch; batch statistics need at least
        two rows."""
        out, _latent = self.forward(as_batch(x))
        return self._scores(out)

    def latent_batch(self, x: np.ndarray) -> np.ndarray:
        _out, latent = self.forward(x)
        return latent

    def loss_and_grads(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss_kind: str = LOSS_META_OE,
        mode: str | None = None,
    ):
        """Loss value plus the flat gradient vector w.r.t. ``theta`` (name its
        slices with :meth:`views`), for one batch or a stack of equally sized
        batches.

        The loss is :func:`meta_oe_loss` of the head's scores; ``one_class``
        is that objective with every row labeled normal. It is the mean over
        all rows, which for a stack is the mean of the per-batch losses;
        gradients follow it.
        """
        if loss_kind not in LOSSES:
            raise ValueError(f"unknown loss {loss_kind!r}")
        tape = []
        out, _latent = self.forward(x, mode, tape)
        stacked_shape = out.shape
        out = out.reshape(-1, stacked_shape[-1])
        b = out.shape[0]
        y = np.zeros(b) if loss_kind == LOSS_ONE_CLASS else np.asarray(y, dtype=DTYPE).reshape(-1)
        scores = self._scores(out)
        loss = meta_oe_loss(scores, y)

        grad_theta = np.zeros_like(self.theta)
        grads = self.views(grad_theta)
        if self.head == HEAD_DSVDD:
            diff = out - self.center
            dl_ds = ((1.0 - y) - y / (scores.s + self.inverse_eps) ** 2) / b
            g_out = 2.0 * dl_ds[:, None] * diff
            if not self.center_frozen:
                grads["center"][...] = -2.0 * (dl_ds[:, None] * diff).sum(axis=0)
        else:
            t = out[:, 0]
            sig_pos = 1.0 / (1.0 + np.exp(-np.clip(t, -700, 700)))
            dl_dt = ((1.0 - y) * sig_pos - y * (1.0 - sig_pos)) / b
            g_out = dl_dt[:, None]

        grad = g_out.reshape(stacked_shape)
        for (name, kind, layer), cache in zip(reversed(self.blocks), reversed(tape)):
            if kind == "relu":
                grad = relu_backward(grad, cache)
            else:
                grad = layer.backward(grad, cache, *(grads[f"{name}.{p}"] for p in layer.PARAMS))
        return loss, grad_theta

    # ----- frozen statistics -----------------------------------------------

    def active_norms(self) -> list[tuple[str, BatchNorm]]:
        """(name, layer) of every normalization position ``bn_mask`` leaves on."""
        norms = [(name, layer) for name, kind, layer in self.blocks if kind == "bn"]
        return [norm for norm, on in zip(norms, self.bn_mask) if on]

    def freeze_batch_stats(self, x: np.ndarray) -> None:
        """Fix the frozen-mode statistics of every active normalization layer
        to the mean and variance it computes for the batch ``x`` in one
        batch-mode pass with the current parameters."""
        tape = []
        self.forward(as_batch(x), BN_BATCH, tape)
        caches = {name: cache for (name, _kind, _layer), cache in zip(self.blocks, tape)}
        for name, layer in self.active_norms():
            _mode, _xhat, _inv, mean, var = caches[name]
            layer.frozen_mean = mean[0]
            layer.frozen_var = var

    def has_frozen_stats(self) -> bool:
        return all(layer.frozen_mean is not None for _name, layer in self.active_norms())


# ----- checkpoint io ---------------------------------------------------------

def _manifest(model: DetectorModel) -> tuple[list, list]:
    """The ``[name, shape]`` lists a checkpoint of ``model`` carries: every
    parameter, and both statistics of each active normalization layer."""
    params = [[name, list(shape)] for name, _start, _stop, shape in model.layout]
    stats = [
        [f"{name}.{field}", [layer.dim]]
        for name, layer in model.active_norms()
        for field in STAT_FIELDS
    ]
    return params, stats


def save_checkpoint(model: DetectorModel, path) -> None:
    """Write a self-describing checkpoint.

    Layout: magic line, one JSON header line (sorted keys) listing the
    architecture and an ordered array manifest, then the raw array bytes in
    manifest order, little-endian float64, C order: the parameter vector
    ``theta``, then the statistics. Round-trips bit-exactly. Frozen
    statistics are written only when every active layer has them.
    """
    params, stats = _manifest(model)
    arrays = [model.theta]
    if model.has_frozen_stats():
        arrays += [getattr(layer, f) for _n, layer in model.active_norms() for f in STAT_FIELDS]
    else:
        stats = []
    header = {
        "arch": asdict(model.arch),
        "head": model.head,
        "bn_mode": model.bn_mode,
        "bn_mask": [int(m) for m in model.bn_mask],
        "inverse_eps": model.inverse_eps,
        "center_frozen": model.center_frozen,
        "params": params,
        "stats": stats,
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        fh.write(b"\n")
        fh.write(np.concatenate(arrays, dtype="<f8").tobytes())


def load_checkpoint(path) -> DetectorModel:
    """Read a checkpoint whose header lists exactly the parameters of the
    model it describes, and either no statistics or all the frozen mode
    reads (all of them in frozen mode); anything else is a ``ValueError``."""
    with open(path, "rb") as fh:
        if fh.readline() != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        header_line = fh.readline()
        blob = fh.read()

    try:
        header = json.loads(header_line.decode())
        arch = Architecture(**{**header["arch"], "hidden": tuple(header["arch"]["hidden"])})
        # refuse before allocating: the header may describe a model far larger
        # than the file, e.g. after a bit flip in a width
        needed = arch.n_params(header["head"])
        if 8 * needed > len(blob):
            raise ValueError(f"arch needs {needed} values, the file holds {len(blob) // 8}")
        model = DetectorModel(
            arch,
            head=header["head"],
            bn_mode=header["bn_mode"],
            bn_mask=header["bn_mask"],
            inverse_eps=header["inverse_eps"],
            center_frozen=header["center_frozen"],
        )
        listed_params, listed_stats = header["params"], header["stats"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"checkpoint {path} has a malformed header ({type(exc).__name__}: {exc})"
        ) from None
    params, stats = _manifest(model)
    if listed_params != params:
        raise ValueError(
            f"checkpoint {path} lists parameters {listed_params}, this model has {params}"
        )
    if listed_stats not in ([], stats):
        raise ValueError(
            f"checkpoint {path} lists statistics {listed_stats}, this model has none or {stats}"
        )
    if model.bn_mode == BN_FROZEN and listed_stats != stats:
        raise ValueError(f"checkpoint {path} is in frozen mode but lists no statistics")

    listed = listed_params + listed_stats
    ends = np.cumsum([math.prod(shape) for _name, shape in listed])
    if 8 * ends[-1] != len(blob):
        too = "trailing" if 8 * ends[-1] < len(blob) else "too few"
        raise ValueError(f"checkpoint {path} has {too} bytes")
    values = np.frombuffer(blob, dtype="<f8").astype(DTYPE)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        name = listed[np.searchsorted(ends, bad[0], side="right")][0]
        raise ValueError(f"checkpoint {path} has a non-finite value in {name}")
    model.theta[...] = values[:model.theta.size]
    if listed_stats:
        stat_values = iter(np.split(values, ends[:-1])[len(listed_params):])
        for _name, layer in model.active_norms():
            for field in STAT_FIELDS:
                setattr(layer, field, next(stat_values))
    return model
