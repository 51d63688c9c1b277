"""Detector model: a batch-normalized MLP feature extractor plus a scoring head.

Two heads are supported. The distance head scores each row by its squared
distance to a learnable center in latent space; the classifier head emits a
single logit per row. Normalization layers sit after every linear map (and
after the latent layer for the distance head); each can be switched between
batch statistics, recorded frozen statistics, and plain affine identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .nn import (
    BN_BATCH,
    BN_IDENTITY,
    BN_MODES,
    DTYPE,
    Adam,  # noqa: F401  (re-exported for callers configuring optimizers)
    BatchNorm,
    Linear,
    as_batch,
    relu_backward,
    relu_forward,
)
from .scores import DEFAULT_INVERSE_EPS, ScoreVector, bce_scores, dsvdd_scores

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


class DetectorModel:
    """Layer stack plus head parameters.

    ``bn_mode`` is the scoring-time behavior of the active normalization
    layers; ``bn_mask`` switches individual positions to affine identity
    (the layer-position ablation). Scoring never mutates the model, so a
    trained instance can be shared across concurrent workers.
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
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
        if bn_mode not in BN_MODES:
            raise ValueError(f"unknown bn_mode {bn_mode!r}")
        n_bn = arch.n_bn_positions(head)
        if bn_mask is None:
            bn_mask = (True,) * n_bn
        bn_mask = tuple(bool(m) for m in bn_mask)
        if len(bn_mask) != n_bn:
            raise ValueError(f"bn_mask must have {n_bn} entries, got {len(bn_mask)}")
        if rng is None:
            rng = np.random.default_rng(0)

        self.arch = arch
        self.head = head
        self.bn_mode = bn_mode
        self.bn_mask = bn_mask
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

        self.center = (
            np.zeros(arch.latent_dim, dtype=DTYPE) if head == HEAD_DSVDD else None
        )

    # ----- parameters ------------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name, kind, layer in self.blocks:
            if kind == "relu":
                continue
            for pname, arr in layer.param_items():
                out[f"{name}.{pname}"] = arr
        if self.center is not None:
            out["center"] = self.center
        return out

    def zero_grads_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params().items()}

    # ----- forward / backward ----------------------------------------------

    def _bn_behavior(self, bn_index: int, mode: str) -> str:
        return mode if self.bn_mask[bn_index] else BN_IDENTITY

    def forward(self, x: np.ndarray, mode: str | None = None, record: bool = False):
        """Run the full stack on a (batch, features) batch or a (tasks, batch,
        features) stack. Returns (head output, latent, tape).

        ``latent`` is the activation after the last normalization position,
        the representation the generalization diagnostic inspects.
        """
        x = as_batch(x, stacked=True)
        if x.shape[-1] != self.arch.input_dim:
            raise ValueError(
                f"model expects {self.arch.input_dim} features, got {x.shape[-1]}"
            )
        mode = self.bn_mode if mode is None else mode
        tape = []
        latent = None
        bn_i = 0
        for _name, kind, layer in self.blocks:
            if kind == "linear":
                x, cache = layer.forward(x)
            elif kind == "bn":
                x, cache = layer.forward(x, self._bn_behavior(bn_i, mode), record=record)
                latent = x
                bn_i += 1
            else:
                x, cache = relu_forward(x)
            tape.append(cache)
        if latent is None:
            latent = x
        return x, latent, tape

    def score_batch(self, x: np.ndarray, mode: str | None = None) -> ScoreVector:
        out, _latent, _tape = self.forward(as_batch(x), mode=mode)
        if self.head == HEAD_DSVDD:
            return dsvdd_scores(out, self.center, self.inverse_eps)
        return bce_scores(out[:, 0])

    def latent_batch(self, x: np.ndarray, mode: str | None = None) -> np.ndarray:
        _out, latent, _tape = self.forward(x, mode=mode)
        return latent

    def loss_and_grads(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss_kind: str = "meta_oe",
        mode: str | None = None,
        record: bool = False,
    ):
        """Loss value plus gradients w.r.t. every parameter, for one batch or
        a stack of equally sized batches.

        The loss is the mean over all rows, which for a stack is the mean of
        the per-batch losses; gradients follow it.
        """
        out, _latent, tape = self.forward(x, mode=mode, record=record)
        y = np.asarray(y, dtype=DTYPE).reshape(-1)
        stacked_shape = out.shape
        out = out.reshape(-1, stacked_shape[-1])
        b = out.shape[0]
        if y.shape[0] != b:
            raise ValueError("labels and batch disagree on length")

        grads = self.zero_grads_like()
        if self.head == HEAD_DSVDD:
            diff = out - self.center
            s = np.einsum("ij,ij->i", diff, diff)
            a = 1.0 / (s + self.inverse_eps)
            if loss_kind == "meta_oe":
                loss = float(np.mean((1.0 - y) * s + y * a))
                dl_ds = ((1.0 - y) - y / (s + self.inverse_eps) ** 2) / b
            elif loss_kind == "one_class":
                loss = float(np.mean(s))
                dl_ds = np.full(b, 1.0 / b)
            else:
                raise ValueError(f"unknown loss {loss_kind!r}")
            g_out = 2.0 * dl_ds[:, None] * diff
            if not self.center_frozen:
                grads["center"] = -2.0 * (dl_ds[:, None] * diff).sum(axis=0)
        else:
            t = out[:, 0]
            sig_pos = 1.0 / (1.0 + np.exp(-np.clip(t, -700, 700)))
            if loss_kind == "meta_oe":
                loss = float(np.mean((1.0 - y) * np.logaddexp(0.0, t) + y * np.logaddexp(0.0, -t)))
                dl_dt = ((1.0 - y) * sig_pos - y * (1.0 - sig_pos)) / b
            elif loss_kind == "one_class":
                loss = float(np.mean(np.logaddexp(0.0, t)))
                dl_dt = sig_pos / b
            else:
                raise ValueError(f"unknown loss {loss_kind!r}")
            g_out = dl_dt[:, None]

        grad = g_out.reshape(stacked_shape)
        for (name, kind, layer), cache in zip(reversed(self.blocks), reversed(tape)):
            if kind == "relu":
                grad = relu_backward(grad, cache)
                continue
            grad, layer_grads = layer.backward(grad, cache)
            for pname, g in layer_grads.items():
                grads[f"{name}.{pname}"] = g
        return loss, grads

    # ----- frozen statistics -----------------------------------------------

    def freeze_batch_stats(self) -> None:
        """Adopt the most recently recorded batch statistics in every
        normalization layer (captured during training with ``record=True``)."""
        for _name, kind, layer in self.blocks:
            if kind == "bn":
                layer.freeze()

    def has_frozen_stats(self) -> bool:
        return all(
            layer.frozen_mean is not None
            for _n, kind, layer in self.blocks
            if kind == "bn"
        )


# ----- checkpoint io ---------------------------------------------------------

def _stat_items(model: DetectorModel):
    for name, kind, layer in model.blocks:
        if kind == "bn" and layer.frozen_mean is not None:
            for field in STAT_FIELDS:
                yield f"{name}.{field}", getattr(layer, field)


def save_checkpoint(model: DetectorModel, path) -> None:
    """Write a self-describing checkpoint.

    Layout: magic line, one JSON header line (sorted keys) listing the
    architecture and an ordered array manifest, then the raw array bytes in
    manifest order, little-endian float64, C order. Round-trips bit-exactly.
    """
    params = model.params()
    stats = list(_stat_items(model))
    header = {
        "arch": {
            "input_dim": model.arch.input_dim,
            "hidden": list(model.arch.hidden),
            "latent_dim": model.arch.latent_dim,
            "input_bn": model.arch.input_bn,
        },
        "head": model.head,
        "bn_mode": model.bn_mode,
        "bn_mask": [int(m) for m in model.bn_mask],
        "inverse_eps": model.inverse_eps,
        "center_frozen": model.center_frozen,
        "params": [[k, list(v.shape)] for k, v in params.items()],
        "stats": [[k, list(v.shape)] for k, v in stats],
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        fh.write(b"\n")
        for _k, arr in list(params.items()) + stats:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> DetectorModel:
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        header = json.loads(fh.readline().decode())
        blob = fh.read()

    arch = Architecture(
        input_dim=header["arch"]["input_dim"],
        hidden=tuple(header["arch"]["hidden"]),
        latent_dim=header["arch"]["latent_dim"],
        input_bn=header["arch"]["input_bn"],
    )
    model = DetectorModel(
        arch,
        head=header["head"],
        bn_mode=header["bn_mode"],
        bn_mask=tuple(bool(m) for m in header["bn_mask"]),
        inverse_eps=header["inverse_eps"],
        center_frozen=header["center_frozen"],
    )

    offset = 0

    def take(shape):
        nonlocal offset
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += n * 8
        return arr.astype(DTYPE)

    params = model.params()
    for name, shape in header["params"]:
        if name not in params or list(params[name].shape) != shape:
            raise ValueError(f"checkpoint parameter {name} does not fit this model")
        params[name][...] = take(shape)
    bn_layers = {name: layer for name, kind, layer in model.blocks if kind == "bn"}
    for name, shape in header["stats"]:
        layer_name, _, field = str(name).rpartition(".")
        layer = bn_layers.get(layer_name)
        if layer is None or field not in STAT_FIELDS or shape != [layer.dim]:
            raise ValueError(f"checkpoint statistic {name} does not fit this model")
        setattr(layer, field, take(shape))
    for name, layer in bn_layers.items():
        if (layer.frozen_mean is None) != (layer.frozen_var is None):
            raise ValueError(
                f"checkpoint lists only one of {name}.frozen_mean and {name}.frozen_var"
            )
    if offset != len(blob):
        raise ValueError("checkpoint has trailing bytes")
    return model
