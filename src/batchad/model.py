"""Detector model: a batch-normalized MLP feature extractor plus a scoring head.

Two heads are supported. The distance head scores each row by its squared
distance to a learnable center in latent space; the classifier head emits one
logit per row plus a learned offset. Normalization layers sit after every
linear map (and after the latent layer for the distance head); each can use
batch statistics, frozen train-time statistics or a plain affine identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, check_fields
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

# the most rows one scoring forward takes from a stack: a long stack is scored
# in chunks of whole batches, which bounds memory and, as statistics are per
# batch, changes no score
STACK_ROWS = 4096

CHECKPOINT_MAGIC = b"batchad-checkpoint v1\n"
# the only per-layer statistics a checkpoint may carry
STAT_FIELDS = ("frozen_mean", "frozen_var")
# the Architecture fields a checkpoint header keeps as top-level keys; the
# shape fields nest under "arch"
SETTING_FIELDS = ("head", "bn_mode", "bn_mask", "inverse_eps", "center_frozen")


@dataclass(frozen=True, kw_only=True)
class ModelSettings:
    """The seven settings that shape and switch a detector, declared once for
    :class:`Architecture` and :class:`TrainConfig`. ``bn_mode`` is the
    scoring-time mode of the active normalization layers; ``bn_mask`` (None:
    all on) switches single positions to affine identity; ``center_frozen``
    keeps the distance head's center fixed in training. Construction runs
    :func:`check_fields`, with a subclass's lower bounds in ``least``, and
    raises :class:`ConfigError` for a setting no model has.
    """

    hidden: tuple[int, ...] = (64, 64, 64)
    latent_dim: int = 32
    input_bn: bool = False
    head: str = HEAD_DSVDD
    bn_mode: str = BN_BATCH
    bn_mask: tuple[int, ...] | None = None
    center_frozen: bool = False

    def __post_init__(self, **least):
        check_fields(self, hidden=1, latent_dim=1, **least)
        if self.head not in HEADS:
            raise ConfigError(f"unknown head {self.head!r}")
        if self.bn_mode not in BN_MODES:
            raise ConfigError(f"unknown bn_mode {self.bn_mode!r}")
        if self.bn_mask is not None:
            if any(m not in (0, 1) for m in self.bn_mask):
                raise ConfigError(f"bn_mask entries must be 0 or 1, got {list(self.bn_mask)}")
            if len(self.bn_mask) != (n_bn := self.n_bn_positions()):
                raise ConfigError(f"bn_mask must have {n_bn} entries, got {len(self.bn_mask)}")

    def n_bn_positions(self) -> int:
        return int(self.input_bn) + len(self.hidden) + (1 if self.head == HEAD_DSVDD else 0)


@dataclass(frozen=True)
class Architecture(ModelSettings):
    """A detector model, described and checked without building it: the
    model settings, the input width and the distance head's inverse-score
    guard. A mask with every position on is kept as None, so equal models
    compare equal.
    """

    input_dim: int
    inverse_eps: float = DEFAULT_INVERSE_EPS

    def __post_init__(self):
        super().__post_init__(input_dim=1)
        if self.bn_mask is not None and all(self.bn_mask):  # one form for "all on"
            object.__setattr__(self, "bn_mask", None)
        if not self.inverse_eps > 0:
            raise ConfigError(f"inverse_eps must be positive and finite, got {self.inverse_eps!r}")
        object.__setattr__(self, "inverse_eps", float(self.inverse_eps))

    def bn_on(self) -> tuple[bool, ...]:
        """Per normalization position, whether ``bn_mask`` leaves it on."""
        return tuple(bool(m) for m in self.bn_mask or (1,) * self.n_bn_positions())

    def n_params(self) -> int:
        """Number of parameter values of this model, counted without
        building it: linear weights, every gamma and beta, and the head's
        center or logit offset."""
        latent = self.latent_dim if self.head == HEAD_DSVDD else 0
        widths = (self.input_dim, *self.hidden, latent or 1)
        linear = sum(a * b for a, b in zip(widths, widths[1:]))
        norms = self.input_bn * self.input_dim + sum(self.hidden) + latent
        return linear + 2 * norms + (latent or 1)


class DetectorModel:
    """Layer stack plus head parameters of the model ``arch`` describes,
    which holds every setting. Scoring never mutates the model, so a
    trained instance can be shared across concurrent workers.

    Once the layers have drawn their initial values, every parameter array
    becomes a view into one float64 vector ``theta``, in manifest order;
    ``layout`` holds each array's ``(name, start, stop, shape)`` in it.
    """

    def __init__(self, arch: Architecture, rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.arch = arch
        self.bn_on = arch.bn_on()  # resolved once: forward reads it per block

        blocks: list[tuple[str, str, object]] = []
        if arch.input_bn:
            blocks.append(("bn_in", "bn", BatchNorm(arch.input_dim)))
        prev = arch.input_dim
        for i, width in enumerate(arch.hidden):
            blocks.append((f"lin{i}", "linear", Linear(prev, width, rng)))
            blocks.append((f"bn{i}", "bn", BatchNorm(width)))
            blocks.append((f"relu{i}", "relu", None))
            prev = width
        out_dim = arch.latent_dim if arch.head == HEAD_DSVDD else 1
        blocks.append(("lin_out", "linear", Linear(prev, out_dim, rng)))
        if arch.head == HEAD_DSVDD:
            blocks.append(("bn_out", "bn", BatchNorm(arch.latent_dim)))
        self.blocks = blocks

        # the head's own parameter: a latent center, or a scalar logit offset
        self.center = np.zeros(arch.latent_dim, dtype=DTYPE) if arch.head == HEAD_DSVDD else None
        self.offset = np.zeros((), dtype=DTYPE) if arch.head == HEAD_BCE else None
        head_param = "center" if arch.head == HEAD_DSVDD else "offset"
        owners = [
            (layer, attr, f"{name}.{attr}")
            for name, _kind, layer in blocks
            if layer is not None
            for attr in layer.PARAMS
        ] + [(self, head_param, head_param)]
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
        return mode if self.bn_on[bn_index] else BN_IDENTITY

    def forward(self, x: np.ndarray, mode: str | None = None, tape: list | None = None):
        """Run the full stack on a (batch, features) batch or a (tasks, batch,
        features) stack. Returns (head output, latent).

        ``latent`` is the activation after the last normalization position,
        the representation the generalization diagnostic inspects.

        Given a list as ``tape``, appends each block's cache to it, in block
        order, for a backward pass. Without one no cache is kept, so each
        activation is freed as soon as the next one exists. Either way each
        batch of a stack gets the bits a forward of that batch alone gives.
        ``x`` is never written. Each batch norm centers, in place, the
        ``Linear`` output made just before it in this call (a first one, with
        ``input_bn``, a copy of ``x``); without a tape it also writes its
        output there, so a forward allocates one activation per ``Linear``.
        Every ReLU zeroes, in place, the normalization output made just before
        it (the latent is copied first when a ReLU follows it).
        """
        x = as_batch(x, stacked=True)
        if x.shape[-1] != self.arch.input_dim:
            raise ValueError(
                f"model expects {self.arch.input_dim} features, got {x.shape[-1]}"
            )
        if self.arch.input_bn:  # the first batch norm would center the caller's rows
            x = x.copy()
        mode = self.arch.bn_mode if mode is None else mode
        latent = None
        bn_i = 0
        for _name, kind, layer in self.blocks:
            if kind == "linear":
                x, cache = layer.forward(x)
            elif kind == "bn":
                out = x if tape is None else None  # a cache keeps the centered rows
                x, cache = layer.forward(x, self._bn_behavior(bn_i, mode), out)
                latent = x
                bn_i += 1
            else:
                if bn_i == len(self.bn_on):  # this ReLU would zero the latent
                    latent = x.copy()
                x, cache = relu_forward(x)
            if tape is not None:
                tape.append(cache)
        if latent is None:
            latent = x
        return x, latent

    def _scores(self, out: np.ndarray) -> ScoreVector:
        """The head's score pair for a (rows, outputs) network output."""
        if self.arch.head == HEAD_DSVDD:
            return dsvdd_scores(out, self.center, self.arch.inverse_eps)
        return bce_scores(out[:, 0] + self.offset)

    def _chunked(self, x: np.ndarray, keep) -> list:
        """``keep(output rows, latent rows)`` of one forward over a (batch,
        features) batch, or of one forward per chunk of a (tasks, batch,
        features) stack, in order. A chunk is a run of whole batches of at
        most ``STACK_ROWS`` rows, and at least one batch."""
        x = as_batch(x, stacked=True)
        if x.ndim == 2:
            return [keep(*self.forward(x))]
        step = max(1, STACK_ROWS // max(1, x.shape[1]))
        return [
            keep(*(a.reshape(-1, a.shape[-1]) for a in self.forward(x[lo:lo + step])))
            for lo in range(0, max(len(x), 1), step)  # an empty stack is one empty chunk
        ]

    def score_batch(self, x: np.ndarray) -> ScoreVector:
        """Score a (batch, features) batch or a (tasks, batch, features)
        stack of equally sized batches. Each batch is normalized by its own
        statistics only, which need at least two rows in batch mode; the
        scores come back flat, in row order."""
        parts = self._chunked(x, lambda out, _latent: self._scores(out))
        return ScoreVector(
            s=np.concatenate([p.s for p in parts]), a=np.concatenate([p.a for p in parts])
        )

    def latent_batch(self, x: np.ndarray) -> np.ndarray:
        """The (rows, latent) representation of a batch or a stack, as
        :meth:`score_batch` scores it: each batch normalized on its own,
        rows in order."""
        return np.concatenate(self._chunked(x, lambda _out, latent: latent))

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
        if self.arch.head == HEAD_DSVDD:
            diff = out - self.center
            dl_ds = ((1.0 - y) - y / (scores.s + self.arch.inverse_eps) ** 2) / b
            if not self.arch.center_frozen:
                grads["center"][...] = -2.0 * (dl_ds @ diff)
            g_out = np.multiply(diff, (2.0 * dl_ds)[:, None], out=diff)
        else:
            t = out[:, 0] + self.offset
            sig_pos = 1.0 / (1.0 + np.exp(-np.clip(t, -700, 700)))
            dl_dt = ((1.0 - y) * sig_pos - y * (1.0 - sig_pos)) / b
            g_out = dl_dt[:, None]
            grads["offset"][...] = dl_dt.sum()

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
        return [norm for norm, on in zip(norms, self.bn_on) if on]

    def freeze_batch_stats(self, x: np.ndarray) -> None:
        """Fix the frozen-mode statistics of every active normalization layer
        to the mean and variance it computes for the batch ``x`` in one
        batch-mode pass with the current parameters."""
        tape = []
        self.forward(as_batch(x), BN_BATCH, tape)
        caches = {name: cache for (name, _kind, _layer), cache in zip(self.blocks, tape)}
        for name, layer in self.active_norms():
            _mode, _xc, _inv, mean, var = caches[name]
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
    shape = asdict(model.arch)
    header = {key: shape.pop(key) for key in SETTING_FIELDS}
    header.update(arch=shape, bn_mask=[int(m) for m in model.bn_on], params=params, stats=stats)
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
        # refuse before allocating, and before checking the other settings:
        # the header may describe a model far larger than the file, e.g.
        # after a bit flip in a width
        needed = Architecture(**header["arch"], head=header["head"]).n_params()
        if 8 * needed > len(blob):
            raise ValueError(f"arch needs {needed} values, the file holds {len(blob) // 8}")
        settings = {key: header[key] for key in SETTING_FIELDS}
        model = DetectorModel(Architecture(**header["arch"], **settings))
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
    if model.arch.bn_mode == BN_FROZEN and listed_stats != stats:
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
