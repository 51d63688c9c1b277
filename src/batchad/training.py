"""Meta-training loop: sample contaminated tasks, average their gradients,
take one optimizer step per iteration.

The tasks of an iteration are sorted by a content-based key and stacked into
one (tasks, batch, features) array, which is forwarded and backpropagated in
one pass. Normalization statistics are taken per task, so they never mix
across tasks; the canonical order makes the parameter update exactly
invariant to the order in which tasks were sampled within an iteration.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .model import Architecture, DetectorModel, HEAD_DSVDD
from .nn import BN_BATCH, BN_FROZEN, BN_IDENTITY, Adam
from .scores import LOSS_META_OE, LOSSES
from .tasks import MetaDataset, MixtureConfig, TaskBatch, sample_iteration_tasks

DIVERGENCE_PATIENCE = 5


def no_bn_trivial_loss_value(pi: float) -> float:
    """Analytic infimum of the mixed objective summed over a 2-pool meta-set
    when the model has no batch normalization: 4*sqrt(pi*(1-pi)).

    At this optimum the network maps every input to a sphere around the
    center, independent of the input's source pool, so the value is a floor
    that adaptive (batch-normalized) training must undercut.
    """
    if not 0.5 <= pi <= 1.0:
        raise ValueError(f"pi must lie in [0.5, 1], got {pi}")
    return 4.0 * math.sqrt(pi * (1.0 - pi))


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 800
    tasks_per_iter: int = 8
    batch_size: int = 60
    pi: float = 0.8
    learning_rate: float = 1e-3
    seed: int = 0
    head: str = HEAD_DSVDD
    hidden: tuple[int, ...] = (64, 64, 64)
    latent_dim: int = 32
    input_bn: bool = False
    bn_mode: str = BN_BATCH
    bn_mask: tuple[int, ...] | None = None
    loss: str = LOSS_META_OE  # meta_oe | one_class
    center_frozen: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be at least 1, got {self.iterations}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        # batch_size / pi / tasks_per_iter are validated by MixtureConfig, the
        # head, bn_mode, bn_mask and widths by the model they describe
        self.mixture()
        try:
            self.model(input_dim=1)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def mixture(self) -> MixtureConfig:
        return MixtureConfig(
            pi=self.pi, batch_size=self.batch_size, tasks_per_iter=self.tasks_per_iter
        )

    def architecture(self, input_dim: int) -> Architecture:
        return Architecture(
            input_dim=input_dim,
            hidden=tuple(self.hidden),
            latent_dim=self.latent_dim,
            input_bn=self.input_bn,
        )

    def model(self, input_dim: int, rng: np.random.Generator | None = None) -> DetectorModel:
        """An untrained detector for ``input_dim`` features."""
        return DetectorModel(
            self.architecture(input_dim),
            head=self.head,
            rng=rng,
            bn_mode=self.bn_mode,
            bn_mask=self.bn_mask,
            center_frozen=self.center_frozen,
        )


@dataclass
class TrainReport:
    loss_curve: list[float]
    diverged_iterations: int = 0

    @property
    def final_loss(self) -> float:
        return self.loss_curve[-1]


def _task_key(task: TaskBatch) -> bytes:
    """Content-based ordering key so gradient reduction ignores sample order."""
    h = hashlib.blake2b(digest_size=16)
    h.update(task.x.tobytes())
    h.update(task.y.tobytes())
    return h.digest()


def average_task_gradients(
    model: DetectorModel,
    tasks: list[TaskBatch],
    loss_kind: str,
    mode: str,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss and mean gradients over equally sized tasks, in one pass.

    The tasks are stacked in a canonical content-based order, each with its
    own normalization statistics, so the result is bit-identical under any
    permutation of ``tasks``.
    """
    tasks = sorted(tasks, key=_task_key)
    x = np.stack([task.x for task in tasks])
    y = np.stack([task.y for task in tasks])
    return model.loss_and_grads(x, y, loss_kind=loss_kind, mode=mode)


def train(meta: MetaDataset, cfg: TrainConfig) -> tuple[DetectorModel, TrainReport]:
    """Run the full meta-training loop and return the trained model.

    Per iteration: sample ``tasks_per_iter`` contaminated tasks, forward and
    backprop them as one stack (each task with its own normalization
    statistics), average the losses and gradients over the tasks, and apply
    one Adam step. A ``frozen`` model then freezes the statistics of the
    last task, in content-key order, of the final iteration under the final
    parameters.
    """
    if cfg.pi < 1.0 and meta.k < 2 and meta.anomaly_pool is None:
        raise ConfigError("pi < 1 needs at least two pools in the meta-set")

    root = np.random.SeedSequence(cfg.seed)
    init_ss, task_ss = root.spawn(2)
    model = cfg.model(meta.dim, rng=np.random.default_rng(init_ss))
    adam = Adam(model.params(), cfg.learning_rate)
    task_rng = np.random.default_rng(task_ss)
    mixture = cfg.mixture()
    # identity stays identity during training; frozen trains on batch stats
    train_mode = BN_IDENTITY if cfg.bn_mode == BN_IDENTITY else BN_BATCH

    losses: list[float] = []
    bad_streak = 0
    diverged = 0
    for _ in range(cfg.iterations):
        tasks = sample_iteration_tasks(meta, mixture, task_rng)
        mean_loss, avg = average_task_gradients(model, tasks, loss_kind=cfg.loss, mode=train_mode)
        losses.append(mean_loss)

        if not math.isfinite(mean_loss):
            bad_streak += 1
            diverged += 1
            if bad_streak >= DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"loss non-finite for {bad_streak} consecutive iterations "
                    f"(last={mean_loss!r}, iteration={len(losses)})"
                )
            continue
        bad_streak = 0
        adam.step(model.params(), avg)

    if cfg.bn_mode == BN_FROZEN:
        model.freeze_batch_stats(max(tasks, key=_task_key).x)

    return model, TrainReport(loss_curve=losses, diverged_iterations=diverged)
