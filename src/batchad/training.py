"""Meta-training loop: sample contaminated tasks, average their gradients,
take one optimizer step per iteration.

The tasks of an iteration are sampled as one (tasks, batch, features) stack
and forwarded and backpropagated in one pass, in sample order, each task
with its own normalization statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DivergenceError
from .model import Architecture, DetectorModel, ModelSettings
from .nn import BN_BATCH, BN_FROZEN, BN_IDENTITY, Adam
from .scores import LOSS_META_OE, LOSSES
from .tasks import MetaDataset, normal_count, sample_iteration_tasks

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
class TrainConfig(ModelSettings):
    """The model settings, kept as given (an all-on ``bn_mask`` too), and how to train them."""

    iterations: int = 800
    tasks_per_iter: int = 8
    batch_size: int = 60
    pi: float = 0.8
    learning_rate: float = 1e-3
    seed: int = 0
    loss: str = LOSS_META_OE  # meta_oe | one_class

    def __post_init__(self, **least):
        super().__post_init__(iterations=1, tasks_per_iter=1, batch_size=2, seed=0, **least)
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.5 < self.pi <= 1.0:
            raise ConfigError(f"pi must lie in (0.5, 1], got {self.pi}")
        normal_count(self.pi, self.batch_size)

    def architecture(self, input_dim: int) -> Architecture:
        """The detector this config trains, for ``input_dim`` features."""
        settings = {f.name: getattr(self, f.name) for f in fields(ModelSettings)}
        return Architecture(input_dim=input_dim, **settings)


@dataclass
class TrainReport:
    loss_curve: list[float]
    diverged_iterations: int = 0

    @property
    def final_loss(self) -> float:
        return self.loss_curve[-1]


def average_task_gradients(
    model: DetectorModel,
    x: np.ndarray,
    y: np.ndarray,
    loss_kind: str,
    mode: str,
) -> tuple[float, np.ndarray]:
    """Mean loss and mean flat gradient vector over the tasks of a (T, B, D)
    stack ``x`` with (T, B) labels ``y``, in one pass, each task with its own
    normalization statistics."""
    return model.loss_and_grads(x, y, loss_kind=loss_kind, mode=mode)


def train(meta: MetaDataset, cfg: TrainConfig) -> tuple[DetectorModel, TrainReport]:
    """Run the full meta-training loop and return the trained model.

    Per iteration: sample ``tasks_per_iter`` contaminated tasks, forward and
    backprop them as one stack (each task with its own normalization
    statistics), average the losses and gradients over the tasks, and apply
    one Adam step to the parameter vector. An iteration whose loss or
    gradient is not finite skips the step and counts as diverged;
    ``DIVERGENCE_PATIENCE`` such iterations in a row raise
    :class:`DivergenceError`. A ``frozen`` model then freezes the statistics
    of the last task sampled in the final iteration under the final
    parameters.
    """
    root = np.random.SeedSequence(cfg.seed)
    init_ss, task_ss = root.spawn(2)
    model = DetectorModel(cfg.architecture(meta.dim), np.random.default_rng(init_ss))
    adam = Adam(model.theta, cfg.learning_rate)
    task_rng = np.random.default_rng(task_ss)
    # identity stays identity during training; frozen trains on batch stats
    train_mode = BN_IDENTITY if cfg.bn_mode == BN_IDENTITY else BN_BATCH

    losses: list[float] = []
    bad_streak = 0
    diverged = 0
    for _ in range(cfg.iterations):
        x, y = sample_iteration_tasks(meta, cfg.tasks_per_iter, cfg.pi, cfg.batch_size, task_rng)
        mean_loss, grad = average_task_gradients(model, x, y, loss_kind=cfg.loss, mode=train_mode)
        losses.append(mean_loss)

        if not (math.isfinite(mean_loss) and np.isfinite(grad).all()):
            bad_streak += 1
            diverged += 1
            if bad_streak >= DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"loss or gradient non-finite for {bad_streak} consecutive iterations "
                    f"(last loss={mean_loss!r}, iteration={len(losses)})"
                )
            continue
        bad_streak = 0
        adam.step(grad)

    if cfg.bn_mode == BN_FROZEN:
        model.freeze_batch_stats(x[-1])

    return model, TrainReport(loss_curve=losses, diverged_iterations=diverged)
