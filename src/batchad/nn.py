"""Dense neural-network substrate: linear layers, ReLU, batch normalization
with batch-computed statistics, reverse-mode gradients, and Adam.

All activations are float64 numpy arrays of shape ``(..., batch, features)``:
either one ``(batch, features)`` batch or a ``(tasks, batch, features)`` stack
of equally sized batches. Batch normalization takes its statistics per batch
along the row axis (``axis=-2``), so a stack computes exactly what a loop over
its batches would; parameter gradients are summed over every row of the stack.
Forward passes return an ``(output, cache)`` pair; the cache is call-local
and no forward or backward pass mutates a layer, so a trained model can score
concurrent batches. A layer names its parameter attributes in ``PARAMS``; its
backward pass returns the input gradient and writes the parameter gradients
into the arrays it is given (views of one flat gradient vector, in a model).

Ownership: to save full-size temporaries, passes work in place, but only on
arrays the caller hands over for that purpose. ``relu_forward`` zeroes its
input in place and returns it; ``BatchNorm.backward`` and ``relu_backward``
overwrite the gradient they receive and return it. ``Linear`` and
``BatchNorm`` forward passes and ``Linear.backward`` never write their
inputs. No pass writes a parameter, a cache or the frozen statistics, and no
layer keeps a buffer between calls. A model hands a ReLU only the
normalization output it just made, and a backward pass only a gradient it
just computed.
"""

from __future__ import annotations

import numpy as np

from .errors import BatchTooSmallError

DTYPE = np.float64

BN_BATCH = "batch"
BN_IDENTITY = "identity"
BN_FROZEN = "frozen"
BN_MODES = (BN_BATCH, BN_IDENTITY, BN_FROZEN)


def as_batch(x, stacked: bool = False) -> np.ndarray:
    """Coerce input to a 2-D (batch, features) float64 array without copying
    when possible; with ``stacked`` a 3-D (tasks, batch, features) stack is
    accepted too."""
    arr = np.asarray(x, dtype=DTYPE)
    if arr.ndim != 2 and not (stacked and arr.ndim == 3):
        want = "(batch, features) or (tasks, batch, features)" if stacked else "(batch, features)"
        raise ValueError(f"expected a {want} array, got shape {arr.shape}")
    return arr


def _row_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Column sums over the row axis (per batch of a stack), shape
    (..., features); a ones-vector product runs faster than ``sum(axis=-2)``."""
    return np.matmul(np.ones(a.shape[-2], dtype=DTYPE), a, out=out)


class Linear:
    """Affine map ``y = x @ W.T + b`` with W of shape (out, in).

    Weights are initialized uniformly in +-sqrt(6 / (fan_in + fan_out)),
    biases at zero.
    """

    PARAMS = ("weight", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = rng.uniform(-limit, limit, size=(out_dim, in_dim)).astype(DTYPE)
        self.bias = np.zeros(out_dim, dtype=DTYPE)
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"linear layer expects {self.in_dim} input features, got {x.shape[-1]}"
            )
        # one matmul over all rows of a stack
        rows = x.reshape(-1, self.in_dim) @ self.weight.T
        rows += self.bias
        return rows.reshape(*x.shape[:-1], self.out_dim), x

    def backward(self, grad: np.ndarray, cache, g_weight: np.ndarray, g_bias: np.ndarray):
        """Input gradient; writes the parameter gradients into ``g_weight``, ``g_bias``."""
        x = cache.reshape(-1, self.in_dim)
        rows = grad.reshape(-1, self.out_dim)
        np.matmul(rows.T, x, out=g_weight)
        _row_sums(rows, out=g_bias)
        return (rows @ self.weight).reshape(cache.shape)


class BatchNorm:
    """Per-feature batch normalization with learnable scale/shift.

    Three behaviors (chosen per call, not stored):

    - ``batch``: normalize each batch with its own mean and biased variance
      (for a stack, each batch of the stack separately). Requires at least
      two rows per batch.
    - ``identity``: skip normalization; the layer reduces to ``gamma*x + beta``
      (the normalization-off ablation).
    - ``frozen``: normalize with the fixed ``frozen_mean``/``frozen_var``
      (train-time statistics reused at scoring time). The trainer sets them
      once, after its last optimizer step, from a batch-mode pass of the
      final parameters over the last task, in content-key order, of the final
      iteration; only the positions ``bn_mask`` leaves on get statistics.

    A batch-mode cache carries the batch's mean and variance, which is where
    the trainer reads the frozen statistics from.
    """

    PARAMS = ("gamma", "beta")

    def __init__(self, dim: int, eps: float = 1e-5):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.gamma = np.ones(dim, dtype=DTYPE)
        self.beta = np.zeros(dim, dtype=DTYPE)
        self.eps = float(eps)
        self.dim = dim
        # statistics used by the "frozen" mode
        self.frozen_mean = None
        self.frozen_var = None

    def forward(self, x: np.ndarray, mode: str = BN_BATCH):
        if mode == BN_BATCH:
            b = x.shape[-2]
            if b < 2:
                raise BatchTooSmallError(
                    f"batch statistics need at least 2 rows, got {b}"
                )
            # one centering pass; the biased variance comes from the centered rows
            mean = _row_sums(x)[..., None, :] / b
            xhat = x - mean
            var = np.einsum("...ij,...ij->...j", xhat, xhat) / b
            inv = (1.0 / np.sqrt(var + self.eps))[..., None, :]
            xhat *= inv
            cache = (BN_BATCH, xhat, inv, mean, var)
        elif mode == BN_FROZEN:
            if self.frozen_mean is None:
                raise RuntimeError("frozen statistics requested but none were captured")
            inv = 1.0 / np.sqrt(self.frozen_var + self.eps)
            xhat = x - self.frozen_mean
            xhat *= inv
            cache = (BN_FROZEN, xhat, inv)
        elif mode == BN_IDENTITY:
            xhat = x
            cache = (BN_IDENTITY, x, None)
        else:
            raise ValueError(f"unknown batchnorm mode {mode!r}")
        out = self.gamma * xhat
        out += self.beta
        return out, cache

    def backward(self, grad: np.ndarray, cache, g_gamma: np.ndarray, g_beta: np.ndarray):
        """Input gradient, written over ``grad``; writes the parameter
        gradients into ``g_gamma``, ``g_beta``."""
        mode, xhat, inv = cache[:3]
        # per-batch sums; the parameter gradients add them over the stack
        g_sum = _row_sums(grad)[..., None, :]
        gx_sum = np.einsum("...ij,...ij->...j", grad, xhat)[..., None, :]
        gx_sum.reshape(-1, self.dim).sum(axis=0, out=g_gamma)
        g_sum.reshape(-1, self.dim).sum(axis=0, out=g_beta)
        if mode == BN_BATCH:
            # mean and variance depend on every row of the batch: full
            # batch-coupled Jacobian, (gamma * inv / b) * (b * grad - g_sum -
            # xhat * gx_sum), evaluated in that order
            b = grad.shape[-2]
            grad *= b
            grad -= g_sum
            grad -= xhat * gx_sum
            grad *= self.gamma * inv / b
            return grad
        grad *= self.gamma
        if mode == BN_FROZEN:
            grad *= inv
        return grad


def relu_forward(x: np.ndarray):
    """Zero the non-positive entries of ``x`` in place; returns ``(x, mask)``."""
    mask = x > 0
    np.multiply(x, mask, out=x)
    return x, mask


def relu_backward(grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero ``grad`` in place where the forward input was not positive."""
    np.multiply(grad, mask, out=grad)
    return grad


class Adam:
    """Adam with bias correction: one elementwise step per gradient updates the
    flat parameter vector ``theta`` in place."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, theta: np.ndarray, learning_rate: float):
        self.theta = theta
        self.learning_rate = float(learning_rate)
        self.t = 0
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.theta.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {self.theta.shape}")
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        self.m *= self.BETA1
        self.m += (1.0 - self.BETA1) * grad
        self.v *= self.BETA2
        self.v += (1.0 - self.BETA2) * grad * grad
        self.theta -= self.learning_rate * (self.m / c1) / (np.sqrt(self.v / c2) + self.EPS)
