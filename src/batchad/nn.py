"""Dense neural-network substrate: linear layers, ReLU, batch normalization
with batch-computed statistics, reverse-mode gradients, and Adam.

All activations are float64 numpy arrays of shape ``(..., batch, features)``:
either one ``(batch, features)`` batch or a ``(tasks, batch, features)`` stack
of equally sized batches. Batch normalization takes its statistics per batch
along the row axis (``axis=-2``) and ``Linear`` multiplies per batch, forward
and backward, so each batch of a stack gets the bits it gets alone and no
product spans two batches; parameter gradients are summed per batch, then
over the stack in stack order.
Forward passes return an ``(output, cache)`` pair; the cache is call-local
and no forward or backward pass mutates a layer, so a trained model can score
concurrent batches. A layer names its parameter attributes in ``PARAMS``; its
backward pass returns the input gradient and writes the parameter gradients
into the arrays it is given (views of one flat gradient vector, in a model).

Ownership: to save full-size temporaries, passes work in place, but only on
arrays the caller hands over for that purpose. ``relu_forward`` zeroes its
input in place and returns it as both output and cache, which is sound
because the next ``Linear`` keeps that array as its own cache and never
writes it; ``BatchNorm.forward`` centers its input in place, keeps it as its
cache, and writes its output into ``out`` when given (the input itself, when
no backward pass follows); ``BatchNorm.backward`` and ``relu_backward``
overwrite the gradient they receive and return it, and a batch-mode
``BatchNorm.backward`` also overwrites the centered rows of its own cache,
which nothing reads after it (its mean and variance stay). ``Linear`` passes
never write their inputs. No pass writes a parameter, another layer's cache
or the frozen statistics, and no layer keeps a buffer between calls. A model
hands a batch norm only a ``Linear`` output made in the same call or its own
copy of the caller's input, a ReLU only the normalization output it just
made, and a backward pass only a gradient it just computed.
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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Column sums over the row axis (per batch of a stack), shape
    (..., features); a ones-vector product runs faster than ``sum(axis=-2)``."""
    return np.matmul(np.ones(a.shape[-2], dtype=DTYPE), a)


class Linear:
    """Bias-free map ``y = x @ W.T``, W of shape (out, in) drawn uniformly in
    +-sqrt(6 / (fan_in + fan_out)). The normalization layer after it absorbs
    a bias: its mean subtraction, or ``beta`` in identity mode. (The
    classifier head, which has none after its last layer, owns an offset.)
    """

    PARAMS = ("weight",)

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = rng.uniform(-limit, limit, size=(out_dim, in_dim)).astype(DTYPE)
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(self, x: np.ndarray):
        """Output and cache. A stack takes one product per batch, as in the
        backward pass: a BLAS may pick its kernel, and so its summation order,
        by the number of rows, and OpenBLAS splits a product of a few hundred
        rows over threads whose worker then spins for about 0.1 s.

        The right operand is a C-contiguous copy of ``W.T``, made per call.
        OpenBLAS (0.3.31) multiplies a transposed operand of a product of up
        to 128 rows on a small-matrix path 30-45% slower. The copy changes the
        last bits of products of few rows with a 64-wide input (2 to 18 rows
        for 64 outputs, 2 to 37 for 32), not of 60-row or larger ones."""
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"linear layer expects {self.in_dim} features, got {x.shape[-1]}")
        return np.matmul(x, np.ascontiguousarray(self.weight.T)), x

    def backward(self, grad: np.ndarray, cache, g_weight: np.ndarray):
        """Input gradient, one product per batch of a stack as in the forward
        pass; writes the weight gradient into ``g_weight``. A stack takes one
        weight product per batch, ``grad_t.T @ x_t``, summed in stack order as
        batch norm sums its parameter gradients."""
        per_batch = np.matmul(grad.swapaxes(-1, -2), cache)
        per_batch.reshape(-1, self.out_dim, self.in_dim).sum(axis=0, out=g_weight)
        return np.matmul(grad, self.weight)


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
      final parameters over the last task sampled in the final iteration;
      only the positions ``bn_mask`` leaves on get statistics.

    The forward pass centers the array it is handed in place and caches it;
    it writes the output into ``out`` when given, as a numpy ufunc does, else
    into a new array. A batch-mode cache carries the batch's mean and
    variance, which is where the trainer reads the frozen statistics from.
    """

    PARAMS = ("gamma", "beta")
    eps = 1e-5

    def __init__(self, dim: int):
        self.gamma = np.ones(dim, dtype=DTYPE)
        self.beta = np.zeros(dim, dtype=DTYPE)
        self.dim = dim
        # statistics used by the "frozen" mode
        self.frozen_mean = None
        self.frozen_var = None

    def forward(self, x: np.ndarray, mode: str = BN_BATCH, out: np.ndarray | None = None):
        if mode == BN_BATCH:
            b = x.shape[-2]
            if b < 2:
                raise BatchTooSmallError(f"batch statistics need at least 2 rows, got {b}")
            # one centering pass; the biased variance comes from the centered rows
            mean = _row_sums(x)[..., None, :] / b
            xc = np.subtract(x, mean, out=x)
            var = np.einsum("...ij,...ij->...j", xc, xc) / b
            inv = (1.0 / np.sqrt(var + self.eps))[..., None, :]
            cache = (BN_BATCH, xc, inv, mean, var)
        elif mode == BN_FROZEN:
            if self.frozen_mean is None:
                raise RuntimeError("frozen statistics requested but none were captured")
            xc = np.subtract(x, self.frozen_mean, out=x)
            inv = 1.0 / np.sqrt(self.frozen_var + self.eps)
            cache = (mode, xc, inv)
        elif mode == BN_IDENTITY:  # no normalization: the scale is gamma alone
            xc, inv = x, 1.0
            cache = (mode, xc, inv)
        else:
            raise ValueError(f"unknown batchnorm mode {mode!r}")
        # one per-feature scale; the normalized rows xhat = xc * inv are never formed
        out = np.multiply(xc, self.gamma * inv, out=out)
        out += self.beta
        return out, cache

    def backward(self, grad: np.ndarray, cache, g_gamma: np.ndarray, g_beta: np.ndarray):
        """Input gradient, written over ``grad``; writes the parameter
        gradients into ``g_gamma``, ``g_beta``.

        Every mode scales ``grad`` by ``scale = gamma * inv``. In batch mode,
        where every row moves the mean and variance, the full Jacobian then
        subtracts two per-batch coefficient rows, ``c = scale * g_sum / b`` and
        ``xc * k`` with ``k = scale * inv * gx_sum / b``; ``xc * k`` is written
        over the centered rows of this call's cache."""
        mode, xc, inv = cache[:3]
        # per-batch sums of grad and of grad * xhat; the parameter gradients
        # add them over the stack
        g_sum = _row_sums(grad)[..., None, :]
        gx_sum = np.einsum("...ij,...ij->...j", grad, xc)[..., None, :] * inv
        gx_sum.reshape(-1, self.dim).sum(axis=0, out=g_gamma)
        g_sum.reshape(-1, self.dim).sum(axis=0, out=g_beta)
        scale = self.gamma * inv
        grad *= scale
        if mode == BN_BATCH:
            b = grad.shape[-2]
            grad -= scale * g_sum / b
            grad -= np.multiply(xc, scale * inv * gx_sum / b, out=xc)
        return grad


def relu_forward(x: np.ndarray):
    """Zero the non-positive entries of ``x`` in place, in one pass and
    without a mask; returns ``(x, x)``: the output is the cache."""
    np.maximum(x, 0.0, out=x)
    return x, x


def relu_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Zero ``grad`` in place where the forward output ``out`` is not
    positive, as ``grad * (out > 0)`` does."""
    np.multiply(grad, out > 0, out=grad)
    return grad


class Adam:
    """Adam with bias correction: one elementwise step per gradient updates the
    flat parameter vector ``theta`` in place, through two scratch vectors made
    per call."""

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
        # the operations of the out-of-place update, in its order: the same bits
        step = np.multiply(grad, 1.0 - self.BETA1)
        self.m *= self.BETA1
        self.m += step
        np.multiply(grad, 1.0 - self.BETA2, out=step)
        self.v *= self.BETA2
        self.v += np.multiply(step, grad, out=step)
        np.multiply(np.divide(self.m, c1, out=step), self.learning_rate, out=step)
        denom = np.divide(self.v, c2)
        np.sqrt(denom, out=denom)
        denom += self.EPS
        self.theta -= np.divide(step, denom, out=step)
