"""In-place layer passes: bit-exact against the out-of-place formulas, caller
arrays never written, and the memory a scoring or training call allocates."""

import numpy as np
import pytest

from batchad.model import HEADS, STACK_ROWS, Architecture, DetectorModel
from batchad.nn import BN_MODES, Adam, BatchNorm, Linear, relu_backward, relu_forward

from helpers import (
    MIB,
    assert_same_bits,
    reference_batchnorm,
    reference_linear,
    reference_relu,
    traced_peak,
)

SHAPES = [pytest.param((7, 5), id="batch"), pytest.param((3, 7, 5), id="stack")]


class TestLayersMatchOutOfPlaceFormulas:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_linear(self, shape):
        rng = np.random.default_rng(1)
        lin = Linear(5, 4, rng)
        x = rng.normal(size=shape)
        grad = rng.normal(size=(*shape[:-1], 4))
        want = reference_linear(lin, x, grad)
        out, cache = lin.forward(x)
        g_weight = np.zeros_like(lin.weight)
        g_x = lin.backward(grad, cache, g_weight)
        for got, expected in zip((out, g_x, g_weight), want):
            assert_same_bits(got, expected)

    @staticmethod
    def batchnorm_and_inputs(shape):
        rng = np.random.default_rng(2)
        bn = BatchNorm(5)
        bn.gamma[...] = rng.normal(1.0, 0.3, 5)
        bn.beta[...] = rng.normal(0.0, 0.3, 5)
        bn.frozen_mean = rng.normal(size=5)
        bn.frozen_var = rng.uniform(0.5, 2.0, 5)
        return bn, rng.normal(1.0, 2.0, shape), rng.normal(size=shape)

    @pytest.mark.parametrize("mode", BN_MODES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_batchnorm(self, shape, mode):
        bn, x, grad = self.batchnorm_and_inputs(shape)
        want = reference_batchnorm(bn, x, mode, grad)
        out, cache = bn.forward(x, mode)
        g_gamma, g_beta = np.zeros(5), np.zeros(5)
        g_x = bn.backward(grad.copy(), cache, g_gamma, g_beta)
        for got, expected in zip((out, g_x, g_gamma, g_beta), want):
            assert_same_bits(got, expected)

    @pytest.mark.parametrize("mode", BN_MODES)
    def test_batchnorm_into_its_input(self, mode):
        # the tape-free scoring forward hands a batch norm its input as ``out``
        bn, x, grad = self.batchnorm_and_inputs((7, 5))
        want = reference_batchnorm(bn, x, mode, grad)[0]
        out, _cache = bn.forward(x, mode, out=x)
        assert out is x
        assert_same_bits(out, want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_relu(self, shape):
        rng = np.random.default_rng(3)
        x = rng.normal(size=shape)
        x.flat[::4] = 0.0
        grad = rng.normal(size=shape)
        want_out, want_g = reference_relu(x, grad)
        out, cache = relu_forward(x.copy())
        assert cache is out
        assert_same_bits(out, want_out)
        assert_same_bits(relu_backward(grad.copy(), cache), want_g)


def model_and_inputs(head: str, input_bn: bool, mode: str):
    """A small model scoring in ``mode`` (frozen statistics set) plus a scoring
    batch that is a view into a larger caller array, and a labeled stack."""
    rng = np.random.default_rng(4)
    arch = Architecture(
        input_dim=3, hidden=(6, 5), latent_dim=4, input_bn=input_bn, head=head, bn_mode=mode
    )
    model = DetectorModel(arch, rng)
    model.theta += rng.normal(0.0, 0.2, model.theta.shape)
    model.freeze_batch_stats(rng.normal(size=(9, 3)))
    holder = rng.normal(size=(2, 9, 3))
    x = rng.normal(size=(4, 9, 3))
    y = (rng.random((4, 9)) < 0.3).astype(float)
    return model, holder, x, y


def frozen_stats(model) -> list[bytes]:
    return [
        getattr(layer, f).tobytes()
        for _name, layer in model.active_norms()
        for f in ("frozen_mean", "frozen_var")
    ]


@pytest.mark.parametrize("mode", BN_MODES)
@pytest.mark.parametrize("input_bn", [False, True], ids=["plain", "input_bn"])
@pytest.mark.parametrize("head", HEADS)
def test_public_entry_points_never_write_caller_arrays(head, input_bn, mode):
    model, holder, x, y = model_and_inputs(head, input_bn, mode)
    before = (holder.tobytes(), x.tobytes(), y.tobytes())
    theta, stats = model.theta.tobytes(), frozen_stats(model)

    model.score_batch(holder[1])
    model.latent_batch(holder[1])
    model.score_batch(holder)
    model.latent_batch(holder)
    assert (holder.tobytes(), model.theta.tobytes(), frozen_stats(model)) == (
        before[0], theta, stats
    )
    model.loss_and_grads(x, y, mode=mode)
    assert (x.tobytes(), y.tobytes(), model.theta.tobytes()) == (before[1], before[2], theta)
    model.freeze_batch_stats(holder[0])
    assert holder.tobytes() == before[0]


@pytest.mark.parametrize("head", HEADS)
def test_forward_without_a_tape_gives_the_taped_values(head):
    model, holder, _x, _y = model_and_inputs(head, True, "batch")
    tape = []
    taped = model.forward(holder[0], tape=tape)
    assert len(tape) == len(model.blocks)
    for got, want in zip(model.forward(holder[0]), taped):
        assert_same_bits(got, want)


@pytest.mark.parametrize("batch", [2, 3, 6, 17, 60])
@pytest.mark.parametrize("head", HEADS)
def test_taped_stack_forward_gives_each_batch_its_own_bits(head, batch):
    # a BLAS may pick its kernel, and so the bits of a row, by the row count
    # of a product: a training stack must not be multiplied as one product
    model = DetectorModel(Architecture(input_dim=8, head=head), np.random.default_rng(5))
    model.theta += np.random.default_rng(6).normal(0.0, 0.1, model.theta.shape)
    x = np.random.default_rng(7).normal(size=(5, batch, 8))
    stacked = model.forward(x, tape=[])
    for t in range(len(x)):
        for got, want in zip(stacked, model.forward(x[t], tape=[])):
            assert_same_bits(got[t], want)


@pytest.mark.parametrize("batch", [6, 60])
@pytest.mark.parametrize("tasks", [2, 8])
def test_stacked_linear_backward_sums_each_batch_own_products(tasks, batch):
    # a product over every row of the stack would let the BLAS pick other
    # kernels, or split it over threads; per batch, no product spans batches
    rng = np.random.default_rng(8)
    lin = Linear(64, 32, rng)
    x = rng.normal(size=(tasks, batch, 64))
    grad = rng.normal(size=(tasks, batch, 32))
    g_weight = np.zeros_like(lin.weight)
    g_x = lin.backward(grad, x, g_weight)
    summed = np.zeros_like(lin.weight)
    for t in range(tasks):
        own = np.zeros_like(lin.weight)
        assert_same_bits(g_x[t], lin.backward(grad[t], x[t], own))
        summed = own if t == 0 else summed + own
    assert_same_bits(g_weight, summed)


def test_bce_latent_precedes_the_last_relu():
    # the bce head's last normalization output feeds a ReLU, which works in
    # place; the latent must keep the negative half a batch-normalized column has
    model, holder, _x, _y = model_and_inputs("bce", False, "batch")
    assert (model.latent_batch(holder[0]) < 0).any()


class TestAllocationBudget:
    """Traced peak of one call on the headline network (8 -> 64 -> 64 -> 64
    -> 32, distance head). The out-of-place passes peaked at 9.4 MiB and
    3.06 MiB; with a fresh centered array and output per batch norm,
    scoring 2048 rows peaked at 4.07 MiB."""

    def setup_method(self):
        self.model = DetectorModel(Architecture(input_dim=8), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        self.x = rng.normal(size=(2048, 8))
        self.cells = rng.normal(size=(400, 60, 8))
        self.stack = rng.normal(size=(8, 60, 8))
        self.y = (rng.random((8, 60)) < 0.2).astype(float)
        # first calls may set up lazily allocated state outside the budget
        self.model.score_batch(self.x)
        self.model.loss_and_grads(self.stack, self.y)

    def test_score_batch_of_2048_rows(self):
        # batch norm writes in place, so a scoring forward allocates one
        # activation per Linear (1 MiB at 64 wide) and none per batch norm
        peak = traced_peak(lambda: self.model.score_batch(self.x))
        assert peak <= 2.5 * MIB, peak

    def test_score_batch_of_a_400_batch_stack(self):
        # the stack is scored in chunks of STACK_ROWS // 60 whole batches.
        # Budget: three 64-wide activations of one chunk, the rate the
        # 2048-row budget allows one batch, plus s and a of all 24,000 rows,
        # held twice while the chunks' scores are joined. One activation of
        # the stack scored unchunked would take 11.7 MiB on its own
        chunk_rows = STACK_ROWS // 60 * 60
        budget = 3 * chunk_rows * 64 * 8 + 2 * 2 * self.cells[..., 0].size * 8
        peak = traced_peak(lambda: self.model.score_batch(self.cells))
        assert peak <= budget, (peak, budget)

    def test_relu_allocates_no_mask(self):
        # a bool mask of (2048, 64) activations would take 128 KiB
        x = np.random.default_rng(2).normal(size=(2048, 64))
        peak = traced_peak(lambda: relu_forward(x))
        assert peak <= 1024, peak

    def test_loss_and_grads_of_an_8_task_stack(self):
        peak = traced_peak(lambda: self.model.loss_and_grads(self.stack, self.y))
        assert peak <= 2.9 * MIB, peak

    def test_adam_step_holds_two_theta_sized_scratch_vectors(self):
        # the headline network has 11,232 parameters (89,856 bytes); the
        # out-of-place update held three temporaries of that size at once
        theta = self.model.theta
        assert theta.size == 11_232
        opt = Adam(theta, learning_rate=1e-3)
        grad = np.random.default_rng(3).normal(size=theta.shape)
        opt.step(grad)
        peak = traced_peak(lambda: opt.step(grad))
        assert peak <= 2 * theta.nbytes + 1024, peak
