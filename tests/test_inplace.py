"""In-place layer passes: bit-exact against the out-of-place formulas, caller
arrays never written, and the memory a scoring or training call allocates."""

import tracemalloc

import numpy as np
import pytest

from batchad.model import HEADS, Architecture, DetectorModel
from batchad.nn import BN_MODES, BatchNorm, Linear, relu_backward, relu_forward

from helpers import reference_batchnorm, reference_linear, reference_relu

SHAPES = [pytest.param((7, 5), id="batch"), pytest.param((3, 7, 5), id="stack")]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    # array_equal calls -0.0 and 0.0 equal; the bytes do not
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLayersMatchOutOfPlaceFormulas:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_linear(self, shape):
        rng = np.random.default_rng(1)
        lin = Linear(5, 4, rng)
        lin.bias[...] = rng.normal(size=4)
        x = rng.normal(size=shape)
        grad = rng.normal(size=(*shape[:-1], 4))
        want = reference_linear(lin, x, grad)
        out, cache = lin.forward(x)
        g_weight, g_bias = np.zeros_like(lin.weight), np.zeros_like(lin.bias)
        g_x = lin.backward(grad, cache, g_weight, g_bias)
        for got, expected in zip((out, g_x, g_weight, g_bias), want):
            assert_same_bits(got, expected)

    @pytest.mark.parametrize("mode", BN_MODES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_batchnorm(self, shape, mode):
        rng = np.random.default_rng(2)
        bn = BatchNorm(5)
        bn.gamma[...] = rng.normal(1.0, 0.3, 5)
        bn.beta[...] = rng.normal(0.0, 0.3, 5)
        bn.frozen_mean = rng.normal(size=5)
        bn.frozen_var = rng.uniform(0.5, 2.0, 5)
        x = rng.normal(1.0, 2.0, shape)
        grad = rng.normal(size=shape)
        want = reference_batchnorm(bn, x, mode, grad)
        out, cache = bn.forward(x, mode)
        g_gamma, g_beta = np.zeros(5), np.zeros(5)
        g_x = bn.backward(grad.copy(), cache, g_gamma, g_beta)
        for got, expected in zip((out, g_x, g_gamma, g_beta), want):
            assert_same_bits(got, expected)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_relu(self, shape):
        rng = np.random.default_rng(3)
        x = rng.normal(size=shape)
        x.flat[::4] = 0.0
        grad = rng.normal(size=shape)
        want_out, want_g = reference_relu(x, grad)
        out, mask = relu_forward(x.copy())
        assert_same_bits(out, want_out)
        assert_same_bits(relu_backward(grad.copy(), mask), want_g)


def model_and_inputs(head: str, input_bn: bool, mode: str):
    """A small model scoring in ``mode`` (frozen statistics set) plus a scoring
    batch that is a view into a larger caller array, and a labeled stack."""
    rng = np.random.default_rng(4)
    arch = Architecture(input_dim=3, hidden=(6, 5), latent_dim=4, input_bn=input_bn)
    model = DetectorModel(arch, head=head, rng=rng, bn_mode=mode)
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


def test_bce_latent_precedes_the_last_relu():
    # the bce head's last normalization output feeds a ReLU, which works in
    # place; the latent must keep the negative half a batch-normalized column has
    model, holder, _x, _y = model_and_inputs("bce", False, "batch")
    assert (model.latent_batch(holder[0]) < 0).any()


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 2**20


class TestAllocationBudget:
    """Traced peak of one call on the headline network (8 -> 64 -> 64 -> 64
    -> 32, distance head). The out-of-place passes peaked at 9.4 MiB and
    3.06 MiB."""

    def setup_method(self):
        self.model = DetectorModel(Architecture(input_dim=8), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        self.x = rng.normal(size=(2048, 8))
        self.stack = rng.normal(size=(8, 60, 8))
        self.y = (rng.random((8, 60)) < 0.2).astype(float)
        # first calls may set up lazily allocated state outside the budget
        self.model.score_batch(self.x)
        self.model.loss_and_grads(self.stack, self.y)

    def test_score_batch_of_2048_rows(self):
        peak = traced_peak(lambda: self.model.score_batch(self.x))
        assert peak <= 5 * MIB, peak

    def test_loss_and_grads_of_an_8_task_stack(self):
        peak = traced_peak(lambda: self.model.loss_and_grads(self.stack, self.y))
        assert peak <= 2.9 * MIB, peak
