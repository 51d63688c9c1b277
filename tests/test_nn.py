"""Layer-level contracts: forward values, gradients, normalization behavior."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from batchad.errors import BatchTooSmallError
from batchad.model import Architecture, DetectorModel, _manifest
from batchad.nn import Adam, BatchNorm, Linear, relu_backward, relu_forward
from batchad.scores import dsvdd_scores

from helpers import REL_TOL, assert_same_bits, max_rel_error, numeric_grad, smooth_random_instance


# one (tasks, batch, features) case next to the (batch, features) seeds
STACKED_TASKS = 3


def seeds_and_stack(n: int):
    """``n`` seeds on a (batch, features) batch, plus one seed on a stack."""
    return [pytest.param(s, None, id=str(s)) for s in range(n)] + [
        pytest.param(n, STACKED_TASKS, id="stacked")
    ]


def backward(layer, grad, cache):
    """A standalone layer's backward pass: (input gradient, parameter
    gradients by attribute name)."""
    grads = {p: np.zeros_like(getattr(layer, p)) for p in layer.PARAMS}
    return layer.backward(grad, cache, *grads.values()), grads


def make_linear(weight):
    lin = Linear(len(weight[0]), len(weight), np.random.default_rng(0))
    lin.weight[...] = weight
    return lin


class TestLinearForward:
    def test_identity_weight(self):
        lin = make_linear(np.eye(2))
        out, _ = lin.forward(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[3.0, 4.0]])

    def test_hand_product(self):
        lin = make_linear(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out, _ = lin.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[3.0, 7.0]])

    def test_dimension_error(self):
        lin = make_linear(np.eye(2))
        with pytest.raises(ValueError):
            lin.forward(np.ones((3, 5)))


class TestBatchNormForward:
    def test_zero_variance_batch_outputs_beta(self):
        bn = BatchNorm(1)
        bn.beta[...] = 0.5
        out, _ = bn.forward(np.array([[1.0], [1.0], [1.0]]))
        np.testing.assert_allclose(out, 0.5 * np.ones((3, 1)), atol=1e-3)

    def test_symmetric_two_point_batch(self):
        bn = BatchNorm(1)
        bn.gamma[...] = 2.0
        out, _ = bn.forward(np.array([[-1.0], [1.0]]))
        np.testing.assert_allclose(out, [[-2.0], [2.0]], atol=1e-4)

    def test_three_point_column(self):
        bn = BatchNorm(1)
        bn.eps = 1e-12
        out, _ = bn.forward(np.array([[0.0], [1.0], [2.0]]))
        np.testing.assert_allclose(out.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_batch_too_small(self):
        bn = BatchNorm(2)
        with pytest.raises(BatchTooSmallError):
            bn.forward(np.ones((1, 2)))

    def test_identity_mode_is_affine(self):
        bn = BatchNorm(2)
        bn.gamma[...] = (2.0, 3.0)
        bn.beta[...] = (1.0, -1.0)
        x = np.arange(6.0).reshape(3, 2)
        out, _ = bn.forward(x, mode="identity")
        np.testing.assert_allclose(out, x * [2.0, 3.0] + [1.0, -1.0])

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm(5)
        x = rng.normal(2.0, 3.0, (64, 5))
        out, _ = bn.forward(x)
        assert np.abs(out.mean(axis=0)).max() <= 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() <= 1e-4

    def test_shift_scale_equivariance(self):
        # the adaptation mechanism: an affine change of the inputs is absorbed
        # by the batch statistics (exact up to the eps term, negligible for
        # batch variance well above eps)
        rng = np.random.default_rng(4)
        bn = BatchNorm(4)
        x = rng.normal(0.0, 2.0, (32, 4))
        base, _ = bn.forward(x)
        for a, b in [(1.0, 5.0), (3.0, -2.0), (8.0, 100.0)]:
            out, _ = bn.forward(a * x + b)
            np.testing.assert_allclose(out, base, atol=1e-5)

    def test_frozen_mode_uses_recorded_stats(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm(3)
        x = rng.normal(0.0, 1.0, (16, 3))
        # a batch-mode cache ends with the batch's mean and variance
        *_, mean, var = bn.forward(x)[1]
        bn.frozen_mean, bn.frozen_var = mean[0], var
        shifted = rng.normal(10.0, 1.0, (16, 3))
        out, _ = bn.forward(shifted, mode="frozen")
        # statistics come from x, so the shifted batch is NOT recentered
        assert out.mean() > 5.0


class TestReLU:
    def test_inactive_unit_blocks_gradient(self):
        out, mask = relu_forward(np.array([[-1.0]]))
        assert out[0, 0] == 0.0
        assert relu_backward(np.array([[1.0]]), mask)[0, 0] == 0.0

    def test_identity_on_positive(self):
        x = np.array([[0.5, 2.0]])
        # relu_forward zeroes its input in place, so compare with a copy
        out, mask = relu_forward(x.copy())
        np.testing.assert_allclose(out, x)
        g = np.array([[3.0, -4.0]])
        np.testing.assert_allclose(relu_backward(g.copy(), mask), g)


class TestBackwardGradients:
    def loss_through(self, forward, proj):
        out = forward()
        return float((out * proj).sum())

    def test_linear_identity_passes_grad(self):
        lin = make_linear(np.eye(3))
        _, cache = lin.forward(np.ones((2, 3)))
        g = np.arange(6.0).reshape(2, 3)
        gx, _ = backward(lin, g, cache)
        np.testing.assert_allclose(gx, g)

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        lin = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        proj = rng.normal(size=(5, 3))

        def loss():
            return float((lin.forward(x)[0] * proj).sum())

        out, cache = lin.forward(x)
        gx, grads = backward(lin, proj, cache)
        n_w, n_x = numeric_grad(loss, [lin.weight, x])
        assert max_rel_error(grads["weight"], n_w) <= REL_TOL
        assert max_rel_error(gx, n_x) <= REL_TOL

    @pytest.mark.parametrize("seed, tasks", seeds_and_stack(6))
    def test_batchnorm_matches_finite_differences(self, seed, tasks):
        # the batch-coupled Jacobian: mean and variance depend on every row
        # of the batch (of each batch, for a stack)
        rng = np.random.default_rng(100 + seed)
        bn = BatchNorm(3)
        bn.gamma[...] = rng.normal(1.0, 0.2, 3)
        bn.beta[...] = rng.normal(0.0, 0.2, 3)
        shape = (6, 3) if tasks is None else (tasks, 6, 3)
        x = rng.normal(size=shape)
        proj = rng.normal(size=shape)

        # forward centers the rows it is handed and backward overwrites the
        # gradient it receives; the loss re-reads x and proj
        def loss():
            return float((bn.forward(x.copy())[0] * proj).sum())

        _, cache = bn.forward(x.copy())
        gx, grads = backward(bn, proj.copy(), cache)
        n_g, n_b, n_x = numeric_grad(loss, [bn.gamma, bn.beta, x])
        assert max_rel_error(grads["gamma"], n_g) <= REL_TOL
        assert max_rel_error(grads["beta"], n_b) <= REL_TOL
        assert max_rel_error(gx, n_x) <= REL_TOL

    def test_backward_without_forward_is_an_error(self):
        bn = BatchNorm(2)
        with pytest.raises(RuntimeError):
            bn.forward(np.ones((4, 2)), mode="frozen")


class TestFullNetworkGradients:
    @pytest.mark.parametrize("seed, tasks", seeds_and_stack(8))
    def test_dsvdd_meta_oe(self, seed, tasks):
        model, x, y = smooth_random_instance(seed, tasks=tasks)
        grads = model.views(model.loss_and_grads(x, y)[1])

        params = model.params()

        def loss():
            return model.loss_and_grads(x, y)[0]

        numeric = numeric_grad(loss, list(params.values()))
        for (name, _), n in zip(params.items(), numeric):
            assert max_rel_error(grads[name], n) <= REL_TOL, name

    @pytest.mark.parametrize("seed, tasks", seeds_and_stack(4))
    def test_bce_meta_oe(self, seed, tasks):
        model, x, y = smooth_random_instance(seed + 50, head="bce", tasks=tasks)
        grads = model.views(model.loss_and_grads(x, y)[1])
        params = model.params()

        def loss():
            return model.loss_and_grads(x, y)[0]

        numeric = numeric_grad(loss, list(params.values()))
        for (name, _), n in zip(params.items(), numeric):
            assert max_rel_error(grads[name], n) <= REL_TOL, name

    @pytest.mark.parametrize("seed", range(4))
    def test_one_class_and_identity_mode(self, seed):
        mode = "identity" if seed % 2 else "batch"
        model, x, y = smooth_random_instance(seed + 90, mode=mode)
        loss, grad_theta = model.loss_and_grads(x, y, loss_kind="one_class", mode=mode)
        # the one-class objective is the mean of s, whatever the labels say
        out, _latent = model.forward(x, mode)
        assert loss == np.mean(dsvdd_scores(out, model.center, model.arch.inverse_eps).s)
        grads = model.views(grad_theta)
        params = model.params()

        def loss():
            return model.loss_and_grads(x, y, loss_kind="one_class", mode=mode)[0]

        numeric = numeric_grad(loss, list(params.values()))
        for (name, _), n in zip(params.items(), numeric):
            assert max_rel_error(grads[name], n) <= REL_TOL, name


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        theta = np.array([1.0, -2.0])
        opt = Adam(theta, learning_rate=0.1)
        opt.step(np.zeros(2))
        np.testing.assert_allclose(theta, [1.0, -2.0])

    def test_constant_gradient_descends(self):
        theta = np.array([0.0])
        opt = Adam(theta, learning_rate=0.01)
        for _ in range(50):
            opt.step(np.array([2.5]))
        assert theta[0] < 0.0

    def test_first_step_magnitude(self):
        # bias-corrected first step with g=1 moves by almost exactly -lr
        theta = np.array([0.0])
        opt = Adam(theta, learning_rate=0.1)
        opt.step(np.array([1.0]))
        np.testing.assert_allclose(theta[0], -0.1, atol=1e-8)

    def test_shape_mismatch(self):
        theta = np.zeros(3)
        opt = Adam(theta, learning_rate=0.1)
        with pytest.raises(ValueError):
            opt.step(np.zeros(4))

    def test_steps_give_the_bits_of_the_out_of_place_formula(self):
        rng = np.random.default_rng(9)
        theta = rng.normal(size=50)
        opt = Adam(theta, learning_rate=0.01)
        want, m, v = theta.copy(), np.zeros(50), np.zeros(50)
        for t in range(1, 21):
            grad = rng.normal(size=50)
            opt.step(grad)
            m = Adam.BETA1 * m + (1.0 - Adam.BETA1) * grad
            v = Adam.BETA2 * v + (1.0 - Adam.BETA2) * grad * grad
            c1, c2 = 1.0 - Adam.BETA1**t, 1.0 - Adam.BETA2**t
            want = want - 0.01 * (m / c1) / (np.sqrt(v / c2) + Adam.EPS)
            for got, expected in ((theta, want), (opt.m, m), (opt.v, v)):
                assert_same_bits(got, expected)


class TestParameterLayout:
    @pytest.mark.parametrize(
        "head, input_bn", [("dsvdd", False), ("bce", False), ("dsvdd", True)]
    )
    def test_params_are_views_of_theta_in_manifest_order(self, head, input_bn):
        arch = Architecture(input_dim=3, hidden=(6, 5), latent_dim=4, input_bn=input_bn, head=head)
        model = DetectorModel(arch)
        params = model.params()
        for name, arr in params.items():
            assert np.shares_memory(arr, model.theta), name
        assert [[name, list(shape)] for name, *_span, shape in model.layout] == _manifest(model)[0]
        assert list(params) == [name for name, *_rest in model.layout]
        # the layout tiles theta without gaps, and every layer attribute is its view
        assert [start for _n, start, _stop, _s in model.layout] == [
            0, *(stop for _n, _start, stop, _s in model.layout[:-1])
        ]
        assert model.layout[-1][2] == model.theta.size == arch.n_params()
        layers = {name: layer for name, _kind, layer in model.blocks}
        for name, arr in params.items():
            block, _, attr = name.rpartition(".")
            owner = layers[block] if block else model
            assert np.shares_memory(getattr(owner, attr), arr), name

    def test_initial_values_follow_the_layer_draws(self):
        # binding the views keeps the RNG order: the first linear layer's
        # weights are the first draws of the model's generator
        arch = Architecture(input_dim=3, hidden=(6, 5), latent_dim=4)
        model = DetectorModel(arch, rng=np.random.default_rng(7))
        lin0 = Linear(3, 6, np.random.default_rng(7))
        assert np.array_equal(model.params()["lin0.weight"], lin0.weight)

    def test_gradient_views_name_the_same_slices(self):
        model, x, y = smooth_random_instance(3)
        _, grad = model.loss_and_grads(x, y)
        assert grad.shape == model.theta.shape
        views = model.views(grad)
        assert list(views) == list(model.params())
        for name, start, stop, shape in model.layout:
            assert views[name].shape == shape
            assert np.array_equal(views[name].ravel(), grad[start:stop])


class TestArchitecture:
    """``Architecture`` is the only validator of a model's settings."""

    SHAPE = dict(input_dim=3, hidden=(6, 5), latent_dim=4)

    EPS = "inverse_eps must be positive and finite, got "

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("head", "x", ValueError, "unknown head 'x'"),
            ("bn_mode", "x", ValueError, "unknown bn_mode 'x'"),
            ("bn_mask", (2, 1, 1), ValueError, "bn_mask entries must be 0 or 1, got [2, 1, 1]"),
            ("bn_mask", ("0", 1, 1), ValueError,
             "bn_mask must be a list of ints or None, got ('0', 1, 1)"),
            ("bn_mask", (1, 1), ValueError, "bn_mask must have 3 entries, got 2"),
            ("bn_mask", (1, 1, 1, 1), ValueError, "bn_mask must have 3 entries, got 4"),
            ("bn_mask", 5, TypeError, "bn_mask must be a list of ints or None, got 5"),
            ("inverse_eps", 0.0, ValueError, EPS + "0.0"),
            ("inverse_eps", -1e-6, ValueError, EPS + "-1e-06"),
            ("inverse_eps", math.nan, ValueError, "inverse_eps must be finite, got nan"),
            ("inverse_eps", math.inf, ValueError, "inverse_eps must be finite, got inf"),
            ("inverse_eps", "1e-6", ValueError, "inverse_eps must be a float, got '1e-6'"),
            ("inverse_eps", True, ValueError, "inverse_eps must be a float, got True"),
            ("center_frozen", 0, TypeError, "center_frozen must be a bool, got 0"),
            ("center_frozen", "no", TypeError, "center_frozen must be a bool, got 'no'"),
            ("input_dim", 0, ValueError, "input_dim must be at least 1, got 0"),
            ("latent_dim", 0, ValueError, "latent_dim must be at least 1, got 0"),
            ("hidden", (6, 0), ValueError, "hidden must be at least 1, got (6, 0)"),
            ("input_dim", True, TypeError, "input_dim must be an int, got True"),
            ("latent_dim", 4.0, TypeError, "latent_dim must be an int, got 4.0"),
            ("hidden", (6, True), TypeError, "hidden must be a list of ints, got (6, True)"),
            ("hidden", 8, TypeError, "hidden must be a list of ints, got 8"),
            ("input_bn", "yes", TypeError, "input_bn must be a bool, got 'yes'"),
            ("input_bn", 1, TypeError, "input_bn must be a bool, got 1"),
        ],
        ids=str,
    )
    def test_rejects_a_bad_setting_naming_it(self, field, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Architecture(**{**self.SHAPE, field: value})

    def test_replacing_the_head_keeps_an_unset_mask_unset(self):
        arch = replace(Architecture(**self.SHAPE), head="bce")
        assert arch.bn_mask is None and arch.bn_on() == (True, True)
        model = DetectorModel(arch)
        assert model.layout[-1][0] == "offset" and model.theta.size == arch.n_params()

    def test_lists_are_kept_as_tuples_of_the_given_entries(self):
        arch = Architecture(3, hidden=[6, 5], latent_dim=4, bn_mask=[1, 0, 1])
        assert arch == Architecture(**self.SHAPE, bn_mask=(1, 0, 1))
        assert arch.bn_on() == (True, False, True)


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            model = DetectorModel(Architecture(input_dim=4, hidden=(8, 8), latent_dim=4), rng=rng)
            x = np.random.default_rng(1).normal(size=(6, 4))
            sv = model.score_batch(x)
            outs.append(sv.s.copy())
        assert np.array_equal(outs[0], outs[1])
