"""Kernel, gradient and Adam tests against hand-computed and finite-difference oracles."""

import numpy as np
import pytest

from evdetect.data import WindowBatch
from evdetect.model import ModelDims, ModelParams
from evdetect.nn import (
    AdamState,
    Hyper,
    adam_step,
    grad_check,
    layer_norm,
    linear_forward,
    softmax_rows,
)
from evdetect.training import reconstruction_loss, reconstruction_loss_t

TINY = ModelDims(C=4, hidden=4, heads=2, lm=2, gm=4, e0=3, e1=2)


class TestLinearForward:
    def test_identity_weights(self):
        y = linear_forward([[1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        np.testing.assert_array_equal(y, [[1.0, 2.0]])

    def test_hand_arithmetic(self):
        y = linear_forward([[1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        np.testing.assert_allclose(y, [[4.0, 4.0]])

    def test_zero_input_returns_bias(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(2, 2))
        y = linear_forward([[0.0, 0.0]], w, [3.0, 5.0])
        np.testing.assert_allclose(y, [[3.0, 5.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_forward([[1.0, 2.0, 3.0]], [[1.0], [1.0]], [0.0])
        with pytest.raises(ValueError):
            linear_forward([[1.0, 2.0]], [[1.0], [1.0]], [0.0, 0.0])

    def test_affine_in_x(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        x1 = rng.normal(size=(5, 4))
        x2 = rng.normal(size=(5, 4))
        lhs = linear_forward(x1 + x2, w, b)
        rhs = linear_forward(x1, w, b) + linear_forward(x2, w, b) - b
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSoftmax:
    def test_single_element(self):
        np.testing.assert_allclose(softmax_rows(np.array([3.7])), [1.0])

    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_hand_computed(self):
        # e^1/(e^1+e^2) = 0.26894, e^2/(e^1+e^2) = 0.73106
        np.testing.assert_allclose(softmax_rows(np.array([1.0, 2.0])), [0.26894, 0.73106], atol=1e-5)

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(scale=10.0, size=rng.integers(1, 12))
            s = softmax_rows(v)
            assert abs(s.sum() - 1.0) < 1e-9
            assert np.all(s > 0)
            perm = rng.permutation(v.size)
            np.testing.assert_allclose(softmax_rows(v[perm]), s[perm], rtol=1e-12)

    def test_large_values_stable(self):
        s = softmax_rows(np.array([1000.0, 1001.0]))
        assert np.all(np.isfinite(s))
        assert abs(s.sum() - 1.0) < 1e-9


class TestLayerNorm:
    def test_constant_row(self):
        y = layer_norm(np.array([[1.0, 1.0, 1.0]]), np.ones(3), np.zeros(3), eps=1e-8)
        np.testing.assert_allclose(y, [[0.0, 0.0, 0.0]], atol=1e-12)

    def test_already_normalized_row(self):
        # population variance of [-1, 1] is exactly 1
        y = layer_norm(np.array([[-1.0, 1.0]]), np.ones(2), np.zeros(2), eps=1e-12)
        np.testing.assert_allclose(y, [[-1.0, 1.0]], atol=1e-6)

    def test_zero_gain_gives_bias(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        bias = rng.normal(size=6)
        y = layer_norm(x, np.zeros(6), bias)
        np.testing.assert_allclose(y, np.broadcast_to(bias, (4, 6)))

    def test_rows_standardized(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=3.0, scale=7.0, size=(10, 16))
        y = layer_norm(x, np.ones(16), np.zeros(16), eps=1e-12)
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-6)


class TestAdam:
    def test_zero_grad_zero_decay_is_identity(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [p.copy() for p in params]
        state = AdamState.for_params(params)
        hyper = Hyper(learning_rate=0.1, weight_decay=0.0)
        adam_step(params, [np.zeros_like(p) for p in params], state, hyper)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p, b)
        assert state.t == 1

    def test_degenerates_to_sign_sgd(self):
        # beta1=beta2=0, eps=0: update is lr * sign(g)
        params = [np.array([1.0])]
        state = AdamState.for_params(params)
        hyper = Hyper(learning_rate=0.1, weight_decay=0.0, beta1=0.0, beta2=0.0, epsilon=0.0)
        adam_step(params, [np.array([1.0])], state, hyper)
        np.testing.assert_allclose(params[0], [0.9])

    def test_defaults_match_model_card(self):
        hyper = Hyper()
        assert hyper.learning_rate == 7e-5
        assert hyper.weight_decay == 5e-5
        assert hyper.beta1 == 0.9

    def test_nonfinite_gradient_rejected(self):
        params = [np.array([1.0])]
        state = AdamState.for_params(params)
        with pytest.raises(FloatingPointError):
            adam_step(params, [np.array([np.nan])], state, Hyper())
        np.testing.assert_array_equal(params[0], [1.0])
        assert state.t == 0

    def test_decoupled_weight_decay(self):
        # zero gradient: the only movement is -lr*wd*p
        params = [np.array([2.0])]
        state = AdamState.for_params(params)
        adam_step(params, [np.array([0.0])], state, Hyper(learning_rate=0.5, weight_decay=0.1))
        np.testing.assert_allclose(params[0], [2.0 - 0.5 * 0.1 * 2.0])

    def test_bad_hyper_rejected(self):
        with pytest.raises(ValueError):
            Hyper(learning_rate=0.0)
        for field in ("learning_rate", "weight_decay", "epsilon"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
                    Hyper(**{field: value})
        with pytest.raises(ValueError, match="epsilon must be a finite number >= 0, got -1e-08"):
            Hyper(epsilon=-1e-8)
        assert Hyper(epsilon=0.0).epsilon == 0.0
        with pytest.raises(ValueError):
            Hyper(beta1=1.0)
        for batch_size in (0, -4):
            with pytest.raises(ValueError, match="batch_size must be >= 1"):
                Hyper(batch_size=batch_size)
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            Hyper(epochs=-1)
        assert Hyper(batch_size=1, epochs=0).epochs == 0
        for field in ("batch_size", "epochs"):
            for value in (2.5, 3.0):
                with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
                    Hyper(**{field: value})


def _model_gradient(batch, params):
    params.zero_grad()
    reconstruction_loss_t(batch, params).backward()
    return params.grad.copy()


class TestGradCheck:
    def test_square_at_three(self):
        x = np.array([3.0])
        err = grad_check(lambda: float(np.mean(x * x)), x, np.array([6.0]), delta=1e-4)
        assert err < 1e-8

    def test_linear_net_mse(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=3 * 2 + 2)  # w (3, 2), then b (2,)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))

        def diff():
            return x @ theta[:6].reshape(3, 2) + theta[6:] - target

        def loss():
            return float(np.mean(diff() ** 2))

        d = 2.0 * diff() / diff().size
        grad = np.concatenate([(x.T @ d).ravel(), d.sum(axis=0)])
        assert grad_check(loss, theta, grad, delta=1e-4) < 1e-6

    def test_dead_softmax_path(self):
        # all mass on one token: gradients are tiny but must still match FD
        logits = np.array([30.0, 0.0, -5.0])
        v = np.array([1.0, 2.0, 3.0])
        s = softmax_rows(logits)
        grad = s * (v - s @ v)
        assert grad_check(lambda: float(softmax_rows(logits) @ v), logits, grad, delta=1e-4) < 1e-4

    def test_every_op_composed(self):
        # the whole model at dims where no two sizes coincide, on a batch
        params = ModelParams(ModelDims(C=6, hidden=5, heads=3, lm=3, gm=7, e0=4, e1=2), seed=42)
        rng = np.random.default_rng(42)
        batch = WindowBatch(rng.normal(size=(3, 3)), rng.normal(size=(3, 7)))
        grad = _model_gradient(batch, params)
        assert grad_check(lambda: reconstruction_loss(batch, params), params.vector, grad, delta=1e-4) < 1e-4


class TestAutodiffMechanics:
    def test_broadcast_add_gradient(self):
        # an encoder's queries are broadcast over the batch, so the backward
        # sums their gradient over it: a batch's gradient is the windows' mean
        params = ModelParams(TINY, seed=16)
        rng = np.random.default_rng(17)
        batch = WindowBatch(rng.normal(size=(4, 2)), rng.normal(size=(4, 4)))
        each = [_model_gradient(WindowBatch(batch.lm_windows[i : i + 1], batch.gm_windows[i : i + 1]), params)
                for i in range(4)]
        np.testing.assert_allclose(_model_gradient(batch, params), np.mean(each, axis=0), rtol=0, atol=1e-14)

    def test_grad_accumulates_through_shared_node(self):
        # two backwards without a zero_grad between them add up
        params = ModelParams(TINY, seed=18)
        rng = np.random.default_rng(19)
        a, b = (WindowBatch(rng.normal(size=(2, 2)), rng.normal(size=(2, 4))) for _ in range(2))
        want = _model_gradient(a, params) + _model_gradient(b, params)
        params.zero_grad()
        reconstruction_loss_t(a, params).backward()
        reconstruction_loss_t(b, params).backward()
        np.testing.assert_allclose(params.grad, want, rtol=0, atol=1e-15)
