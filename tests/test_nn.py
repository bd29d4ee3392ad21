"""Kernel, autodiff and Adam tests against hand-computed and finite-difference oracles."""

import numpy as np
import pytest

from evdetect.nn import (
    AdamState,
    Hyper,
    Tensor,
    adam_step,
    concat_last,
    grad_check,
    layer_norm,
    linear_forward,
    no_grad,
    softmax_rows,
)


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
        with pytest.raises(ValueError):
            Hyper(beta1=1.0)
        for batch_size in (0, -4):
            with pytest.raises(ValueError, match="batch_size must be >= 1"):
                Hyper(batch_size=batch_size)
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            Hyper(epochs=-1)
        assert Hyper(batch_size=1, epochs=0).epochs == 0


class TestGradCheck:
    def test_square_at_three(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        err = grad_check(lambda: (x * x).mean_all(), [x], delta=1e-4)
        assert err < 1e-8

    def test_linear_net_mse(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)))
        target = Tensor(rng.normal(size=(5, 2)))

        def loss():
            diff = x.matmul(w) + b - target
            return (diff * diff).mean_all()

        assert grad_check(loss, [w, b], delta=1e-4) < 1e-6

    def test_dead_softmax_path(self):
        # all mass on one token: gradients are tiny but must still match FD
        logits = Tensor(np.array([[30.0, 0.0, -5.0]]), requires_grad=True)
        v = Tensor(np.array([[1.0], [2.0], [3.0]]))

        def loss():
            return logits.softmax_last().matmul(v).mean_all()

        assert grad_check(loss, [logits], delta=1e-4) < 1e-4

    def test_every_op_composed(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        gain = Tensor(rng.normal(size=4), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)

        def loss():
            y = a.matmul(b).relu()
            y = (y + a).layer_norm(gain, bias, 1e-5)
            z = concat_last([y.softmax_last(), y.transpose_last().softmax_last().transpose_last()])
            z = z.matmul(Tensor(np.ones((8, 2)))) - a.matmul(Tensor(np.ones((4, 2))))
            return (z * z).mean_all()

        assert grad_check(loss, [a, b, gain, bias], delta=1e-4) < 1e-4


class TestAutodiffMechanics:
    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with no_grad():
            y = x * x
        assert y._backward is None and y._parents == ()

    def test_broadcast_add_gradient(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        (x + b).mean_all().backward()
        np.testing.assert_allclose(b.grad, np.full(4, 3.0 / 12.0))
        np.testing.assert_allclose(x.grad, np.full((3, 4), 1.0 / 12.0))

    def test_grad_accumulates_through_shared_node(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        y = x * x + x * x  # two paths through x
        y.mean_all().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * x).backward()
