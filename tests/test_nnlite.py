import math

import numpy as np
import pytest

from l3rs.nnlite import (
    Batch,
    NetworkSpec,
    accuracy,
    forward,
    init_params,
    loss_and_grad,
    mean_cross_entropy,
    params_from_flat,
)


def central_fd_grads(spec, params, batch, h=1e-5):
    """Independent gradient oracle: central finite differences on the loss."""
    grads = []
    for t in params.tensors:
        g = np.zeros_like(t)
        flat = t.ravel()
        gflat = g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = mean_cross_entropy(forward(spec, params.flat(), batch.x), batch.y)
            flat[j] = orig - h
            down = mean_cross_entropy(forward(spec, params.flat(), batch.x), batch.y)
            flat[j] = orig
            gflat[j] = (up - down) / (2 * h)
        grads.append(g)
    return grads


class TestInitParams:
    def test_biases_zero(self):
        params = init_params(NetworkSpec(2, (4,), 3), seed=123)
        for cid, t in params.items():
            if cid.kind == "bias":
                assert np.all(t == 0.0)

    def test_deterministic(self):
        spec = NetworkSpec(5, (7, 3), 2)
        a = init_params(spec, seed=42)
        b = init_params(spec, seed=42)
        for ta, tb in zip(a.tensors, b.tensors):
            assert np.array_equal(ta, tb)

    def test_kernel_variance_matches_lecun(self):
        # sample-variance oracle over the 5000 entries of the first kernel
        params = init_params(NetworkSpec(100, (50,), 10), seed=7)
        kernel = params.tensors[0]
        assert kernel.shape == (100, 50)
        var = kernel.var()
        assert abs(var - 0.01) < 0.2 * 0.01

    def test_component_ordering(self):
        params = init_params(NetworkSpec(2, (3,), 2), seed=0)
        names = [cid.name for cid in params.ids]
        assert names == ["layer0/kernel", "layer0/bias", "layer1/kernel", "layer1/bias"]
        assert [cid.index for cid in params.ids] == [0, 1, 2, 3]


class TestForward:
    def test_zero_params_zero_logits(self):
        spec = NetworkSpec(3, (4,), 2)
        params = init_params(spec, seed=0)
        for t in params.tensors:
            t[:] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert np.all(forward(spec, params.flat(), x) == 0.0)

    def test_identity_single_layer(self):
        spec = NetworkSpec(2, (), 2)
        params = init_params(spec, seed=0)
        params.tensors[0][:] = np.eye(2)
        params.tensors[1][:] = 0.0
        x = np.array([[1.5, -2.0], [0.0, 3.0]])
        assert np.array_equal(forward(spec, params.flat(), x), x)

    def test_hand_evaluated_relu_chain(self):
        # x=(1,-1): z1 = (1*2-1*1, 1*1-1*3) = (1,-2), relu -> (1,0),
        # logits = (1*1+0*3+0.1, 1*2+0*4-0.2) = (1.1, 1.8)
        spec = NetworkSpec(2, (2,), 2)
        params = init_params(spec, seed=0)
        params.tensors[0][:] = np.array([[2.0, 1.0], [1.0, 3.0]])
        params.tensors[1][:] = 0.0
        params.tensors[2][:] = np.array([[1.0, 2.0], [3.0, 4.0]])
        params.tensors[3][:] = np.array([0.1, -0.2])
        logits = forward(spec, params.flat(), np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(logits, [[1.1, 1.8]], rtol=0, atol=1e-15)

    def test_shape_mismatch_raises(self):
        spec = NetworkSpec(3, (4,), 2)
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError):
            forward(spec, params.flat(), np.zeros((5, 4)))

    def test_deterministic(self):
        spec = NetworkSpec(6, (5,), 3)
        params = init_params(spec, seed=3)
        x = np.random.default_rng(2).normal(size=(4, 6))
        assert np.array_equal(forward(spec, params.flat(), x), forward(spec, params.flat(), x))


class TestLossAndGrad:
    def test_uniform_logits_loss_is_ln_c(self):
        spec = NetworkSpec(3, (), 4)
        params = init_params(spec, seed=0)
        for t in params.tensors:
            t[:] = 0.0
        batch = Batch(x=np.ones((6, 3)), y=np.array([0, 1, 2, 3, 0, 1]))
        loss, _, _ = loss_and_grad(spec, params.flat(), batch)
        assert abs(loss - math.log(4)) < 1e-15

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        spec = NetworkSpec(3, (4,), 3)
        params = init_params(spec, seed=5)
        batch = Batch(x=rng.normal(size=(8, 3)), y=rng.integers(0, 3, 8))
        _, grads, _ = loss_and_grad(spec, params.flat(), batch)
        fd = central_fd_grads(spec, params, batch)
        for g, g_fd in zip(params_from_flat(spec, grads).tensors, fd):
            rel = np.abs(g - g_fd) / (np.abs(g_fd) + 1e-8)
            assert rel.max() < 1e-6

    def test_duplicated_rows_leave_loss_and_grads_unchanged(self):
        rng = np.random.default_rng(4)
        spec = NetworkSpec(4, (5,), 3)
        params = init_params(spec, seed=9)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, 6)
        loss1, g1, _ = loss_and_grad(spec, params.flat(), Batch(x=x, y=y))
        loss2, g2, _ = loss_and_grad(
            spec, params.flat(), Batch(x=np.vstack([x, x]), y=np.concatenate([y, y])))
        assert abs(loss1 - loss2) < 1e-14
        for a, b in zip(params_from_flat(spec, g1).tensors, params_from_flat(spec, g2).tensors):
            assert np.abs(a - b).max() < 1e-14

    def test_grad_structure_mirrors_params(self):
        spec = NetworkSpec(3, (4, 5), 2)
        params = init_params(spec, seed=1)
        batch = Batch(x=np.ones((2, 3)), y=np.array([0, 1]))
        _, flat_grads, _ = loss_and_grad(spec, params.flat(), batch)
        assert flat_grads.shape == (params.n_params(),)
        grads = params_from_flat(spec, flat_grads)
        assert grads.ids == params.ids
        for g, t in zip(grads.tensors, params.tensors):
            assert g.shape == t.shape

    def test_divergence_raises(self):
        # divergence is reported in the finite mask, which the inner loop
        # uses to drop the row
        spec = NetworkSpec(2, (), 2)
        params = init_params(spec, seed=0)
        params.tensors[0][:] = 1e308
        batch = Batch(x=np.full((2, 2), 1e30), y=np.array([0, 1]))
        _, _, finite = loss_and_grad(spec, params.flat(), batch)
        assert not finite

    def test_leading_axis_rows_match_single_runs(self):
        # every row of a [C, n] batch gets the bits of its own 1-D run, and a
        # non-finite row is flagged without disturbing the others
        rng = np.random.default_rng(21)
        spec = NetworkSpec(5, (7, 6), 3)
        batch = Batch(x=rng.normal(size=(9, 5)), y=rng.integers(0, 3, 9))
        rows = np.stack([init_params(spec, seed=s).flat() for s in range(4)])
        rows[2, :35] = 1e308
        losses, grads, finite = loss_and_grad(spec, rows, batch)
        assert losses.shape == (4,) and grads.shape == rows.shape
        np.testing.assert_array_equal(finite, [True, True, False, True])
        for c in (0, 1, 3):
            loss, grad, ok = loss_and_grad(spec, rows[c], batch)
            assert ok and loss == losses[c]
            np.testing.assert_array_equal(grad, grads[c])
            np.testing.assert_array_equal(forward(spec, rows, batch.x)[c],
                                          forward(spec, rows[c], batch.x))


class TestAccuracy:
    def test_one_hot_correct(self):
        logits = np.eye(3)
        assert accuracy(logits, np.array([0, 1, 2])) == 1.0

    def test_one_hot_all_wrong(self):
        logits = np.eye(3)
        assert accuracy(logits, np.array([1, 2, 0])) == 0.0

    def test_two_of_three(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_ties_break_to_lowest_index(self):
        logits = np.zeros((2, 3))
        assert accuracy(logits, np.array([0, 1])) == 0.5
