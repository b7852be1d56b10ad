import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from l3rs.nnlite import (
    Batch,
    NetworkSpec,
    _cross_entropy_parts,
    _label_index,
    accuracy,
    forward,
    init_params,
    layer_views,
    loss_and_grad,
    mean_cross_entropy,
)


def segments(spec, flat):
    """The component segments of a flat vector, as views in component order."""
    off = spec.offsets()
    return [flat[a:b] for a, b in zip(off[:-1], off[1:])]


def central_fd_grads(spec, params, batch, h=1e-5):
    """Independent gradient oracle: central finite differences on the loss."""
    grads = np.zeros_like(params)
    for j in range(params.size):
        orig = params[j]
        params[j] = orig + h
        up = mean_cross_entropy(forward(spec, params, batch.x), batch.y)
        params[j] = orig - h
        down = mean_cross_entropy(forward(spec, params, batch.x), batch.y)
        params[j] = orig
        grads[j] = (up - down) / (2 * h)
    return grads


class TestInitParams:
    def test_biases_zero(self):
        spec = NetworkSpec(2, (4,), 3)
        params = init_params(spec, seed=123)
        for name, t in zip(spec.components(), segments(spec, params)):
            if name.endswith("/bias"):
                assert np.all(t == 0.0)

    def test_deterministic(self):
        spec = NetworkSpec(5, (7, 3), 2)
        a = init_params(spec, seed=42)
        b = init_params(spec, seed=42)
        assert np.array_equal(a, b)

    def test_kernel_variance_matches_lecun(self):
        # sample-variance oracle over the 5000 entries of the first kernel
        spec = NetworkSpec(100, (50,), 10)
        kernel = layer_views(spec, init_params(spec, seed=7))[0][0]
        assert kernel.shape == (100, 50)
        var = kernel.var()
        assert abs(var - 0.01) < 0.2 * 0.01

    def test_component_ordering(self):
        spec = NetworkSpec(2, (3,), 2)
        names = spec.components()
        assert names == ["layer0/kernel", "layer0/bias", "layer1/kernel", "layer1/bias"]
        # component i is the i-th segment of the flat vector
        assert np.diff(spec.offsets()).tolist() == [6, 3, 6, 2]


@pytest.mark.parametrize("dims", [(2, (), 3), (16, (32,), 4), (16, (32, 32), 4)])
def test_offsets_bound_the_layer_views(dims):
    spec = NetworkSpec(*dims)
    sizes = [int(np.prod(shape)) for shape in spec.component_shapes()]
    offsets = spec.offsets()
    assert list(offsets) == [0, *np.cumsum(sizes).tolist()]
    flat = np.arange(float(offsets[-1]))
    views = [t for pair in layer_views(spec, flat) for t in pair]
    assert len(views) == len(spec.components()) == len(offsets) - 1
    for t, a, b, shape in zip(views, offsets[:-1], offsets[1:], spec.component_shapes()):
        assert t.shape == shape and np.shares_memory(t, flat)
        assert np.array_equal(t.ravel(), flat[a:b])


class TestForward:
    def test_zero_params_zero_logits(self):
        spec = NetworkSpec(3, (4,), 2)
        params = init_params(spec, seed=0)
        params[:] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert np.all(forward(spec, params, x) == 0.0)

    def test_identity_single_layer(self):
        spec = NetworkSpec(2, (), 2)
        params = init_params(spec, seed=0)
        ((w, b),) = layer_views(spec, params)
        w[:] = np.eye(2)
        b[:] = 0.0
        x = np.array([[1.5, -2.0], [0.0, 3.0]])
        assert np.array_equal(forward(spec, params, x), x)

    def test_hand_evaluated_relu_chain(self):
        # x=(1,-1): z1 = (1*2-1*1, 1*1-1*3) = (1,-2), relu -> (1,0),
        # logits = (1*1+0*3+0.1, 1*2+0*4-0.2) = (1.1, 1.8)
        spec = NetworkSpec(2, (2,), 2)
        params = init_params(spec, seed=0)
        (w0, b0), (w1, b1) = layer_views(spec, params)
        w0[:] = np.array([[2.0, 1.0], [1.0, 3.0]])
        b0[:] = 0.0
        w1[:] = np.array([[1.0, 2.0], [3.0, 4.0]])
        b1[:] = np.array([0.1, -0.2])
        logits = forward(spec, params, np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(logits, [[1.1, 1.8]], rtol=0, atol=1e-15)

    def test_shape_mismatch_raises(self):
        spec = NetworkSpec(3, (4,), 2)
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError):
            forward(spec, params, np.zeros((5, 4)))

    def test_deterministic(self):
        spec = NetworkSpec(6, (5,), 3)
        params = init_params(spec, seed=3)
        x = np.random.default_rng(2).normal(size=(4, 6))
        assert np.array_equal(forward(spec, params, x), forward(spec, params, x))


class TestLossAndGrad:
    def test_uniform_logits_loss_is_ln_c(self):
        spec = NetworkSpec(3, (), 4)
        params = init_params(spec, seed=0)
        params[:] = 0.0
        batch = Batch(x=np.ones((6, 3)), y=np.array([0, 1, 2, 3, 0, 1]))
        loss, _, _ = loss_and_grad(spec, params, batch)
        assert abs(loss - math.log(4)) < 1e-15

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        spec = NetworkSpec(3, (4,), 3)
        params = init_params(spec, seed=5)
        batch = Batch(x=rng.normal(size=(8, 3)), y=rng.integers(0, 3, 8))
        _, grads, _ = loss_and_grad(spec, params, batch)
        fd = central_fd_grads(spec, params, batch)
        for g, g_fd in zip(segments(spec, grads), segments(spec, fd)):
            rel = np.abs(g - g_fd) / (np.abs(g_fd) + 1e-8)
            assert rel.max() < 1e-6

    def test_duplicated_rows_leave_loss_and_grads_unchanged(self):
        rng = np.random.default_rng(4)
        spec = NetworkSpec(4, (5,), 3)
        params = init_params(spec, seed=9)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, 6)
        loss1, g1, _ = loss_and_grad(spec, params, Batch(x=x, y=y))
        loss2, g2, _ = loss_and_grad(
            spec, params, Batch(x=np.vstack([x, x]), y=np.concatenate([y, y])))
        assert abs(loss1 - loss2) < 1e-14
        for a, b in zip(segments(spec, g1), segments(spec, g2)):
            assert np.abs(a - b).max() < 1e-14

    def test_grad_structure_mirrors_params(self):
        spec = NetworkSpec(3, (4, 5), 2)
        params = init_params(spec, seed=1)
        batch = Batch(x=np.ones((2, 3)), y=np.array([0, 1]))
        _, flat_grads, _ = loss_and_grad(spec, params, batch)
        assert flat_grads.shape == params.shape
        grads = [t for pair in layer_views(spec, flat_grads) for t in pair]
        assert len(grads) == len(spec.components())
        for g, t in zip(grads, (t for pair in layer_views(spec, params) for t in pair)):
            assert g.shape == t.shape

    def test_divergence_raises(self):
        # divergence is reported in the finite mask, which the inner loop
        # uses to drop the row
        spec = NetworkSpec(2, (), 2)
        params = init_params(spec, seed=0)
        layer_views(spec, params)[0][0][:] = 1e308
        batch = Batch(x=np.full((2, 2), 1e30), y=np.array([0, 1]))
        _, _, finite = loss_and_grad(spec, params, batch)
        assert not finite

    def test_leading_axis_rows_match_single_runs(self):
        # every row of a [C, n] batch gets the bits of its own 1-D run, and a
        # non-finite row is flagged without disturbing the others
        rng = np.random.default_rng(21)
        spec = NetworkSpec(5, (7, 6), 3)
        batch = Batch(x=rng.normal(size=(9, 5)), y=rng.integers(0, 3, 9))
        rows = np.stack([init_params(spec, seed=s) for s in range(4)])
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


class TestPerRowBatches:
    """A batch with a leading row axis gives row r of every output the bits
    of a separate call on row r's parameters and examples, also next to a
    row that is not finite."""

    spec = NetworkSpec(5, (7, 6), 3)
    rows = 4

    def block(self):
        rng = np.random.default_rng(8)
        params = np.stack([init_params(self.spec, seed=s) for s in range(self.rows)])
        params[2] = 1e200  # overflows in the second layer
        batch = Batch(x=rng.normal(size=(self.rows, 9, 5)),
                      y=rng.integers(0, 3, (self.rows, 9)))
        return params, batch

    @pytest.mark.parametrize("one_row", [False, True], ids=["flat", "1xn"])
    def test_forward_and_loss_and_grad(self, one_row):
        params, batch = self.block()
        logits = forward(self.spec, params, batch.x)
        losses, grads, finite = loss_and_grad(self.spec, params, batch)
        assert logits.shape == (self.rows, 9, 3) and grads.shape == params.shape
        np.testing.assert_array_equal(finite, [True, True, False, True])
        for r in range(self.rows):
            theta = params[r:r + 1] if one_row else params[r]
            row = Batch(x=batch.x[r], y=batch.y[r])
            loss, grad, ok = loss_and_grad(self.spec, theta, row)
            assert ok == finite[r]
            assert forward(self.spec, theta, row.x).tobytes() == logits[r].tobytes()
            assert np.asarray(loss).tobytes() == losses[r].tobytes()
            assert grad.tobytes() == grads[r].tobytes()

    def test_mean_cross_entropy_and_accuracy(self):
        params, batch = self.block()
        logits = forward(self.spec, params, batch.x)
        losses = mean_cross_entropy(logits, batch.y)
        accs = accuracy(logits, batch.y)
        assert losses.shape == accs.shape == (self.rows,)
        for r in range(self.rows):
            assert mean_cross_entropy(logits[r], batch.y[r]).tobytes() == losses[r].tobytes()
            assert accuracy(logits[r], batch.y[r]) == accs[r]

    def test_shared_labels_broadcast_over_rows(self):
        params, batch = self.block()
        logits = forward(self.spec, params, batch.x[0])
        labels = batch.y[0]
        np.testing.assert_array_equal(mean_cross_entropy(logits, labels),
                                      mean_cross_entropy(logits, np.tile(labels, (4, 1))))
        np.testing.assert_array_equal(accuracy(logits, labels),
                                      accuracy(logits, np.tile(labels, (4, 1))))

    @pytest.mark.parametrize("x_shape,y_shape", [((2, 9, 5), (3, 9)), ((2, 9, 5), (9,)),
                                                 ((9, 5), (2, 9)), ((2, 0, 5), (2, 0))])
    def test_mismatched_batch_rejected(self, x_shape, y_shape):
        with pytest.raises(ValueError):
            Batch(x=np.zeros(x_shape), y=np.zeros(y_shape, dtype=int))

    def test_label_length_checked(self):
        logits = np.zeros((2, 9, 3))
        for fn in (mean_cross_entropy, accuracy):
            with pytest.raises(ValueError):
                fn(logits, np.zeros((2, 8), dtype=int))


# few distinct values, so rows tie, plus both zeros, both infinities and NaN
SPECIAL_LOGITS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 700.0, -745.0,
                                  np.inf, -np.inf, np.nan])
LOGITS = st.one_of(SPECIAL_LOGITS, st.floats(-50.0, 50.0))


def reference_cross_entropy(logits, label):
    """The cross-entropy as numpy's own reductions give it: the max of each
    row from logits.max and two separate sums of its exponentials."""
    shift = logits.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        exp = np.exp(logits - shift)
        lse = shift[..., 0] + np.log(exp.sum(axis=-1))
        loss = np.mean(lse - np.take_along_axis(logits, label, axis=-1)[..., 0], axis=-1)
        softmax = exp / exp.sum(axis=-1, keepdims=True)
    return loss, softmax


@st.composite
def logits_and_labels(draw):
    lead = draw(st.sampled_from([(), (3,), (2, 3)]))
    n, classes = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    logits = draw(hnp.arrays(np.float64, (*lead, n, classes), elements=LOGITS))
    labels = draw(hnp.arrays(np.int64, (*lead, n), elements=st.integers(0, classes - 1)))
    return logits, labels


class TestCrossEntropyParts:
    """The loss and softmax keep the bits of numpy's reductions: the row max
    is a chain of np.maximum and the exponentials are summed once."""

    @given(logits_and_labels())
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_the_reduction_reference(self, drawn):
        logits, labels = drawn
        label = _label_index(logits, labels)
        loss, exp, total = _cross_entropy_parts(logits, label)
        ref_loss, ref_softmax = reference_cross_entropy(logits, label)
        assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        with np.errstate(invalid="ignore"):
            softmax = exp / total[..., None]
        assert softmax.tobytes() == ref_softmax.tobytes()

    def test_loss_and_grad_softmax_keeps_the_bits(self):
        # the gradient of the logits is (softmax - onehot) / n; rebuild it
        # from the reference softmax for a pretrain-sized 8-class head
        spec = NetworkSpec(6, (), 8)
        rng = np.random.default_rng(4)
        params = rng.normal(size=(3, spec.offsets()[-1]))
        batch = Batch(x=rng.normal(size=(5, 6)), y=rng.integers(0, 8, 5))
        _, grads, _ = loss_and_grad(spec, params, batch)
        logits = forward(spec, params, batch.x)
        _, softmax = reference_cross_entropy(logits, _label_index(logits, batch.y))
        delta = (softmax - (batch.y[:, None] == np.arange(8))) / 5
        bias = delta.sum(axis=-2)
        assert grads[:, spec.offsets()[1]:].tobytes() == bias.tobytes()


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
