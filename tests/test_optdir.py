import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3rs import optdir
from l3rs.nnlite import NetworkSpec, init_params
from l3rs.optdir import (
    DirectionBank,
    OptimizerKind,
    default_betas,
    dir_adam,
    dir_adamax,
    dir_lion,
    dir_sgd,
    dir_weight_decay,
    segment_norms,
)


def fresh_state(shape=()):
    return {"m": np.zeros(shape), "v": np.zeros(shape), "u": np.zeros(shape)}


def small_params(seed=0):
    spec = NetworkSpec(3, (4,), 2)
    return spec, init_params(spec, seed=seed)


def make_bank(kinds, offsets, rows=1):
    return DirectionBank(kinds, np.tile(default_betas(kinds), (rows, 1, 1)), offsets)


def bank_step(bank, grad, weights):
    """bank.step with the weights' segment norms, which ControllerContext.step
    hands it from its own weight/gradient norms."""
    return bank.step(grad, weights, segment_norms(weights[..., None, :], bank.offsets)[..., 0])


def lamb_first_step(grad, weights, offsets=None):
    offsets = np.array([0, grad.size]) if offsets is None else offsets
    dirs, _, _ = bank_step(make_bank([OptimizerKind.LAMB], offsets), grad[None], weights[None])
    return dirs[0, 0]


class TestSgd:
    def test_negation(self):
        np.testing.assert_array_equal(dir_sgd(np.array([1.0, -2.0])), [-1.0, 2.0])

    def test_zero(self):
        assert np.all(dir_sgd(np.zeros(3)) == 0.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_norm_preserved(self, values):
        g = np.array(values)
        assert np.linalg.norm(dir_sgd(g)) == np.linalg.norm(g)


class TestAdam:
    def test_first_step_hand_value(self):
        # m_hat = g = 0.5, v_hat = 0.25, d = -0.5 / (0.5 + 1e-8)
        state = fresh_state()
        d = dir_adam(state, np.array(0.5), 0.9, 0.999, 1e-8, k=1)
        assert d == pytest.approx(-0.5 / (0.5 + 1e-8), rel=1e-14)
        assert d == pytest.approx(-0.99999998, abs=1e-9)

    def test_first_step_magnitude_near_one(self):
        g = np.random.default_rng(0).normal(size=50)
        d = dir_adam(fresh_state(50), g, 0.9, 0.999, 1e-8, k=1)
        assert np.all(np.abs(d) > 0.0)
        assert np.all(np.abs(d) < 1.0)
        assert np.abs(np.abs(d) - 1.0).max() < 1e-6

    def test_zero_gradient_stream(self):
        state = fresh_state(3)
        for k in range(1, 5):
            d = dir_adam(state, np.zeros(3), 0.9, 0.999, 1e-8, k=k)
            assert np.all(d == 0.0)

    def test_constant_gradient_gives_constant_direction(self):
        # bias-corrected moments reproduce g and g^2 exactly for constant g
        g = np.array([0.3, -1.7, 4.0])
        state = fresh_state(3)
        first = dir_adam(state, g, 0.9, 0.999, 1e-8, k=1)
        for k in range(2, 30):
            d = dir_adam(state, g, 0.9, 0.999, 1e-8, k=k)
            assert np.abs(d - first).max() < 1e-12


class TestAdamax:
    def test_first_step_hand_value(self):
        state = fresh_state()
        d = dir_adamax(state, np.array(2.0), 0.9, 0.999, 1e-8, k=1)
        assert state["u"] == pytest.approx(2.0)
        assert d == pytest.approx(-1.0, rel=1e-8)

    def test_zero_gradient(self):
        state = fresh_state(2)
        for k in range(1, 4):
            assert np.all(dir_adamax(state, np.zeros(2), 0.9, 0.999, 1e-8, k=k) == 0.0)

    def test_first_step_scale_invariance(self):
        # cancellation is exact up to the eps in the denominator
        g = np.array([0.2, -0.8, 1.5])
        d1 = dir_adamax(fresh_state(3), g, 0.9, 0.999, 1e-8, k=1)
        d2 = dir_adamax(fresh_state(3), 37.0 * g, 0.9, 0.999, 1e-8, k=1)
        np.testing.assert_allclose(d1, d2, rtol=0, atol=1e-6)


class TestLion:
    def test_first_step_signs(self):
        state = {"m": np.zeros(2)}
        d = dir_lion(state, np.array([0.5, -3.0]), 0.9, 0.99)
        np.testing.assert_array_equal(d, [-1.0, 1.0])

    def test_sign_zero_is_zero(self):
        state = {"m": np.zeros(2)}
        d = dir_lion(state, np.array([0.0, 1.0]), 0.9, 0.99)
        assert d[0] == 0.0

    def test_momentum_updated_after_sign(self):
        state = {"m": np.array([1.0])}
        dir_lion(state, np.array([0.0]), 0.9, 0.5)
        assert state["m"][0] == 0.5

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    @settings(max_examples=50)
    def test_values_and_norm(self, values):
        g = np.array(values)
        c = 0.1 * g  # first-step interpolation with zero momentum
        state = {"m": np.zeros_like(g)}
        d = dir_lion(state, g, 0.9, 0.99)
        assert set(np.unique(d)) <= {-1.0, 0.0, 1.0}
        assert np.linalg.norm(d) ** 2 == pytest.approx(np.count_nonzero(c))


class TestLamb:
    def test_zero_weights_degenerate_trust(self):
        g = np.array([0.4, -0.2])
        d_lamb = lamb_first_step(g, np.zeros(2))
        d_adam = dir_adam(fresh_state(2), g, 0.9, 0.999, 1e-8, k=1)
        np.testing.assert_array_equal(d_lamb, d_adam)

    def test_first_step_hand_value(self):
        d = lamb_first_step(np.array([0.5]), np.array([3.0]))
        assert d[0] == pytest.approx(-3.0, rel=1e-7)

    def test_normalized_direction_matches_adam(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=6)
        w = rng.normal(size=6)
        d_lamb = lamb_first_step(g, w)
        d_adam = dir_adam(fresh_state(6), g, 0.9, 0.999, 1e-8, k=1)
        np.testing.assert_allclose(d_lamb / np.linalg.norm(d_lamb),
                                   d_adam / np.linalg.norm(d_adam),
                                   rtol=0, atol=1e-12)

    def test_trust_ratio_per_segment(self):
        # each segment is rescaled to its own weight norm; a zero-weight
        # segment keeps the plain Adam ratio
        rng = np.random.default_rng(9)
        g = rng.normal(size=7)
        w = np.concatenate([rng.normal(size=4), np.zeros(3)])
        d_lamb = lamb_first_step(g, w, offsets=np.array([0, 4, 7]))
        d_adam = dir_adam(fresh_state(7), g, 0.9, 0.999, 1e-8, k=1)
        assert np.linalg.norm(d_lamb[:4]) == pytest.approx(np.linalg.norm(w[:4]), rel=1e-14)
        np.testing.assert_array_equal(d_lamb[4:], d_adam[4:])


class TestWeightDecay:
    def test_examples(self):
        np.testing.assert_array_equal(dir_weight_decay(np.array([1.0, -1.0])), [-1.0, 1.0])
        assert np.all(dir_weight_decay(np.zeros(4)) == 0.0)
        w = np.random.default_rng(1).normal(size=9)
        assert np.linalg.norm(dir_weight_decay(w)) == np.linalg.norm(w)


DIRECTION_FUNCTIONS = ("dir_sgd", "dir_adam", "dir_adamax", "dir_lion", "dir_weight_decay")


def direction_call(name, grad, weights, beta1, beta2):
    """call(state, **out) of one direction function at step 3."""
    fn = getattr(optdir, name)
    if name == "dir_sgd":
        return lambda state, **out: fn(grad, **out)
    if name == "dir_weight_decay":
        return lambda state, **out: fn(weights, **out)
    if name == "dir_lion":
        return lambda state, **out: fn(state, grad, beta1, beta2, **out)
    return lambda state, **out: fn(state, grad, beta1, beta2, 1e-8, 3, **out)


class TestOutArgument:
    """Every direction function writes into ``out`` exactly what its
    allocating call returns, and advances its state the same way."""

    @pytest.mark.parametrize("shape", [(), (7,), (2, 3, 7)], ids=["0-d", "n", "TxCxn"])
    @pytest.mark.parametrize("name", DIRECTION_FUNCTIONS)
    def test_out_has_the_bits_of_the_allocating_call(self, name, shape):
        rng = np.random.default_rng(len(shape))
        grad, weights = rng.normal(size=shape), rng.normal(size=shape)
        if len(shape) == 3:  # per-candidate betas, as the bank passes them
            beta1, beta2 = rng.uniform(0.5, 0.95, (3, 1)), rng.uniform(0.9, 0.999, (3, 1))
        else:
            beta1, beta2 = 0.9, 0.999
        state = {"m": rng.normal(size=shape), "v": rng.uniform(size=shape),
                 "u": rng.uniform(size=shape)}
        allocating, writing = copy.deepcopy(state), copy.deepcopy(state)
        call = direction_call(name, grad, weights, beta1, beta2)
        for _ in range(2):
            expected = np.asarray(call(allocating))
            # a provider's slot of a [..., P, n] array, as in the bank
            out = np.full((*shape[:-1], 2, *shape[-1:]), np.nan)[..., 1, :] if shape else \
                np.full((), np.nan)
            assert call(writing, out=out) is out
            assert out.tobytes() == expected.tobytes()
            for key in state:
                assert writing[key].tobytes() == allocating[key].tobytes()

    def test_bank_steps_through_every_direction_function(self, monkeypatch):
        called = []
        for name in DIRECTION_FUNCTIONS:
            def spy(*args, _fn=getattr(optdir, name), _name=name, **kwargs):
                called.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(optdir, name, spy)
        spec, params = small_params()
        bank_step(make_bank(list(OptimizerKind), spec.offsets()), np.ones((1, params.size)),
                  params[None])
        # LAMB scales the direction of its own dir_adam call
        assert sorted(called) == sorted(DIRECTION_FUNCTIONS + ("dir_adam",))

    def test_returned_directions_do_not_alias_provider_state(self):
        # overwriting what a step returned leaves the next step's bits alone
        spec, params = small_params()
        offsets, kinds = spec.offsets(), list(OptimizerKind)
        rng = np.random.default_rng(21)
        betas = rng.uniform(0.05, 0.999, size=(3, len(kinds), 2))
        grads = rng.normal(size=(3, 2, 3, params.size))
        weights = rng.normal(size=(3, 2, 3, params.size))
        bank = DirectionBank(kinds, betas, offsets, rows=(2,))
        fresh = DirectionBank(kinds, betas, offsets, rows=(2,))
        for g, w in zip(grads, weights):
            dirs, norms, _ = bank_step(bank, g, w)
            fresh_dirs, fresh_norms, _ = bank_step(fresh, g, w)
            assert dirs.tobytes() == fresh_dirs.tobytes()
            assert norms.tobytes() == fresh_norms.tobytes()
            dirs[...] = 1e300
            norms[...] = np.nan


class TestSegmentNorms:
    def test_bit_identical_to_linalg_norm(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            spec = NetworkSpec(int(rng.integers(1, 40)), (int(rng.integers(1, 40)),),
                               int(rng.integers(1, 10)))
            params = init_params(spec, seed=int(rng.integers(0, 2**31)))
            rows = rng.normal(size=(int(rng.integers(1, 7)), params.size))
            rows *= 10.0 ** rng.integers(-12, 12)
            norms = segment_norms(rows, spec.offsets())
            assert norms.shape == (len(spec.components()), len(rows))
            # a leading axis batches the same dots
            np.testing.assert_array_equal(
                segment_norms(np.stack([rows, rows[::-1]]), spec.offsets()),
                np.stack([norms, norms[:, ::-1]]))
            for i, (a, b) in enumerate(zip(spec.offsets()[:-1], spec.offsets()[1:])):
                shape = spec.component_shapes()[i]
                for p, row in enumerate(rows):
                    assert norms[i, p] == np.linalg.norm(row[a:b].reshape(shape))


class TestDirectionBank:
    def test_sgd_only_composition(self):
        spec, params = small_params()
        bank = make_bank([OptimizerKind.SGD], spec.offsets())
        grad = np.full(params.size, 0.5)
        dirs, norms, _ = bank_step(bank, grad[None], params[None])
        assert dirs.shape == (1, 1, params.size)
        assert norms.shape == (1, len(spec.components()), 1)
        np.testing.assert_array_equal(dirs[0, 0], -grad)

    def test_state_isolation(self):
        spec, params = small_params()
        rng = np.random.default_rng(3)
        grad_stream = [rng.normal(size=params.size) for _ in range(5)]

        def run(kinds):
            bank = make_bank(kinds, spec.offsets())
            return [bank_step(bank, g[None], params[None])[:2] for g in grad_stream]

        solo = run([OptimizerKind.ADAM])
        mixed = run([OptimizerKind.SGD, OptimizerKind.ADAM, OptimizerKind.LION])
        for (dirs_solo, norms_solo), (dirs_mixed, norms_mixed) in zip(solo, mixed):
            np.testing.assert_array_equal(dirs_solo[0, 0], dirs_mixed[0, 1])
            np.testing.assert_array_equal(norms_solo[0, :, 0], norms_mixed[0, :, 1])

    def test_zero_direction_log_norm_floor(self):
        spec, params = small_params()
        bank = make_bank([OptimizerKind.SGD], spec.offsets())
        _, norms, _ = bank_step(bank, np.zeros((1, params.size)), params[None])
        # the floored logarithm the controller takes of it is pinned in
        # test_controller.py::TestVariants::test_zero_direction_log_norm_floor
        assert norms[0, 0, 0] == 0.0

    def test_shapes_preserved(self):
        spec, params = small_params()
        kinds = [OptimizerKind.SGD, OptimizerKind.ADAM, OptimizerKind.ADAMAX,
                 OptimizerKind.LION, OptimizerKind.LAMB, OptimizerKind.WEIGHT_DECAY]
        bank = make_bank(kinds, spec.offsets())
        dirs, norms, _ = bank_step(bank, np.ones((1, params.size)), params[None])
        assert dirs.shape == (1, len(kinds), params.size)
        assert norms.shape == (1, len(spec.components()), len(kinds))
        dirs, norms = dirs[0], norms[0]
        offsets = spec.offsets()
        for comp, shape in enumerate(spec.component_shapes()):
            a, b = offsets[comp], offsets[comp + 1]
            assert b - a == np.prod(shape)
            for p in range(len(kinds)):
                assert norms[comp, p] == np.linalg.norm(dirs[p, a:b].reshape(shape))
        np.testing.assert_array_equal(dirs[5], -params)

    def test_duplicate_kind_rejected(self):
        spec, params = small_params()
        with pytest.raises(ValueError):
            make_bank([OptimizerKind.SGD, OptimizerKind.SGD], spec.offsets())

    def test_non_finite_direction_raises(self):
        # a non-finite row is reported in the mask and keeps its place; the
        # finite rows carry on with the bits of a bank that never saw it
        spec, params = small_params()
        kinds = [OptimizerKind.SGD, OptimizerKind.ADAM]
        bank = make_bank(kinds, spec.offsets(), rows=3)
        clean = make_bank(kinds, spec.offsets(), rows=3)
        grad = np.ones((3, params.size))
        weights = np.tile(params, (3, 1))
        grad[1, 4] = np.inf
        dirs, norms, finite = bank_step(bank, grad, weights)
        np.testing.assert_array_equal(finite, [True, False, True])
        assert dirs.shape == (3, 2, params.size) and norms.shape == (3, len(spec.components()), 2)
        assert all(arr.shape == (3, params.size) for arr in bank._state[1].values())
        clean_dirs, clean_norms, _ = bank_step(clean, np.ones_like(grad), weights)
        np.testing.assert_array_equal(dirs[[0, 2]], clean_dirs[[0, 2]])
        np.testing.assert_array_equal(norms[[0, 2]], clean_norms[[0, 2]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_direction_whose_norm_overflows_is_not_finite(self):
        # every entry of row 1's direction is finite, but the sum of their
        # squares overflows, so its segment norms are inf
        spec, params = small_params()
        bank = make_bank([OptimizerKind.SGD], spec.offsets(), rows=2)
        grad = np.ones((2, params.size))
        grad[1] = 1e200
        dirs, norms, finite = bank_step(bank, grad, np.tile(params, (2, 1)))
        assert np.isfinite(dirs).all() and np.isinf(norms[1]).all()
        np.testing.assert_array_equal(finite, [True, False])

    def test_step_counter_shared(self):
        spec, params = small_params()
        bank = make_bank([OptimizerKind.SGD, OptimizerKind.ADAM], spec.offsets())
        grad = np.ones((1, params.size))
        assert bank.step_count == 0
        bank_step(bank, grad, params[None])
        assert bank.step_count == 1
        bank_step(bank, grad, params[None])
        assert bank.step_count == 2

    def test_rows_with_own_betas_match_single_row_banks(self):
        # every row of a C-row bank, with its own betas, gets the bits of a
        # one-row bank; LAMB's trust ratio stays per row and per segment
        spec, params = small_params()
        offsets = spec.offsets()
        kinds = list(OptimizerKind)
        rng = np.random.default_rng(17)
        betas = rng.uniform(0.05, 0.999, size=(3, len(kinds), 2))
        grads = rng.normal(size=(6, 3, params.size))
        weights = rng.normal(size=(6, 3, params.size))
        batched = DirectionBank(kinds, betas, offsets)
        single = [DirectionBank(kinds, b[None], offsets) for b in betas]
        for g, w in zip(grads, weights):
            dirs, norms, finite = bank_step(batched, g, w)
            assert finite.all()
            for c, bank in enumerate(single):
                d1, n1, _ = bank_step(bank, g[c:c + 1], w[c:c + 1])
                np.testing.assert_array_equal(dirs[c], d1[0])
                np.testing.assert_array_equal(norms[c], n1[0])

    def test_betas_of_the_wrong_shape_rejected(self):
        spec, _ = small_params()
        kinds = [OptimizerKind.SGD, OptimizerKind.ADAM]
        for shape in ((2, 2), (1, 3, 2), (1, 2, 3), (1, 2)):
            with pytest.raises(ValueError, match="betas have shape"):
                DirectionBank(kinds, np.full(shape, 0.9), spec.offsets())


class TestHyperParams:
    """Conventional hyperparameters of the providers."""

    def test_lion_defaults_differ(self):
        betas = default_betas([OptimizerKind.LION, OptimizerKind.ADAM])
        assert betas[0, 1] == 0.99
        assert betas[1, 1] == 0.999
