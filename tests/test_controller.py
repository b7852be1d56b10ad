import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from l3rs.controller import (
    EMBED_DIM,
    LAMBDA_INIT,
    ControllerContext,
    EmaTracker,
    Mlp,
    PsiLayout,
    Variant,
    build_features,
    compose_update,
    controller_forward_batch,
    flatten,
    init_meta_params,
    load_psi,
    save_psi,
    sigmoid,
    time_features,
    unflatten,
)
from l3rs.nnlite import NetworkSpec, init_params
from l3rs.optdir import (
    KINDS_WITH_BETAS,
    NORM_FLOOR,
    OptimizerKind,
    default_betas,
    segment_norms,
)

SGD_ADAM = (OptimizerKind.SGD, OptimizerKind.ADAM)


def zero_mlp(layout):
    psi = unflatten(np.zeros(layout.flat_size), layout)
    return psi.mlp


def forward_one(mlp, features):
    """(mu [P], lambda) of a single frame through a one-MLP stack."""
    mu, lam, finite = controller_forward_batch(mlp, features[None, :])
    assert finite
    return mu[0], float(lam[0])


def compose_one(lam, mu, dirs, renormalize=False):
    """compose_update for a single segment holding every direction."""
    dirs = np.stack(dirs)
    offsets = np.array([0, dirs.shape[1]])
    return compose_update(np.array([lam]), mu[None, :], dirs,
                          segment_norms(dirs, offsets), offsets, renormalize)


def compose_reference(lam, mu, dirs, offsets, renormalize):
    """The per-segment, per-provider loop that compose_update vectorizes."""
    out = []
    for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        blend = np.zeros(b - a)
        for p, d in enumerate(dirs):
            norm = np.linalg.norm(d[a:b])
            if norm >= NORM_FLOOR:
                blend += (mu[i, p] / norm) * d[a:b]
        if renormalize:
            blend_norm = float(np.linalg.norm(blend))
            if blend_norm >= NORM_FLOOR:
                blend /= blend_norm
        out.append(float(lam[i]) * blend)
    return np.concatenate(out)


class TestEmaTracker:
    def test_gamma_zero_tracks_latest(self):
        tr = EmaTracker(1, gammas=(0.0,))
        for k, xi in enumerate([2.0, -1.0, 5.5], 1):
            tr.update(np.array([xi]), np.array([[[xi, xi]]]))
            comp, loss = tr.read(k)
            assert comp[0, 0, 0, 0] == xi
            assert loss[0, 0] == xi

    def test_two_step_hand_recursion(self):
        # gamma 0.9: a1 = 0.1*1 = 0.1, a2 = 0.9*0.1 + 0.1*3 = 0.39
        tr = EmaTracker(1, gammas=(0.9,))
        tr.update(np.array([1.0]), np.array([[[1.0, 1.0]]]))
        tr.update(np.array([3.0]), np.array([[[3.0, 3.0]]]))
        assert tr._loss[0, 0] == pytest.approx(0.39, abs=1e-15)
        _, loss = tr.read(2)
        assert loss[0, 0] == pytest.approx(0.39 / 0.19, abs=1e-12)
        assert loss[0, 0] == pytest.approx(2.052632, abs=1e-6)

    def test_constant_stream_closed_form(self):
        tr = EmaTracker(1, gammas=(0.9,))
        xi = 4.0
        for k in range(1, 20):
            tr.update(np.array([xi]), np.array([[[xi, xi]]]))
            # raw accumulator follows the geometric series xi * (1 - gamma^k)
            assert tr._loss[0, 0] == pytest.approx(xi * (1 - 0.9 ** k), rel=1e-13)
            _, loss = tr.read(k)
            assert abs(loss[0, 0] - xi) < 1e-12

    def test_first_read_equals_first_sample(self):
        for gamma in (0.0, 0.5, 0.99):
            tr = EmaTracker(2, gammas=(gamma,))
            stats = np.array([[1.5, -2.0], [0.25, 3.0]])
            tr.update(np.array([7.0]), stats[None])
            comp, loss = tr.read(1)
            np.testing.assert_allclose(comp[0, :, :, 0], stats, rtol=0, atol=1e-15)
            assert loss[0, 0] == pytest.approx(7.0, abs=1e-15)

    def test_read_before_update_errors(self):
        with pytest.raises(ValueError):
            EmaTracker(1).read(0)

    def test_rows_match_single_trackers(self):
        rng = np.random.default_rng(16)
        batched = EmaTracker(3, rows=(4,))
        single = [EmaTracker(3) for _ in range(4)]
        for _ in range(6):
            losses, stats = rng.normal(size=4), rng.normal(size=(4, 3, 2))
            batched.update(losses, stats)
            for tr, loss, st in zip(single, losses, stats):
                tr.update(np.array([loss]), st[None])
        comp, loss = batched.read(6)
        for row, tr in zip(comp, single):
            np.testing.assert_array_equal(row, tr.read(6)[0][0])
        np.testing.assert_array_equal(loss, [t.read(6)[1][0] for t in single])

    def test_empty_gamma_set(self):
        tr = EmaTracker(3, gammas=())
        tr.update(np.array([1.0]), np.zeros((1, 3, 2)))
        comp, loss = tr.read(1)
        assert comp.shape == (1, 3, 2, 0)
        assert loss.shape == (1, 0)


class TestTimeFeatures:
    def test_midpoint_relative_feature_is_zero(self):
        f = time_features(50, 100)
        assert f[5] == 0.0  # alpha = 0.5 exactly

    def test_final_step_alpha_zero(self):
        f = time_features(100, 100)
        assert f[0] == pytest.approx(math.tanh(10.0), abs=1e-12)

    def test_absolute_feature_exact_zero(self):
        f = time_features(1, 1000)
        assert f[11 + 1] == 0.0  # K * 1e-3 == 1.0 exactly

    def test_absolute_feature_small_k(self):
        f = time_features(1, 100)
        assert f[11] == pytest.approx(math.tanh(math.log(0.01)), abs=1e-12)
        assert f[11] == pytest.approx(-0.99980, abs=1e-5)

    def test_all_in_open_interval(self):
        for K in (1, 3, 10, 500, 10000):
            for k in range(1, min(K, 64) + 1):
                f = time_features(k, K)
                assert len(f) == 15
                assert np.all(f > -1.0) and np.all(f < 1.0)

    def test_relative_monotone_in_k(self):
        K = 77
        prev = time_features(1, K)[:11]
        for k in range(2, K + 1):
            cur = time_features(k, K)[:11]
            assert np.all(cur >= prev)
            prev = cur

    def test_absolute_monotone_in_K(self):
        prev = time_features(1, 1)[11:]
        for K in (2, 5, 17, 300, 4096):
            cur = time_features(1, K)[11:]
            assert np.all(cur >= prev)
            prev = cur

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            time_features(0, 10)
        with pytest.raises(ValueError):
            time_features(11, 10)
        with pytest.raises(ValueError):
            time_features(1, 0)


class TestLayoutAndCodec:
    def test_default_flat_length(self):
        layout = PsiLayout(n_components=4, base_kinds=SGD_ADAM)
        assert layout.feature_dim == 42
        assert layout.mlp_size == 1955
        assert layout.flat_size == 1955 + 64 + 2 == 2021

    def test_roundtrip_bitwise(self):
        layout = PsiLayout(n_components=3, base_kinds=SGD_ADAM)
        vec = np.random.default_rng(0).normal(size=layout.flat_size)
        psi = unflatten(vec.copy(), layout)
        assert np.array_equal(flatten(psi), vec)

    def test_single_slot_perturbation_is_local(self):
        layout = PsiLayout(n_components=2, base_kinds=SGD_ADAM)
        vec = np.random.default_rng(1).normal(size=layout.flat_size)
        for slot in [0, 100, layout.mlp_size + 3, layout.flat_size - 1]:
            bumped = vec.copy()
            bumped[slot] += 1.0
            a, b = unflatten(vec, layout), unflatten(bumped, layout)
            arrays_a = [*a.mlp.arrays(), a.embeddings, a.hyper_raw]
            arrays_b = [*b.mlp.arrays(), b.embeddings, b.hyper_raw]
            changed = sum(int(not np.array_equal(x, y)) for x, y in zip(arrays_a, arrays_b))
            assert changed == 1
            total_diff = sum(int(np.sum(x != y)) for x, y in zip(arrays_a, arrays_b))
            assert total_diff == 1

    def test_stacked_mlp_views_alias_flat(self):
        layout = PsiLayout(n_components=3, base_kinds=SGD_ADAM, variant=Variant.PER_LAYER_MLP)
        vec = np.arange(layout.flat_size, dtype=float)
        psi = unflatten(vec, layout)
        for arr, shape in zip(psi.mlp.arrays(), layout.mlp_shapes):
            assert arr.shape == (3, *shape)
            assert np.shares_memory(arr, vec)
        # MLP i is the i-th consecutive block of mlp_size values
        assert psi.mlp.w1[1, 0, 0] == layout.mlp_size
        assert psi.mlp.b3[2, -1] == 3 * layout.mlp_size - 1

    def test_batched_rows_equal_single_unflatten(self):
        layout = PsiLayout(n_components=3, base_kinds=SGD_ADAM)
        batch = np.random.default_rng(2).normal(size=(3, layout.flat_size))
        psi = unflatten(batch, layout)
        for c in range(3):
            one = unflatten(batch[c], layout)
            for a, b in zip([*psi.mlp.arrays(), psi.embeddings, psi.hyper_raw],
                            [*one.mlp.arrays(), one.embeddings, one.hyper_raw]):
                assert np.shares_memory(a, batch)
                np.testing.assert_array_equal(a[c], b)

    def test_length_mismatch_rejected(self):
        layout = PsiLayout(n_components=2, base_kinds=SGD_ADAM)
        with pytest.raises(ValueError):
            unflatten(np.zeros(layout.flat_size + 1), layout)
        with pytest.raises(ValueError):
            unflatten(np.zeros((1, 1, layout.flat_size)), layout)

    def test_variant_feature_dims(self):
        no_emb = PsiLayout(n_components=4, base_kinds=SGD_ADAM, variant=Variant.NO_EMBEDDING)
        assert no_emb.feature_dim == 26
        empty_gamma = PsiLayout(n_components=4, base_kinds=SGD_ADAM, gammas=())
        assert empty_gamma.feature_dim == 33

    def test_per_layer_mlp_parameter_count(self):
        shared = PsiLayout(n_components=4, base_kinds=SGD_ADAM, variant=Variant.NO_EMBEDDING)
        per_layer = PsiLayout(n_components=4, base_kinds=SGD_ADAM, variant=Variant.PER_LAYER_MLP)
        assert per_layer.flat_size == 4 * shared.mlp_size + shared.n_hyper

    def test_sizes_are_fixed_at_construction(self):
        # the derived sizes are attributes, not fields: equality, hashing,
        # repr and pickling see the four fields, and replace recomputes them
        layout = PsiLayout(n_components=4, base_kinds=SGD_ADAM)
        again = pickle.loads(pickle.dumps(layout))
        assert again == layout and hash(again) == hash(layout)
        assert again.flat_size == layout.flat_size == 2021
        assert "flat_size" not in repr(layout)
        per_layer = dataclasses.replace(layout, variant=Variant.PER_LAYER_MLP)
        assert per_layer.n_mlps == 4 and per_layer.embedding_size == 0
        assert per_layer.flat_size == 4 * per_layer.mlp_size + per_layer.n_hyper

    def test_hyper_count_follows_base_set(self):
        all_six = PsiLayout(
            n_components=4,
            base_kinds=tuple(OptimizerKind),
        )
        # sgd and weight_decay carry no betas
        assert all_six.n_hyper == 2 * 4


class TestInitMetaParams:
    def test_fresh_controller_is_uniform_with_tiny_lambda(self):
        layout = PsiLayout(n_components=4, base_kinds=SGD_ADAM)
        psi = init_meta_params(layout, seed=3)
        features = np.random.default_rng(5).normal(size=layout.feature_dim)
        mu, lam = forward_one(psi.mlp, features)
        np.testing.assert_allclose(mu, [0.5, 0.5], rtol=0, atol=1e-15)
        assert lam == pytest.approx(LAMBDA_INIT, rel=1e-14)

    def test_recovered_betas(self):
        layout = PsiLayout(n_components=2, base_kinds=SGD_ADAM)
        psi = init_meta_params(layout, seed=0)
        beta1, beta2 = sigmoid(psi.hyper_raw)
        assert abs(beta1 - 0.9) < 1e-12
        assert abs(beta2 - 0.999) < 1e-12

    def test_deterministic(self):
        layout = PsiLayout(n_components=3, base_kinds=SGD_ADAM)
        a = init_meta_params(layout, seed=11)
        b = init_meta_params(layout, seed=11)
        assert np.array_equal(a.flat, b.flat)


class TestBankBetas:
    def test_bank_betas_are_the_squashed_raw_values(self):
        # every learned beta reaches the bank as float(sigmoid(raw)), bit for
        # bit; a row with a beta that rounds to 1.0 or 0.0 runs on the
        # defaults and is reported invalid
        spec = NetworkSpec(3, (4,), 2)
        kinds = tuple(OptimizerKind)
        layout = PsiLayout(n_components=len(spec.components()), base_kinds=kinds)
        psi = init_meta_params(layout, seed=0).flat
        block = psi + 0.1 * np.random.default_rng(9).standard_normal((5, len(psi)))
        raw = block[:, layout.flat_size - layout.n_hyper:]
        raw[1, 0] = 40.0
        raw[3, 5] = -800.0
        ctx = ControllerContext(unflatten(block, layout), spec, K=[5])
        learned = [p for p, kind in enumerate(kinds) if kind in KINDS_WITH_BETAS]
        defaults = default_betas(kinds)
        for c in range(len(block)):
            for p, (beta1, beta2) in enumerate(ctx.bank._betas):
                got = (beta1[c, 0].item(), beta2[c, 0].item())
                if c in (1, 3) or p not in learned:
                    assert got == tuple(defaults[p].tolist())
                else:
                    i = 2 * learned.index(p)
                    want = (float(sigmoid(raw[c, i])), float(sigmoid(raw[c, i + 1])))
                    assert got == want
        params = np.tile(init_params(spec, seed=0), (1, len(block), 1))
        grads = np.random.default_rng(10).normal(size=params.shape)
        finite = ctx.step(params, grads, np.ones((1, len(block))), 1)
        np.testing.assert_array_equal(finite, [[True, False, True, False, True]])


class TestControllerForward:
    def test_hand_softmax(self):
        layout = PsiLayout(n_components=1, base_kinds=SGD_ADAM)
        mlp = zero_mlp(layout)
        mlp.b3[:] = [math.log(3.0), 0.0, 0.0]
        mu, lam = forward_one(mlp, np.zeros(layout.feature_dim))
        np.testing.assert_allclose(mu, [0.75, 0.25], rtol=0, atol=1e-15)
        assert lam == 1.0

    def test_shift_invariance(self):
        layout = PsiLayout(n_components=1, base_kinds=SGD_ADAM)
        mlp = zero_mlp(layout)
        mlp.b3[:] = [0.4, -1.1, 0.0]
        mu1, _ = forward_one(mlp, np.zeros(layout.feature_dim))
        mlp.b3[0, :2] += 17.0
        mu2, _ = forward_one(mlp, np.zeros(layout.feature_dim))
        np.testing.assert_allclose(mu1, mu2, rtol=0, atol=1e-15)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mu_sums_to_one_lambda_positive(self, seed):
        layout = PsiLayout(n_components=1, base_kinds=SGD_ADAM)
        rng = np.random.default_rng(seed)
        psi = unflatten(rng.normal(scale=0.7, size=layout.flat_size), layout)
        mu, lam = forward_one(psi.mlp, rng.normal(size=layout.feature_dim))
        assert abs(mu.sum() - 1.0) <= 1e-12
        assert np.all(mu > 0)
        assert lam > 0

    def test_stacked_forward_equals_each_mlp_alone(self):
        layout = PsiLayout(n_components=4, base_kinds=tuple(OptimizerKind),
                           variant=Variant.PER_LAYER_MLP)
        rng = np.random.default_rng(13)
        psi = unflatten(rng.normal(scale=0.3, size=layout.flat_size), layout)
        frames = rng.normal(size=(4, layout.feature_dim))
        mu, lam, _ = controller_forward_batch(psi.mlp, frames)
        for i in range(4):
            alone = Mlp(*(a[i:i + 1] for a in psi.mlp.arrays()))
            mu_i, lam_i = forward_one(alone, frames[i])
            np.testing.assert_array_equal(mu[i], mu_i)
            assert lam[i] == lam_i

    def test_candidate_axis_rows_match_single_psi(self):
        # a batch of psi rows [C, flat] through frames [C, L, F]: every row
        # gets the bits of its own one-psi forward, and a row with
        # overflowing logits is flagged without touching the others
        for variant in Variant:
            layout = PsiLayout(n_components=3, base_kinds=tuple(OptimizerKind), variant=variant)
            rng = np.random.default_rng(15)
            flat = rng.normal(scale=0.3, size=(4, layout.flat_size))
            flat[2, :layout.mlp_size] *= 1e200
            rows = 1 if variant == Variant.GLOBAL else 3
            frames = rng.normal(size=(4, rows, layout.feature_dim))
            mu, lam, finite = controller_forward_batch(unflatten(flat, layout).mlp, frames)
            np.testing.assert_array_equal(finite, [True, True, False, True])
            for c in (0, 1, 3):
                mu_c, lam_c, ok = controller_forward_batch(unflatten(flat[c], layout).mlp, frames[c])
                assert ok
                np.testing.assert_array_equal(mu[c], mu_c)
                np.testing.assert_array_equal(lam[c], lam_c)

    def test_width_mismatch_rejected(self):
        layout = PsiLayout(n_components=1, base_kinds=SGD_ADAM)
        with pytest.raises(ValueError):
            controller_forward_batch(zero_mlp(layout), np.zeros((1, layout.feature_dim + 1)))

    @given(st.sampled_from([(), (3,), (2, 3)]), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_mixing_softmax_keeps_the_reduction_bits(self, lead, n_providers, data):
        # a zero MLP whose output bias holds each row's logits, ties, both
        # zeros, both infinities and NaN among them: mu has the bits of a
        # softmax shifted by logits.max and normalized by one exp.sum
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -3.0, 700.0, -745.0,
                                            np.inf, -np.inf, np.nan]),
                           st.floats(-50.0, 50.0))
        b3 = data.draw(hnp.arrays(np.float64, (*lead, 1, n_providers + 1), elements=values))
        width = 3
        mlp = Mlp(np.zeros((1, width, 32)), np.zeros((1, 32)), np.zeros((1, 32, 16)),
                  np.zeros((1, 16)), np.zeros((1, 16, n_providers + 1)), b3)
        mu, _, finite = controller_forward_batch(mlp, np.ones((*lead, 1, width)))
        logits = 0.0 + b3  # what the zero hidden layers add to the bias
        with np.errstate(over="ignore", invalid="ignore"):
            mix = logits[..., :-1] - logits[..., :-1].max(axis=-1, keepdims=True)
            e = np.exp(mix)
            ref = e / e.sum(axis=-1, keepdims=True)
            lam = np.exp(logits[..., -1])
        assert mu.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(
            finite, np.isfinite(logits).all(axis=(-2, -1)) & np.isfinite(lam).all(axis=-1))


class TestComposeUpdate:
    def test_single_direction_norm_is_lambda(self):
        d = np.array([3.0, -4.0])
        out = compose_one(0.37, np.array([1.0]), [d])
        assert np.linalg.norm(out) == pytest.approx(0.37, rel=1e-14)

    def test_antipodal_cancellation(self):
        d = np.array([1.0, 2.0, -1.0])
        out = compose_one(1.0, np.array([0.5, 0.5]), [d, -d])
        assert np.abs(out).max() < 1e-15

    def test_orthonormal_pythagoras(self):
        d1 = np.array([1.0, 0.0])
        d2 = np.array([0.0, 1.0])
        out = compose_one(1.0, np.array([0.5, 0.5]), [d1, d2])
        assert np.linalg.norm(out) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert np.linalg.norm(out) == pytest.approx(0.70711, abs=1e-5)

    def test_tiny_direction_contributes_zero(self):
        d1 = np.array([0.0, 1e-13])
        d2 = np.array([2.0, 0.0])
        out = compose_one(1.0, np.array([0.5, 0.5]), [d1, d2])
        np.testing.assert_allclose(out, [0.5, 0.0], rtol=0, atol=1e-15)

    def test_zero_lambda_zero_update(self):
        out = compose_one(0.0, np.array([0.6, 0.4]),
                             [np.array([5.0, 1.0]), np.array([-2.0, 7.0])])
        assert np.all(out == 0.0)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        dirs = [rng.normal(size=5) for _ in range(3)]
        mu = np.array([0.2, 0.5, 0.3])
        base = compose_one(1.3, mu, dirs)
        scaled = compose_one(1.3, mu, [dirs[0], 1e6 * dirs[1], dirs[2]])
        assert np.abs(base - scaled).max() <= 1e-12

    def test_renormalized_variant_norm_is_exactly_lambda(self):
        rng = np.random.default_rng(3)
        dirs = [rng.normal(size=4) for _ in range(2)]
        out = compose_one(0.9, np.array([0.5, 0.5]), dirs, renormalize=True)
        assert np.linalg.norm(out) == pytest.approx(0.9, rel=1e-12)

    def test_flat_segments_equal_per_segment_loop(self):
        rng = np.random.default_rng(14)
        offsets = np.array([0, 6, 9, 17, 18])
        for trial in range(50):
            P = int(rng.integers(1, 5))
            dirs = rng.normal(size=(P, 18)) * 10.0 ** rng.integers(-14, 3, size=(P, 1))
            dirs[:, 9:17] *= trial % 2  # whole segments of zero directions
            mu = rng.dirichlet(np.ones(P), size=4)
            lam = rng.uniform(0.0, 2.0, size=4)
            for renormalize in (False, True):
                out = compose_update(lam, mu, dirs, segment_norms(dirs, offsets),
                                     offsets, renormalize)
                ref = compose_reference(lam, mu, dirs, offsets, renormalize)
                np.testing.assert_array_equal(out, ref)


class TestBuildFeatures:
    def test_frame_width_and_embedding_slots(self):
        layout = PsiLayout(n_components=2, base_kinds=SGD_ADAM)
        ema_comp = np.zeros((2, 2, 3))
        ema_loss = np.zeros(3)
        tf = np.zeros(15)
        emb = np.arange(2 * EMBED_DIM, dtype=float).reshape(2, EMBED_DIM)
        dirn = np.zeros((2, 2))
        frames = build_features(ema_comp, ema_loss, tf, emb, dirn)
        assert frames.shape == (2, layout.feature_dim)
        diff = frames[0] != frames[1]
        assert diff.sum() == EMBED_DIM
        assert np.all(np.nonzero(diff)[0] == np.arange(9 + 15, 9 + 15 + EMBED_DIM))


class TestVariants:
    def test_zero_direction_log_norm_floor(self):
        # a zero gradient gives zero SGD directions; the policy hook (and the
        # MLP features, which share decide's log_norms) see log(NORM_FLOOR)
        spec = NetworkSpec(3, (4,), 2)
        params = init_params(spec, seed=0)
        layout = PsiLayout(n_components=len(spec.components()), base_kinds=(OptimizerKind.SGD,))
        seen = []

        def record_policy(log_norms):
            seen.append(log_norms.copy())
            return np.ones(1), 0.0

        psi = unflatten(init_meta_params(layout, seed=0).flat[None], layout)
        ctx = ControllerContext(psi, spec, K=[1], policy=record_policy)
        zeros = np.zeros((1, 1, params.size))
        ctx.step(params[None, None], zeros, losses=np.zeros((1, 1)), k=1)
        (log_norms,) = seen
        assert log_norms.shape == (1, 1, len(spec.components()), 1)
        assert log_norms == pytest.approx(math.log(NORM_FLOOR))
        assert log_norms == pytest.approx(-27.631, abs=1e-3)

    def test_one_dimensional_psi_rejected(self):
        spec = NetworkSpec(3, (4,), 2)
        layout = PsiLayout(n_components=len(spec.components()), base_kinds=SGD_ADAM)
        with pytest.raises(ValueError, match="row-batched"):
            ControllerContext(init_meta_params(layout, seed=0), spec, K=[1])

    def test_global_identical_across_components(self):
        spec = NetworkSpec(6, (5,), 3)
        params = init_params(spec, seed=1)
        layout = PsiLayout(n_components=len(spec.components()), base_kinds=SGD_ADAM,
                           variant=Variant.GLOBAL)
        psi = init_meta_params(layout, seed=2)
        psi.flat[:] += np.random.default_rng(3).normal(scale=0.3, size=layout.flat_size)
        ctx = ControllerContext(unflatten(psi.flat[None], layout), spec, K=[4], record=True)
        rng = np.random.default_rng(4)
        flat = params[None, None]
        for k in range(1, 5):
            grads = rng.normal(size=flat.shape)
            finite = ctx.step(flat, grads, losses=np.ones((1, 1)), k=k)
            assert finite.tolist() == [[True]]
            rows = [r for r in ctx.trajectories[0] if r.step == k]
            assert len(rows) == len(spec.components())
            assert all(r.mu == rows[0].mu and r.lam == rows[0].lam for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_global_whole_model_norm_that_overflows_kills_only_its_row(self):
        # candidate 1's two weight segments each have the finite norm
        # 1.2e154, but the sum of their squares, the global variant's
        # whole-model norm, overflows; once that raised a RuntimeWarning
        spec = NetworkSpec(3, (4,), 2)
        layout = PsiLayout(n_components=len(spec.components()), base_kinds=SGD_ADAM,
                           variant=Variant.GLOBAL)
        psi = init_meta_params(layout, seed=0).flat
        ctx = ControllerContext(unflatten(np.stack([psi, psi]), layout), spec, K=[3])
        params = np.tile(init_params(spec, seed=1), (1, 2, 1))
        offsets = spec.offsets()
        params[0, 1, :offsets[2]] = 0.0
        params[0, 1, offsets[:2]] = 1.2e154
        weight_norms = segment_norms(params[..., None, :], offsets)[0, 1, :2, 0]
        assert weight_norms.tolist() == [1.2e154, 1.2e154]
        grads = np.random.default_rng(2).normal(size=params.shape)
        assert ctx.step(params, grads, np.ones((1, 2)), 1).tolist() == [[True, False]]

    def test_embeddings_differentiate_components(self):
        # identical statistics, different embedding rows: mu/lambda may differ;
        # the no-embedding variant must give identical outputs instead
        for variant, expect_equal in [(Variant.FULL, False), (Variant.NO_EMBEDDING, True)]:
            layout = PsiLayout(n_components=2, base_kinds=SGD_ADAM, variant=variant)
            psi = init_meta_params(layout, seed=5)
            psi.flat[:] += np.random.default_rng(6).normal(scale=0.5, size=layout.flat_size)
            ema_comp = np.tile(np.array([[0.3], [0.3]])[:, :, None], (1, 2, 3))
            frames = build_features(ema_comp, np.zeros(3), time_features(1, 10),
                                    psi.embeddings, np.zeros((2, 2)))
            mu0, lam0 = forward_one(psi.mlp, frames[0])
            mu1, lam1 = forward_one(psi.mlp, frames[1])
            same = np.allclose(mu0, mu1) and lam0 == pytest.approx(lam1)
            assert same == expect_equal


class TestPsiCheckpoint:
    def test_roundtrip_value_exact(self, tmp_path):
        layout = PsiLayout(n_components=4, base_kinds=SGD_ADAM)
        psi = init_meta_params(layout, seed=9)
        psi.flat[:] += np.random.default_rng(10).normal(size=layout.flat_size)
        path = tmp_path / "psi.json"
        save_psi(path, psi, extra={"generation": 12})
        loaded, doc = load_psi(path)
        assert np.array_equal(loaded.flat, psi.flat)
        assert loaded.layout == layout
        assert doc["generation"] == 12

    def test_layout_survives(self, tmp_path):
        layout = PsiLayout(n_components=2,
                           base_kinds=(OptimizerKind.LION, OptimizerKind.SGD),
                           gammas=(0.9,), variant=Variant.NO_EMBEDDING)
        psi = init_meta_params(layout, seed=0)
        save_psi(tmp_path / "p.json", psi)
        loaded, _ = load_psi(tmp_path / "p.json")
        assert loaded.layout == layout
