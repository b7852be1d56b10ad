import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l3rs.controller import PsiLayout, flatten, init_meta_params
from l3rs.meta import (
    CandidateEvaluator,
    NesConfig,
    NesState,
    Task,
    TaskDistributionSpec,
    controller_stepper_factory,
    derived_rng,
    generation_perturbations,
    generation_task_seeds,
    initial_psi,
    inner_loop_eval,
    load_pretrained,
    make_task,
    meta_train,
    nes_generation,
    pretrain_checkpoint,
    pretrain_eval,
    save_pretrained,
    shaped_utilities,
)
from l3rs.nnlite import forward, init_params, layer_views, mean_cross_entropy
from l3rs.optdir import OptimizerKind

SGD_ADAM = (OptimizerKind.SGD, OptimizerKind.ADAM)
DIST = TaskDistributionSpec()


def layout_for(dist, **kw):
    return PsiLayout(n_components=len(dist.task_network().components()),
                     base_kinds=SGD_ADAM, **kw)


class TestTaskSampling:
    def test_regeneration_is_bit_identical(self):
        t1 = make_task(DIST, seed=77, split="metatest")
        t2 = make_task(DIST, seed=77, split="metatest")
        assert t1.seed == (77,) and t1.horizons.shape == (1,)
        assert t1.K == t2.K and t1.class_ids == t2.class_ids
        assert np.array_equal(t1.theta0, t2.theta0)
        for ba, bb in zip(t1.train_batches, t2.train_batches):
            assert np.array_equal(ba.x, bb.x) and np.array_equal(ba.y, bb.y)
        assert np.array_equal(t1.eval_batch.x, t2.eval_batch.x)

    def test_sample_task_records_usable_seed(self):
        # the seeds the NES loop draws for a generation are recorded on the
        # task and rebuild it bit for bit
        for seed in generation_task_seeds(NesConfig(meta_batch=3, seed=5), 0):
            t = make_task(DIST, seed, split="metatrain")
            assert t.seed == (seed,)
            again = make_task(DIST, t.seed[0], split="metatrain")
            assert np.array_equal(t.eval_batch.x, again.eval_batch.x)

    def test_forced_class_subset(self):
        # classes_per_task equals the split size, so every task uses the whole split
        t = make_task(DIST, seed=3, split="metatest")
        assert t.class_ids == (tuple(DIST.split_classes("metatest")),)

    def test_fixed_horizon_range(self):
        dist = dataclasses.replace(DIST, k_min=10, k_max=10)
        for seed in range(5):
            assert make_task(dist, seed).K == 10

    def test_horizons_sample_full_range(self):
        ks = {make_task(DIST, seed).K for seed in range(200)}
        assert min(ks) >= DIST.k_min and max(ks) <= DIST.k_max
        assert len(ks) > 10

    def test_labels_remapped(self):
        t = make_task(DIST, seed=8, split="metatest")
        for b in [*t.train_batches, t.eval_batch]:
            assert b.y.min() >= 0 and b.y.max() < DIST.classes_per_task

    def test_head_reinit_from_checkpoint(self):
        ckpt = pretrain_checkpoint(DIST, steps=5, seed=1)
        t = make_task(DIST, seed=2, init_from=ckpt)
        # body copied bitwise, head re-drawn at the task's width
        body = DIST.pretrain_network().offsets()[-3]
        assert body == t.spec.offsets()[-3]
        assert np.array_equal(t.theta0[0, :body], ckpt[:body])
        head_kernel, head_bias = layer_views(t.spec, t.theta0[0])[-1]
        assert head_kernel.shape == (DIST.hidden[-1], DIST.classes_per_task)
        assert np.all(head_bias == 0.0)

    def test_checkpoint_of_wrong_length_rejected(self):
        ckpt = pretrain_checkpoint(DIST, steps=0, seed=1)
        task_net = init_params(DIST.task_network(), seed=0)  # the head already swapped
        for bad in (ckpt[:-1], np.append(ckpt, 0.0), ckpt[None], task_net):
            with pytest.raises(ValueError, match="init_from"):
                make_task(DIST, seed=2, init_from=bad)

    def test_batch_prefix_shared_across_horizons(self):
        short = make_task(DIST, seed=4, k_override=5)
        long = make_task(DIST, seed=4, k_override=9)
        for a, b in zip(short.train_batches, long.train_batches):
            assert np.array_equal(a.x, b.x)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            make_task(DIST, seed=0, split="nope")
        with pytest.raises(ValueError):
            TaskDistributionSpec(pretrain_classes=20)


class TestInnerLoopEval:
    def test_zero_steps_scores_theta0(self):
        layout = layout_for(DIST)
        psi = flatten(init_meta_params(layout, seed=0))
        task = make_task(DIST, seed=1, k_override=0)
        res = inner_loop_eval(controller_stepper_factory(psi, layout), task)
        expected = mean_cross_entropy(
            forward(task.spec, task.theta0, task.eval_batch.x), task.eval_batch.y)
        assert res.meta_loss == expected

    def test_zero_lambda_stub_keeps_theta0(self):
        layout = layout_for(DIST)
        psi = flatten(init_meta_params(layout, seed=0))
        task = make_task(DIST, seed=6)

        def freeze_policy(log_norms):
            return np.array([1.0, 0.0]), 0.0

        res = inner_loop_eval(
            controller_stepper_factory(psi, layout, policy=freeze_policy), task)
        expected = mean_cross_entropy(
            forward(task.spec, task.theta0, task.eval_batch.x), task.eval_batch.y)
        assert res.meta_loss == expected

    def test_bit_identical_across_calls(self):
        layout = layout_for(DIST)
        psi = flatten(init_meta_params(layout, seed=2))
        task = make_task(DIST, seed=9)
        factory = controller_stepper_factory(psi, layout)
        r1 = inner_loop_eval(factory, task)
        r2 = inner_loop_eval(factory, task)
        assert r1.meta_loss == r2.meta_loss
        assert r1.train_losses == r2.train_losses

    def test_divergence_penalty(self):
        layout = layout_for(DIST)
        psi = flatten(init_meta_params(layout, seed=0))
        task = make_task(DIST, seed=3)

        def explode_policy(log_norms):
            return np.array([1.0, 0.0]), 1e200

        res = inner_loop_eval(
            controller_stepper_factory(psi, layout, policy=explode_policy), task)
        assert res.diverged
        assert res.meta_loss == 1e4

    def test_adam_oracle_solves_separable_task(self):
        # near-noiseless 2-class blobs are linearly separable; a plain Adam
        # run at lr 1e-2 must fit them within 30 steps
        from l3rs.bench import BaselineKind, BaselineSpec, baseline_handle

        dist = dataclasses.replace(DIST, blob_std=0.15, classes_per_task=2,
                                   metatest_classes=2, metatrain_classes=4,
                                   k_min=30, k_max=30)
        accs = []
        for seed in range(5):
            task = make_task(dist, seed=seed, split="metatest")
            res = baseline_handle(BaselineSpec(BaselineKind.ADAM_CONST, lr0=1e-2)).run(task)
            accs.append(res.eval_accuracy)
        assert np.mean(accs) >= 0.95


class TestFitness:
    """Candidate fitness as the NES loop computes it: CandidateEvaluator
    against the generation's shared tasks, checked with inner_loop_eval."""

    def evaluate(self, cfg, dist, layout, candidates):
        with CandidateEvaluator(cfg, dist, layout, init_from=None) as ev:
            return ev(np.stack(candidates), 0)

    def test_single_task(self):
        dist = dataclasses.replace(DIST, k_min=1, k_max=3)
        cfg = NesConfig(population=2, meta_batch=1, seed=0)
        layout = layout_for(dist)
        psi = flatten(init_meta_params(layout, seed=0))
        f = self.evaluate(cfg, dist, layout, [psi, psi])
        task = make_task(dist, generation_task_seeds(cfg, 0)[0])
        res = inner_loop_eval(controller_stepper_factory(psi, layout), task)
        assert f[0] == f[1] == -res.meta_loss

    def test_mean_and_permutation_invariance(self):
        dist = dataclasses.replace(DIST, k_min=2, k_max=2)
        cfg = NesConfig(population=2, meta_batch=3, seed=0)
        layout = layout_for(dist)
        psi = flatten(init_meta_params(layout, seed=0))
        other = psi + 0.1 * np.random.default_rng(1).normal(size=psi.shape)
        f = self.evaluate(cfg, dist, layout, [psi, other])
        f_perm = self.evaluate(cfg, dist, layout, [other, psi])
        np.testing.assert_array_equal(f, f_perm[::-1])
        tasks = [make_task(dist, s) for s in generation_task_seeds(cfg, 0)]
        losses = [inner_loop_eval(controller_stepper_factory(psi, layout), t).meta_loss
                  for t in tasks]
        assert abs(f[0] + np.mean(losses)) < 1e-15
        assert abs(f[0] + np.mean(losses[::-1])) < 1e-15


class TestShapedUtilities:
    def test_rank_arithmetic(self):
        np.testing.assert_allclose(shaped_utilities([3.0, -1.0, 7.0]), [0.0, -0.5, 0.5])

    def test_monotone_invariance(self):
        f = np.array([0.3, -2.0, 1.1, 0.0, 5.0])
        np.testing.assert_array_equal(shaped_utilities(f), shaped_utilities(np.exp(f)))

    def test_two_candidates(self):
        np.testing.assert_allclose(sorted(shaped_utilities([1.0, 2.0])), [-0.5, 0.5])

    def test_ties_broken_by_index(self):
        u = shaped_utilities([1.0, 1.0, 1.0])
        np.testing.assert_allclose(u, [-0.5, 0.0, 0.5])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    @settings(max_examples=60)
    def test_sum_zero(self, values):
        assert abs(shaped_utilities(values).sum()) < 1e-9


class TestNes:
    def test_antithetic_perturbations_sum_to_zero(self):
        cfg = NesConfig(population=16, generations=1, seed=4)
        signed = generation_perturbations(cfg, 0, dim=33)
        assert signed.shape == (16, 33)
        # every draw is paired with its exact negation, so the multiset sums
        # to zero; pairwise float summation only sees rounding residue
        assert np.all(signed[:8] == -signed[8:])
        assert np.abs((signed[:8] + signed[8:]).sum(axis=0)).max() == 0.0
        assert np.abs(signed.sum(axis=0)).max() < 1e-12

    def test_update_norm_bounded_by_utilities(self):
        cfg = NesConfig(population=8, generations=1, sigma0=0.1, alpha0=0.05, seed=1)
        state = NesState(psi=np.zeros(20))
        signed = generation_perturbations(cfg, 0, 20)
        nes_generation(state, cfg, lambda cands, g: np.full(len(cands), 3.0))
        bound = (cfg.alpha0 / cfg.population) * 0.5 * np.sum(
            np.linalg.norm(signed, axis=1))
        assert np.linalg.norm(state.psi) <= bound

    def test_population_must_be_even(self):
        with pytest.raises(ValueError):
            NesConfig(population=7)

    def test_schedule_halves_per_period(self):
        cfg = NesConfig(population=4, decay_period=100)
        a0, s0 = cfg.schedule(0)
        a1, s1 = cfg.schedule(100)
        a2, s2 = cfg.schedule(200)
        assert a1 == a0 * 0.5 and s1 == s0 * 0.5
        assert a2 == a0 * 0.25 and s2 == s0 * 0.25

    def test_quadratic_convergence_smoke(self):
        # small version of the standing regression (full size in acceptance)
        dim, cfg = 10, NesConfig(population=16, generations=150, sigma0=0.1,
                                 alpha0=0.05, seed=0)
        rng = np.random.default_rng(3)
        target = rng.normal(size=dim)
        start = rng.normal(size=dim)
        start = target + (start - target) / np.linalg.norm(start - target)
        state = NesState(psi=start)
        for _ in range(cfg.generations):
            nes_generation(state, cfg,
                           lambda c, g: -np.sum((c - target) ** 2, axis=1))
        assert np.linalg.norm(state.psi - target) < 5e-2

    def test_task_seeds_shared_within_generation(self):
        cfg = NesConfig(population=4, meta_batch=3, seed=9)
        assert generation_task_seeds(cfg, 5) == generation_task_seeds(cfg, 5)
        assert generation_task_seeds(cfg, 5) != generation_task_seeds(cfg, 6)


class TestMetaTrain:
    def test_zero_generations_returns_init(self):
        dist = dataclasses.replace(DIST, k_min=1, k_max=2)
        cfg = NesConfig(population=4, meta_batch=1, generations=0, seed=7)
        layout = layout_for(dist)
        psi, history = meta_train(cfg, dist, layout)
        assert np.array_equal(psi, initial_psi(cfg, layout))
        assert history == []

    def test_history_length_equals_generations(self):
        dist = dataclasses.replace(DIST, k_min=1, k_max=2)
        cfg = NesConfig(population=4, meta_batch=1, generations=3, seed=7)
        layout = layout_for(dist)
        _, history = meta_train(cfg, dist, layout)
        assert len(history) == 3
        assert [h.generation for h in history] == [1, 2, 3]

    def test_worker_count_does_not_change_result(self):
        # workers 1, 2, 3 and 6 give one block of all four candidates, blocks
        # of 2+2, uneven blocks of 1+1+2, and 1+1+1+1 (the pool is capped at
        # the population), with a meta-batch below, at and above the worker
        # count: psi and history bytes must not move
        dist = dataclasses.replace(DIST, k_min=1, k_max=3)
        layout = layout_for(dist)
        ckpt = pretrain_checkpoint(dist, steps=3, seed=0)
        for meta_batch in (1, 2, 5):
            cfg = NesConfig(population=4, meta_batch=meta_batch, generations=2, seed=3)
            psi1, hist1 = meta_train(cfg, dist, layout, init_from=ckpt, workers=1)
            for workers in (1, 2, 3, 6):
                psi2, hist2 = meta_train(cfg, dist, layout, init_from=ckpt, workers=workers)
                assert np.array_equal(psi1, psi2)
                assert [h.mean_fitness for h in hist1] == [h.mean_fitness for h in hist2]
                assert psi1.tobytes() == psi2.tobytes()
                assert repr(hist1).encode() == repr(hist2).encode()

    @pytest.mark.parametrize("population,workers,sizes", [
        (4, 1, [4]), (4, 2, [2, 2]), (4, 3, [1, 1, 2]), (4, 6, [1, 1, 1, 1]),
        (16, 2, [8, 8]), (6, 4, [1, 2, 1, 2]), (16, 5, [3, 3, 3, 3, 4])])
    def test_candidate_blocks_even_and_never_empty(self, population, workers, sizes, monkeypatch):
        import l3rs.meta as meta_mod

        seen = []

        def record_block(args):
            block, task_seeds, _ = args
            seen.append(len(block))
            return np.zeros((len(block), len(task_seeds)))

        monkeypatch.setattr(meta_mod, "_eval_block_job", record_block)
        monkeypatch.setattr(meta_mod, "ProcessPoolExecutor", _InlinePool)
        cfg = NesConfig(population=population, meta_batch=1, seed=0)
        layout = layout_for(DIST)
        with CandidateEvaluator(cfg, DIST, layout, init_from=None, workers=workers) as ev:
            assert ev.workers == min(workers, population)
            ev(np.zeros((population, layout.flat_size)), 0)
        assert seen == sizes


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, maps inline."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def map(self, fn, jobs):
        return map(fn, jobs)

    def shutdown(self):
        pass


class TestPretrain:
    def test_zero_steps_is_fresh_init(self):
        a = pretrain_checkpoint(DIST, steps=0, seed=4)
        b = pretrain_checkpoint(DIST, steps=0, seed=4)
        fresh = init_params(DIST.pretrain_network(),
                            int(derived_rng(4, 5).integers(0, (1 << 63) - 1)))
        assert np.array_equal(a, b)
        assert np.array_equal(a, fresh)

    def test_deterministic(self):
        a = pretrain_checkpoint(DIST, steps=20, seed=4)
        b = pretrain_checkpoint(DIST, steps=20, seed=4)
        assert np.array_equal(a, b)

    def test_four_class_accuracy(self):
        dist = dataclasses.replace(DIST, pretrain_classes=4, metatrain_classes=4,
                                   metatest_classes=4)
        ckpt = pretrain_checkpoint(dist, steps=500, seed=7)
        _, acc = pretrain_eval(dist, ckpt, seed=7)
        assert acc >= 0.9

    def test_save_load_roundtrip(self, tmp_path):
        ckpt = pretrain_checkpoint(DIST, steps=5, seed=1)
        path = tmp_path / "ckpt.json"
        save_pretrained(path, DIST.pretrain_network(), ckpt)
        spec, loaded = load_pretrained(path)
        assert spec == DIST.pretrain_network()
        assert np.array_equal(ckpt, loaded)
