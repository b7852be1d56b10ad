import dataclasses
import math

import numpy as np
import pytest

from l3rs.bench import (
    BaselineKind,
    BaselineSpec,
    baseline_handle,
    controller_handle,
    cross_cells,
    evaluate_suite,
    run_ablation_battery,
    speedup,
    state_size_report,
    steps_to_target,
    write_ablation_csv,
    write_eval_csv,
)
from l3rs import bench, meta
from l3rs.controller import PsiLayout, Variant, flatten, init_meta_params
from l3rs.meta import (
    NesConfig,
    TaskDistributionSpec,
    controller_stepper_factory,
    cosine_lr,
    inner_loop_batch,
    inner_loop_eval,
    make_task,
    make_task_block,
    pretrain_checkpoint,
)
from l3rs.nnlite import NetworkSpec
from l3rs.optdir import OptimizerKind

DIST = TaskDistributionSpec()
SGD_ADAM = (OptimizerKind.SGD, OptimizerKind.ADAM)


def layout_for(dist, **kw):
    return PsiLayout(n_components=len(dist.task_network().components()),
                     base_kinds=SGD_ADAM, **kw)


class TestCosineLr:
    def test_starts_at_lr0(self):
        assert cosine_lr(1, 100, 0.3) == 0.3

    def test_midpoint_is_half(self):
        assert cosine_lr(51, 100, 0.3) == pytest.approx(0.15, rel=1e-12)

    def test_final_step_nearly_zero(self):
        assert cosine_lr(100, 100, 1.0) == pytest.approx(
            0.5 * (1 + math.cos(0.99 * math.pi)), rel=1e-12)
        assert cosine_lr(100, 100, 1.0) < 1e-3

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 10, 1.0)


class TestRunBaseline:
    def test_zero_lr_sgd_keeps_theta0(self):
        task = make_task(DIST, seed=1, k_override=7)
        res = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=0.0)).run(task)
        expected = inner_loop_eval(
            lambda t: _NullStepper(), task)
        assert res.meta_loss == expected.meta_loss

    def test_head_only_freezes_body_bitwise(self):
        ckpt = pretrain_checkpoint(DIST, steps=10, seed=0)
        task = make_task(DIST, seed=2, init_from=ckpt, k_override=12)
        spec = BaselineSpec(BaselineKind.ADAM_CONST, lr0=1e-2, head_only=True)
        stepper_holder = {}

        def factory(t):
            from l3rs.bench import BaselineStepper

            stepper_holder["s"] = BaselineStepper(spec, t.spec.offsets(), t.horizons)
            return stepper_holder["s"]

        # replay the run manually to capture the final params
        from l3rs.nnlite import loss_and_grad

        flat = task.theta0[:, None].copy()  # the step runs in place: theta0 stays
        stepper = factory(task)
        for k in range(1, task.K + 1):
            losses, grads, _ = loss_and_grad(task.spec, flat, task.train_batches[k - 1])
            stepper.step(flat, grads, losses, k)
        off = task.spec.offsets()
        for a, b in zip(off[:-3], off[1:-2]):
            assert np.array_equal(flat[0, 0, a:b], task.theta0[0, a:b])
        assert not np.array_equal(flat[0, 0, off[-3]:off[-2]], task.theta0[0, off[-3]:off[-2]])

    def test_adam_const_matches_controller_stub(self):
        # lambda = lr * ||d_adam|| with a one-hot mix reproduces plain Adam
        eta = 1e-2
        task = make_task(DIST, seed=5, k_override=25)
        base = baseline_handle(BaselineSpec(BaselineKind.ADAM_CONST, lr0=eta)).run(task)

        layout = layout_for(DIST)
        psi = flatten(init_meta_params(layout, seed=0))

        def adam_stub(log_norms):
            return np.array([0.0, 1.0]), eta * np.exp(log_norms[..., 1])

        stub = inner_loop_eval(
            controller_stepper_factory(psi, layout, policy=adam_stub), task)
        assert abs(stub.meta_loss - base.meta_loss) < 1e-10


class _NullStepper:
    n_candidates = 1

    def step(self, params, grads, losses, k):
        return np.ones(losses.shape, dtype=bool)


class TestEvaluateSuite:
    def test_single_task_std_zero(self):
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-2))
        report = evaluate_suite([handle], DIST, n_tasks=1, k_list=[3], eval_seed=0)
        cell = report.cells[0]
        assert cell.std_acc == 0.0 and cell.std_loss == 0.0
        assert cell.n_tasks == 1

    def test_deterministic_and_paired(self):
        h1 = baseline_handle(BaselineSpec(BaselineKind.ADAM_CONST, lr0=1e-2))
        h2 = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-1))
        r1 = evaluate_suite([h1, h2], DIST, n_tasks=3, k_list=[2, 4], eval_seed=7)
        r2 = evaluate_suite([h1, h2], DIST, n_tasks=3, k_list=[2, 4], eval_seed=7)
        for a, b in zip(r1.cells, r2.cells):
            assert a.task_loss == b.task_loss
        # identical task seeds across optimizers at each K
        for K in (2, 4):
            assert (r1.cell(h1.label, K).task_seeds == r1.cell(h2.label, K).task_seeds)

    @pytest.mark.parametrize("n_tasks", [1, 5])
    def test_one_inner_loop_per_suite(self, monkeypatch, n_tasks):
        # one loss_and_grad call per step of the longest K, whatever the
        # number of optimizers, horizons and tasks in the suite
        calls = []
        original = meta.loss_and_grad
        monkeypatch.setattr(meta, "loss_and_grad",
                            lambda *a: calls.append(1) or original(*a))
        layout = layout_for(DIST)
        handles = [controller_handle(flatten(init_meta_params(layout, seed=0)), layout),
                   baseline_handle(BaselineSpec(BaselineKind.ADAM_COSINE, lr0=1e-2)),
                   baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-1))]
        k_list = [0, 2, 5]
        for n_handles in range(1, len(handles) + 1):
            calls.clear()
            report = evaluate_suite(handles[:n_handles], DIST, n_tasks=n_tasks,
                                    k_list=k_list, eval_seed=4)
            assert len(report.cells) == n_handles * len(k_list)
            assert len(calls) == max(k_list)

    def test_handles_never_interact(self):
        # a diverging optimizer leaves every other optimizer's bits alone,
        # and each handle's cells in a mixed suite are its suite run alone;
        # the controller between the baselines steps its uncopied view of
        # the grid, strided across the other handles' rows
        layout = layout_for(DIST)
        psi = flatten(init_meta_params(layout, seed=0))
        psi += 0.1 * np.random.default_rng(7).standard_normal(psi.shape)
        handles = [baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-1)),
                   controller_handle(psi, layout, label="ctrl"),
                   baseline_handle(BaselineSpec(BaselineKind.ADAM_CONST, lr0=1e-2))]
        wild = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e6))

        def suite(handles):
            return evaluate_suite(handles, DIST, n_tasks=3, k_list=[30, 8, 1], eval_seed=6)

        calm, mixed = suite(handles), suite([handles[0], wild, *handles[1:]])
        others = [c for c in mixed.cells if c.optimizer != wild.label]
        assert [dataclasses.astuple(c) for c in others] == [
            dataclasses.astuple(c) for c in calm.cells]
        for handle in [*handles, wild]:
            own = [c for c in mixed.cells if c.optimizer == handle.label]
            assert [dataclasses.astuple(c) for c in own] == [
                dataclasses.astuple(c) for c in suite([handle]).cells]
        assert meta.DIVERGENCE_PENALTY in mixed.cell(wild.label, 30).task_loss
        assert meta.DIVERGENCE_PENALTY not in mixed.cell("ctrl", 30).task_loss

    def test_empty_handle_list_gives_an_empty_report(self):
        assert evaluate_suite([], DIST, n_tasks=2, k_list=[3, 1], eval_seed=0).cells == []

    def test_psi_block_of_several_candidates_rejected(self):
        # a [C, flat_size] psi would put C results per task in one cell
        layout = layout_for(DIST)
        psi = np.stack([flatten(init_meta_params(layout, seed=s)) for s in (0, 1)])
        handle = controller_handle(psi, layout, label="two-psi")
        with pytest.raises(ValueError, match="'two-psi'"):
            evaluate_suite([handle], DIST, n_tasks=3, k_list=[2], eval_seed=0)

    def test_levels_share_the_block_draws(self, monkeypatch):
        # every K level reads the one block drawn at the largest K
        blocks, tasks = [], []
        draw, run = bench.make_task_block, bench.inner_loop_batch
        monkeypatch.setattr(bench, "make_task_block",
                            lambda *a, **kw: blocks.append(draw(*a, **kw)) or blocks[-1])
        monkeypatch.setattr(bench, "inner_loop_batch",
                            lambda f, task: tasks.append(task) or run(f, task))
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-1))
        evaluate_suite([handle], DIST, n_tasks=3, k_list=[2, 5, 3], eval_seed=2)
        (block,), (task,) = blocks, tasks
        assert task.horizons.shape == (3, 3) and task.horizons.ravel().tolist() == [5] * 3 + [3] * 3 + [2] * 3
        assert np.shares_memory(task.theta0, block.theta0)
        for mine, drawn in zip([*task.train_batches, task.eval_batch],
                               [*block.train_batches, block.eval_batch]):
            assert np.shares_memory(mine.x, drawn.x) and np.shares_memory(mine.y, drawn.y)

    def test_tasks_never_interact(self):
        # the first m tasks of an n-task report are the m-task report
        handles = [baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-1)),
                   baseline_handle(BaselineSpec(BaselineKind.ADAM_CONST, lr0=1e-2))]
        small = evaluate_suite(handles, DIST, n_tasks=2, k_list=[3, 6], eval_seed=9)
        large = evaluate_suite(handles, DIST, n_tasks=5, k_list=[3, 6], eval_seed=9)
        for a, b in zip(small.cells, large.cells):
            assert (a.optimizer, a.K) == (b.optimizer, b.K)
            assert a.task_seeds == b.task_seeds[:2]
            assert a.task_acc == b.task_acc[:2] and a.task_loss == b.task_loss[:2]

    @pytest.mark.parametrize("n_tasks", [0, -2])
    def test_needs_a_task(self, n_tasks):
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-2))
        with pytest.raises(ValueError, match="n_tasks"):
            evaluate_suite([handle], DIST, n_tasks=n_tasks, k_list=[2], eval_seed=0)

    def test_tasks_are_drawn_once_per_suite(self, monkeypatch):
        calls = []
        original = bench.make_task_block
        monkeypatch.setattr(bench, "make_task_block",
                            lambda *a, **kw: calls.append(a[2]) or original(*a, **kw))
        handles = [baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-1)),
                   baseline_handle(BaselineSpec(BaselineKind.ADAM_CONST, lr0=1e-2))]
        evaluate_suite(handles, DIST, n_tasks=3, k_list=[2, 5, 3], eval_seed=2)
        assert calls == [5]
        evaluate_suite(handles, DIST, n_tasks=3, k_list=[4], eval_seed=2)
        assert calls == [5, 4]

    def test_cells_equal_blocks_drawn_at_each_k(self):
        # every K runs on a prefix of one block; the reference draws the
        # block again at each K
        layout = layout_for(DIST)
        handles = [controller_handle(flatten(init_meta_params(layout, seed=1)), layout),
                   baseline_handle(BaselineSpec(BaselineKind.ADAM_COSINE, lr0=1e-2))]
        checkpoint = pretrain_checkpoint(DIST, 3, 0)
        k_list = [7, 0, 3, 7]
        report = evaluate_suite(handles, DIST, n_tasks=3, k_list=k_list, eval_seed=5,
                                init_from=checkpoint)
        seeds = bench.evaluation_task_seeds(5, 3)
        cells = iter(report.cells)
        for K in k_list:
            block = make_task_block(DIST, seeds, K, split="metatest", init_from=checkpoint)
            for handle in handles:
                results = inner_loop_batch(handle.factory, block)
                cell = next(cells)
                assert (cell.optimizer, cell.K, cell.task_seeds) == (handle.label, K, seeds)
                assert cell.task_acc == [r.eval_accuracy for r in results]
                assert cell.task_loss == [r.meta_loss for r in results]
        assert next(cells, None) is None

    def test_empty_k_list_gives_an_empty_report(self):
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-2))
        assert evaluate_suite([handle], DIST, n_tasks=2, k_list=[], eval_seed=0).cells == []

    def test_negative_k_rejected(self):
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-2))
        with pytest.raises(ValueError, match=">= 0"):
            evaluate_suite([handle], DIST, n_tasks=2, k_list=[3, -1], eval_seed=0)

    def test_spread_that_overflows_stays_finite(self):
        # SGD at lr 1e4 blows one task's loss up to about 5e235 without a
        # non-finite value, and np.std of the losses overflows in its square
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e4))
        report = evaluate_suite([handle], TaskDistributionSpec(hidden=(32, 32)), n_tasks=4,
                                k_list=[7], eval_seed=3)
        losses = np.array(report.cells[0].task_loss)
        assert np.isfinite(losses).all() and losses.max() > 1e200
        scale = losses.max()
        assert report.cells[0].std_loss == float(np.std(losses / scale) * scale)
        assert report.cells[0].std_acc == float(np.std(report.cells[0].task_acc))

    def test_spread_of_finite_values_whose_std_overflows(self):
        values = [1e308, -1e308, 1e308]
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.std(values))
        assert bench.spread(values) == float(np.std([1.0, -1.0, 1.0]) * 1e308)

    def test_csv_written(self, tmp_path):
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-2))
        report = evaluate_suite([handle], DIST, n_tasks=2, k_list=[2], eval_seed=1)
        path = tmp_path / "eval.csv"
        write_eval_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "optimizer,K,mean_acc,std_acc,mean_loss,std_loss,n_tasks"
        assert len(lines) == 2


class TestSpeedup:
    def test_twice_as_fast(self):
        ref = [(50, 0.8), (100, 0.9)]
        base = [(100, 0.8), (200, 0.9)]
        assert speedup(ref, base, [0.8]) == [pytest.approx(100.0)]

    def test_identical_curves_zero(self):
        curve = [(10, 0.5), (100, 0.9)]
        for s in speedup(curve, curve, [0.5, 0.7, 0.9]):
            assert s == pytest.approx(0.0)

    def test_unreachable_target_absent(self):
        curve = [(10, 0.5), (100, 0.9)]
        assert speedup(curve, curve, [0.95]) == [None]

    def test_log_interpolation(self):
        curve = [(10, 0.0), (1000, 1.0)]
        assert steps_to_target(curve, 0.5) == pytest.approx(100.0)


class TestStateSize:
    def test_sgd_zero(self):
        rep = state_size_report(BaselineSpec(BaselineKind.SGD_CONST, lr0=0.1),
                                DIST.task_network())
        assert rep.slots_ratio == 0.0 and rep.aux_scalars == 0

    def test_adam_two(self):
        for kind in (BaselineKind.ADAM_CONST, BaselineKind.ADAM_COSINE):
            rep = state_size_report(BaselineSpec(kind, lr0=0.1), DIST.task_network())
            assert rep.slots_ratio == 2.0

    def test_controller_sgd_adam(self):
        layout = layout_for(DIST)
        rep = state_size_report(layout, DIST.task_network())
        assert rep.slots_ratio == 2.0
        assert rep.aux_scalars == 6 * 4 + 3 + 1 == 28

    def test_aux_independent_of_model_size(self):
        big = NetworkSpec(100, (90,), 10)
        layout = PsiLayout(n_components=4, base_kinds=SGD_ADAM)
        rep = state_size_report(layout, big)
        assert rep.slots_ratio == 2.0
        assert rep.aux_scalars == 28

    def test_all_six_bank(self):
        layout = PsiLayout(n_components=4, base_kinds=tuple(OptimizerKind))
        rep = state_size_report(layout, DIST.task_network())
        # sgd 0 + adam 2 + adamax 2 + lion 1 + lamb 2 + weight_decay 0
        assert rep.slots_ratio == 7.0


def tiny_ablation_battery(cells):
    dist = dataclasses.replace(DIST, k_min=3, k_max=4)
    nes = NesConfig(population=4, meta_batch=1, generations=2, seed=0)
    return run_ablation_battery(dist, nes, cells, pretrain_steps=5, eval_n_tasks=2, eval_k=3)


class TestAblation:
    def test_cartesian_cell_count(self):
        cells = cross_cells([[OptimizerKind.SGD], SGD_ADAM, [OptimizerKind.ADAM]],
                            [Variant.FULL, Variant.NO_EMBEDDING,
                             Variant.PER_LAYER_MLP, Variant.GLOBAL])
        assert len(cells) == 12

    def test_mini_battery_rows_and_labels(self, tmp_path):
        cells = cross_cells([[OptimizerKind.SGD], SGD_ADAM],
                            [Variant.FULL, Variant.GLOBAL])
        runs = tiny_ablation_battery(cells)
        assert [cell for cell, _, _ in runs] == cells
        write_ablation_csv(runs, tmp_path / "ablation.csv")
        lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        for cell, line in zip(cells, lines[1:]):
            assert line.startswith(f"{cell.label},")

    def test_global_rows_have_component_identical_mu_lambda(self):
        cells = cross_cells([SGD_ADAM], [Variant.GLOBAL])
        ((_, _, rows),) = tiny_ablation_battery(cells)
        assert rows
        by_step = {}
        for r in rows:
            by_step.setdefault(r.step, []).append((r.mu, r.lam))
        for step, entries in by_step.items():
            assert len(entries) == 4  # one row per component
            assert all(e == entries[0] for e in entries)

    @pytest.mark.xfail(
        strict=False,
        reason="per-layer MLP meta-optimization stalls below the global "
               "variant at desk scale (measured ~0.92 vs ~0.96 across NES "
               "budgets from 80 to 500 generations), so the published "
               "embedding >= per-layer >= global ordering only holds for "
               "its first inequality here")
    def test_variant_ordering_matches_published_table(self):
        dist = dataclasses.replace(DIST, k_min=10, k_max=10)
        cells = cross_cells([SGD_ADAM], [Variant.FULL, Variant.PER_LAYER_MLP,
                                         Variant.GLOBAL])
        runs = run_ablation_battery(
            dist, NesConfig(population=8, meta_batch=2, generations=80, seed=0), cells,
            pretrain_steps=300, eval_n_tasks=20, eval_k=10)
        rows = {cell.variant.value: c for cell, c, _ in runs}
        emb = rows["full"]
        per_layer = rows["per_layer_mlp"]
        glob = rows["global"]

        def pooled_std(a, b):
            return math.sqrt((a.std_acc ** 2 + b.std_acc ** 2) / 2)

        assert emb.mean_acc >= per_layer.mean_acc - pooled_std(emb, per_layer)
        assert per_layer.mean_acc >= glob.mean_acc - pooled_std(per_layer, glob)
