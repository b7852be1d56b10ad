import dataclasses
import math

import numpy as np
import pytest

from l3rs.bench import (
    AblationConfig,
    BaselineKind,
    BaselineSpec,
    baseline_handle,
    cosine_lr,
    cross_cells,
    evaluate_suite,
    run_ablation_battery,
    speedup,
    state_size_report,
    steps_to_target,
    write_ablation_csv,
    write_eval_csv,
)
from l3rs.controller import PsiLayout, Variant, flatten, init_meta_params
from l3rs.meta import (
    NesConfig,
    TaskDistributionSpec,
    controller_stepper_factory,
    inner_loop_eval,
    make_task,
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
            lambda t, record=False: _NullStepper(), task)
        assert res.meta_loss == expected.meta_loss

    def test_head_only_freezes_body_bitwise(self):
        ckpt = pretrain_checkpoint(DIST, steps=10, seed=0)
        task = make_task(DIST, seed=2, init_from=ckpt, k_override=12)
        spec = BaselineSpec(BaselineKind.ADAM_CONST, lr0=1e-2, head_only=True)
        stepper_holder = {}

        def factory(t, record=False):
            from l3rs.bench import BaselineStepper

            stepper_holder["s"] = BaselineStepper(spec, t.spec.offsets(), t.K)
            return stepper_holder["s"]

        # replay the run manually to capture the final params
        from l3rs.nnlite import loss_and_grad

        flat = task.theta0[None]
        stepper = factory(task)
        for k in range(1, task.K + 1):
            losses, grads, _ = loss_and_grad(task.spec, flat, task.train_batches[k - 1])
            flat, _ = stepper.step(flat, grads, losses, k)
        off = task.spec.offsets()
        for a, b in zip(off[:-3], off[1:-2]):
            assert np.array_equal(flat[0, a:b], task.theta0[a:b])
        assert not np.array_equal(flat[0, off[-3]:off[-2]], task.theta0[off[-3]:off[-2]])

    def test_adam_const_matches_controller_stub(self):
        # lambda = lr * ||d_adam|| with a one-hot mix reproduces plain Adam
        eta = 1e-2
        task = make_task(DIST, seed=5, k_override=25)
        base = baseline_handle(BaselineSpec(BaselineKind.ADAM_CONST, lr0=eta)).run(task)

        layout = layout_for(DIST)
        psi = flatten(init_meta_params(layout, seed=0))

        def adam_stub(i, log_norms):
            return np.array([0.0, 1.0]), eta * math.exp(log_norms[1])

        stub = inner_loop_eval(
            controller_stepper_factory(psi, layout, policy=adam_stub), task)
        assert abs(stub.meta_loss - base.meta_loss) < 1e-10


class _NullStepper:
    n_rows = 1

    def step(self, params, grads, losses, k):
        return params, np.ones(len(params), dtype=bool)


class TestEvaluateSuite:
    def test_single_task_std_zero(self):
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-2))
        report = evaluate_suite(handle, DIST, n_tasks=1, k_list=[3], eval_seed=0)
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

    def test_csv_written(self, tmp_path):
        handle = baseline_handle(BaselineSpec(BaselineKind.SGD_CONST, lr0=1e-2))
        report = evaluate_suite(handle, DIST, n_tasks=2, k_list=[2], eval_seed=1)
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


def tiny_ablation_config(cells):
    dist = dataclasses.replace(DIST, k_min=3, k_max=4)
    nes = NesConfig(population=4, meta_batch=1, generations=2, seed=0)
    return AblationConfig(dist=dist, nes=nes, cells=cells, pretrain_steps=5,
                          eval_n_tasks=2, eval_k=3, eval_seed=0)


class TestAblation:
    def test_cartesian_cell_count(self):
        cells = cross_cells([[OptimizerKind.SGD], SGD_ADAM, [OptimizerKind.ADAM]],
                            [Variant.FULL, Variant.NO_EMBEDDING,
                             Variant.PER_LAYER_MLP, Variant.GLOBAL])
        assert len(cells) == 12

    def test_mini_battery_rows_and_labels(self, tmp_path):
        cells = cross_cells([[OptimizerKind.SGD], SGD_ADAM],
                            [Variant.FULL, Variant.GLOBAL])
        cfg = tiny_ablation_config(cells)
        result = run_ablation_battery(cfg)
        assert len(result.rows) == 4
        assert [r.label for r in result.rows] == [c.label for c in cells]
        write_ablation_csv(result, tmp_path / "ablation.csv")
        lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        for row, line in zip(result.rows, lines[1:]):
            assert line.startswith(f"{row.label},")

    def test_global_rows_have_component_identical_mu_lambda(self):
        cells = cross_cells([SGD_ADAM], [Variant.GLOBAL])
        cfg = tiny_ablation_config(cells)
        result = run_ablation_battery(cfg)
        rows = result.trajectories[cells[0].label]
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
        cfg = AblationConfig(
            dist=dist, nes=NesConfig(population=8, meta_batch=2,
                                     generations=80, seed=0),
            cells=cells, pretrain_steps=300, eval_n_tasks=20, eval_k=10,
            eval_seed=0)
        rows = {r.variant: r for r in run_ablation_battery(cfg).rows}
        emb = rows["full"]
        per_layer = rows["per_layer_mlp"]
        glob = rows["global"]

        def pooled_std(a, b):
            return math.sqrt((a.std_acc ** 2 + b.std_acc ** 2) / 2)

        assert emb.mean_acc >= per_layer.mean_acc - pooled_std(emb, per_layer)
        assert per_layer.mean_acc >= glob.mean_acc - pooled_std(per_layer, glob)
