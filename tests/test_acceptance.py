"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The meta-training criteria share one desk-scale run via a module
fixture; everything is seeded, so reruns reproduce these numbers exactly.
"""

import json
import time

import numpy as np
import pytest

from l3rs import cli
from l3rs.bench import (
    BaselineKind,
    BaselineSpec,
    BaselineStepper,
    baseline_handle,
    controller_handle,
    cross_cells,
    evaluate_suite,
    run_ablation_battery,
    state_size_report,
    write_ablation_csv,
)
from l3rs.controller import (
    EmaTracker,
    PsiLayout,
    Variant,
    compose_update,
    controller_forward_batch,
    flatten,
    init_meta_params,
    time_features,
    unflatten,
)
from l3rs.meta import (
    NesConfig,
    NesState,
    TaskDistributionSpec,
    controller_stepper_factory,
    make_task,
    meta_train,
    nes_generation,
    pretrain_checkpoint,
)
from l3rs.nnlite import (
    Batch,
    NetworkSpec,
    forward,
    init_params,
    loss_and_grad,
    mean_cross_entropy,
)
from l3rs.optdir import OptimizerKind, segment_norms

SGD_ADAM = (OptimizerKind.SGD, OptimizerKind.ADAM)


def report(criterion, description, elapsed, **shown):
    detail = " ".join(f"{k}={v}" for k, v in shown.items())
    print(f"\n[criterion {criterion:2d}] PASS {description} "
          f"({elapsed:.1f}s) {detail}")


# ---------------------------------------------------------------------------
# 1. gradient exactness


def test_criterion_1_gradient_exactness():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        d_in = int(rng.integers(1, 9))
        d_hid = int(rng.integers(1, 9))
        d_out = int(rng.integers(2, 9))
        n = int(rng.integers(1, 9))
        spec = NetworkSpec(d_in, (d_hid,), d_out)
        params = init_params(spec, seed=int(rng.integers(0, 2**31)))
        batch = Batch(x=rng.normal(size=(n, d_in)), y=rng.integers(0, d_out, n))
        _, grads, _ = loss_and_grad(spec, params, batch)
        h = 1e-5
        for j in range(params.size):
            orig = params[j]
            params[j] = orig + h
            up = mean_cross_entropy(forward(spec, params, batch.x), batch.y)
            params[j] = orig - h
            down = mean_cross_entropy(forward(spec, params, batch.x), batch.y)
            params[j] = orig
            fd = (up - down) / (2 * h)
            rel = abs(grads[j] - fd) / (abs(fd) + 1e-8)
            worst = max(worst, rel)
    elapsed = time.time() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    report(1, "analytic gradients match central differences", elapsed,
           max_rel_err=f"{worst:.2e}")


# ---------------------------------------------------------------------------
# 2. update-equation invariant suite


def test_criterion_2_update_invariants():
    start = time.time()
    rng = np.random.default_rng(202)
    layouts = {p: PsiLayout(n_components=1,
                            base_kinds=tuple(OptimizerKind)[:p],
                            variant=Variant.NO_EMBEDDING)
               for p in (1, 2, 3, 4)}
    zero_mlps = {p: unflatten(np.zeros(lay.flat_size), lay).mlp
                 for p, lay in layouts.items()}

    def compose(lam, mu, dirs):
        offsets = np.array([0, dirs.shape[1]])
        return compose_update(lam, mu, dirs, segment_norms(dirs, offsets), offsets)

    for _ in range(10_000):
        p = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 9))
        logits = rng.normal(scale=1.5, size=p + 1)
        mlp, lay = zero_mlps[p], layouts[p]
        mlp.b3[:] = logits
        mu, lam, _ = controller_forward_batch(mlp, np.zeros((1, lay.feature_dim)))
        assert abs(mu.sum() - 1.0) <= 1e-12
        assert lam[0] > 0.0
        dirs = np.stack([rng.normal(size=dim) * (10.0 ** rng.integers(-14, 3))
                         for _ in range(p)])
        delta = compose(lam, mu, dirs)
        norm = np.linalg.norm(delta)
        assert norm <= lam[0] * (1.0 + 1e-12)
        if p == 1 and np.linalg.norm(dirs[0]) >= 1e-12:
            assert abs(norm - lam[0]) <= 1e-12 * lam[0]
        scale_p = int(rng.integers(0, p))
        factor = 10.0 ** rng.integers(-6, 7)
        scaled = dirs.copy()
        scaled[scale_p] = dirs[scale_p] * factor
        delta2 = compose(lam, mu, scaled)
        tiny = np.linalg.norm(dirs[scale_p]) < 1e-12
        crossed = tiny != (np.linalg.norm(scaled[scale_p]) < 1e-12)
        if not crossed:  # rescaling may not cross the norm floor
            assert np.abs(delta - delta2).max() <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, "mixing, magnitude and rescaling invariants hold", elapsed,
           draws=10_000)


# ---------------------------------------------------------------------------
# 3. optimizer-equivalence oracles


def _final_theta(task, stepper):
    # [1, 1, n]: one task row, one candidate; a copy, as steps run in place
    params = task.theta0[:, None].copy()
    for k in range(1, task.K + 1):
        losses, grads, _ = loss_and_grad(task.spec, params, task.train_batches[k - 1])
        stepper.step(params, grads, losses, k)
    return params[0, 0]


def _final_theta_baseline(task, spec):
    return _final_theta(task, BaselineStepper(spec, task.spec.offsets(), task.horizons))


def _final_theta_controller(task, layout, policy):
    psi = flatten(init_meta_params(layout, seed=0))
    return _final_theta(task, controller_stepper_factory(psi, layout, policy=policy)(task))


def test_criterion_3_optimizer_equivalence():
    start = time.time()
    dist = TaskDistributionSpec()
    ckpt = pretrain_checkpoint(dist, steps=50, seed=3)
    task = make_task(dist, seed=33, split="metatest", init_from=ckpt, k_override=50)
    layout = PsiLayout(n_components=4, base_kinds=SGD_ADAM)
    eta = 1e-2

    def sgd_stub(log_norms):
        return np.array([1.0, 0.0]), eta * np.exp(log_norms[..., 0])

    def adam_stub(log_norms):
        return np.array([0.0, 1.0]), eta * np.exp(log_norms[..., 1])

    worst = 0.0
    for stub, kind in ((sgd_stub, BaselineKind.SGD_CONST),
                       (adam_stub, BaselineKind.ADAM_CONST)):
        ours = _final_theta_controller(task, layout, stub)
        oracle = _final_theta_baseline(task, BaselineSpec(kind, lr0=eta))
        diff = np.abs(ours - oracle).max()
        worst = max(worst, diff)
        assert diff < 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(3, "one-hot stubs reproduce plain SGD and Adam over 50 steps",
           elapsed, max_theta_diff=f"{worst:.2e}")


# ---------------------------------------------------------------------------
# 4. NES convergence regression


def test_criterion_4_nes_quadratic_convergence():
    start = time.time()
    dim = 50
    finals = []
    for seed in range(5):
        cfg = NesConfig(population=32, generations=300, sigma0=0.1, alpha0=0.05,
                        seed=seed)
        rng = np.random.default_rng(1000 + seed)
        target = rng.normal(size=dim)
        offset = rng.normal(size=dim)
        state = NesState(psi=target + offset / np.linalg.norm(offset))
        for _ in range(cfg.generations):
            nes_generation(state, cfg,
                           lambda c, g: -np.sum((c - target) ** 2, axis=1))
        finals.append(np.linalg.norm(state.psi - target))
    elapsed = time.time() - start
    median = float(np.median(finals))
    assert median < 1e-2
    assert elapsed < 30.0
    report(4, "quadratic-fitness regression converges", elapsed,
           median_dist=f"{median:.2e}")


# ---------------------------------------------------------------------------
# 5. EMA and time-feature properties


def test_criterion_5_ema_and_time_features():
    start = time.time()
    rng = np.random.default_rng(55)
    # first-step corrected EMA reproduces the sample up to one rounding step
    for gamma in (0.0, 0.9, 0.99):
        for _ in range(200):
            xi = float(rng.normal(scale=5))
            tr = EmaTracker(1, gammas=(gamma,))
            tr.update(np.array([xi]), np.array([[[xi, xi]]]))
            comp, loss = tr.read(1)
            for got in (comp[0, 0, 0, 0], comp[0, 0, 1, 0], loss[0, 0]):
                assert abs(got - xi) <= 4e-16 * abs(xi)
    # a constant stream stays at the constant after correction
    tr = EmaTracker(2, gammas=(0.0, 0.9, 0.99))
    for k in range(1, 201):
        tr.update(np.array([3.25]), np.array([[[1.5, -0.5], [0.25, 2.0]]]))
        comp, loss = tr.read(k)
        assert np.abs(comp[0, 0, 0, :] - 1.5).max() <= 1e-12
        assert np.abs(loss - 3.25).max() <= 1e-12
    # 15 features strictly inside (-1, 1) with the stated monotonicities
    for K in (1, 2, 7, 50, 500, 5000):
        prev = None
        for k in range(1, min(K, 200) + 1):
            f = time_features(k, K)
            assert f.shape == (15,)
            assert np.all(f > -1.0) and np.all(f < 1.0)
            if prev is not None:
                assert np.all(f[:11] >= prev[:11])
            prev = f
    prev_abs = None
    for K in (1, 2, 5, 10, 100, 1000, 10**4, 10**6):
        cur = time_features(1, K)[11:]
        if prev_abs is not None:
            assert np.all(cur >= prev_abs)
        prev_abs = cur
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(5, "EMA corrections and time features behave as specified", elapsed)


# ---------------------------------------------------------------------------
# 6 + 7. desk-scale meta-training win and horizon generalization


@pytest.fixture(scope="module")
def desk_run():
    start = time.time()
    dist = TaskDistributionSpec()
    layout = PsiLayout(n_components=4, base_kinds=SGD_ADAM)
    checkpoint = pretrain_checkpoint(dist, steps=500, seed=0)
    cfg = NesConfig(population=16, meta_batch=4, generations=300, seed=0)
    psi, history = meta_train(cfg, dist, layout, init_from=checkpoint)
    handles = [controller_handle(psi, layout)] + [
        baseline_handle(BaselineSpec(BaselineKind.ADAM_CONST, lr0=lr))
        for lr in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    suite = evaluate_suite(handles, dist, n_tasks=50, k_list=[25, 100],
                           eval_seed=0, split="metatest", init_from=checkpoint)
    return {
        "history": history,
        "report": suite,
        "baseline_labels": [h.label for h in handles[1:]],
        "train_time": time.time() - start,
    }


def test_criterion_6_meta_training_win(desk_run):
    history = desk_run["history"]
    suite = desk_run["report"]
    l3rs_loss = suite.cell("l3rs", 25).mean_loss
    best_adam = min(suite.cell(label, 25).mean_loss
                    for label in desk_run["baseline_labels"])
    first10 = float(np.median([h.mean_fitness for h in history[:10]]))
    last10 = float(np.median([h.mean_fitness for h in history[-10:]]))
    assert l3rs_loss <= 1.05 * best_adam
    assert last10 > first10
    assert desk_run["train_time"] < 15 * 60
    report(6, "meta-trained controller matches the tuned Adam grid",
           desk_run["train_time"], l3rs=f"{l3rs_loss:.4f}",
           best_adam=f"{best_adam:.4f}",
           fitness=f"{first10:.3f}->{last10:.3f}")


def test_criterion_7_beyond_horizon(desk_run):
    start = time.time()
    suite = desk_run["report"]
    at_25 = suite.cell("l3rs", 25).mean_loss
    at_100 = suite.cell("l3rs", 100).mean_loss
    assert at_100 <= 1.25 * at_25
    elapsed = time.time() - start
    report(7, "4x horizon evaluation does not collapse", elapsed,
           k25=f"{at_25:.4f}", k100=f"{at_100:.4f}")


# ---------------------------------------------------------------------------
# 8. memory-overhead accounting


def test_criterion_8_state_size_table():
    start = time.time()
    net = NetworkSpec(100, (90,), 10)  # exactly 10_000 parameters
    n_params = sum(np.prod(s) for s in net.component_shapes())
    assert n_params >= 10_000
    sgd = state_size_report(BaselineSpec(BaselineKind.SGD_CONST, lr0=0.1), net)
    adam = state_size_report(BaselineSpec(BaselineKind.ADAM_CONST, lr0=0.1), net)
    l3rs = state_size_report(PsiLayout(n_components=4, base_kinds=SGD_ADAM), net)
    assert sgd.slots_ratio == 0.0
    assert adam.slots_ratio == 2.0
    assert l3rs.slots_ratio == 2.0
    assert l3rs.aux_scalars < 0.01 * n_params
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(8, "memory column reproduced: sgd 0.0x, adam 2.0x, controller 2.0x",
           elapsed, aux_scalars=l3rs.aux_scalars)


# ---------------------------------------------------------------------------
# 9. end-to-end determinism of the command line


def test_criterion_9_cli_determinism(tmp_path):
    start = time.time()
    cfg = {
        "seed": 5,
        "distribution": {"k_min": 1, "k_max": 4},
        "nes": {"population": 8, "meta_batch": 2, "generations": 20},
        "pretrain": {"steps": 10},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / name for name in ("a", "b", "w8")]
    for out, workers in zip(outs, (1, 1, 8)):
        code = cli.main(["meta-train", "--config", str(cfg_path),
                         "--out-dir", str(out), "--workers", str(workers)])
        assert code == 0
    ref_hist = (outs[0] / "history.csv").read_bytes()
    ref_psi = (outs[0] / "psi_final.json").read_bytes()
    for out in outs[1:]:
        assert (out / "history.csv").read_bytes() == ref_hist
        assert (out / "psi_final.json").read_bytes() == ref_psi
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(9, "meta-train is byte-identical across reruns and worker counts",
           elapsed)


# ---------------------------------------------------------------------------
# 10. ablation machinery


def test_criterion_10_ablation_battery(tmp_path):
    start = time.time()
    dist = TaskDistributionSpec(k_min=5, k_max=10)
    cells = cross_cells([(OptimizerKind.SGD,), SGD_ADAM],
                        [Variant.FULL, Variant.GLOBAL])
    runs = run_ablation_battery(
        dist, NesConfig(population=8, meta_batch=2, generations=25, seed=0), cells,
        pretrain_steps=100, eval_n_tasks=8, eval_k=10)
    assert [cell for cell, _, _ in runs] == cells
    path = tmp_path / "ablation.csv"
    write_ablation_csv(runs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("label,base_optimizers,variant,gammas")
    assert len(lines) == 5
    for cell, _, rows in runs:
        if cell.variant != Variant.GLOBAL:
            continue
        assert rows
        by_step = {}
        for r in rows:
            by_step.setdefault(r.step, []).append((r.mu, r.lam))
        for entries in by_step.values():
            assert len(entries) == 4
            assert all(e == entries[0] for e in entries)
    elapsed = time.time() - start
    assert elapsed < 20 * 60
    report(10, "2x2 mini battery completes with labeled rows; global rows "
               "share one (mu, lambda)", elapsed)
