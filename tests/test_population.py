"""Row-batched inner loop: every row of a block must get exactly the bits of
its own single run, whatever else is in the block, including rows that
diverge at different steps and rows that stop at their own horizon. A row
is a (task, candidate) pair: C candidates on every task of a block, or one
optimizer on each task of a block."""

import numpy as np
import pytest

from l3rs import bench, meta
from l3rs.bench import BaselineKind, BaselineSpec, baseline_handle, controller_handle
from l3rs.controller import ControllerContext, PsiLayout, Variant, init_meta_params
from l3rs.meta import (
    DIVERGENCE_PENALTY,
    CandidateEvaluator,
    NesConfig,
    Task,
    TaskDistributionSpec,
    controller_stepper_factory,
    generation_task_seeds,
    inner_loop_batch,
    make_task,
    make_task_block,
    task_horizon,
)
from l3rs.optdir import OptimizerKind

DIST = TaskDistributionSpec(hidden=(32, 32), k_min=8, k_max=16)  # 16-32-32-4
# per-candidate noise scales: from near the fresh controller, which trains
# to the end, to far enough that the inner run blows up within a few steps
SCALES = (0.0, 0.05, 0.2, 0.4, 0.6, 1.0)


def layout_for(variant):
    return PsiLayout(n_components=len(DIST.task_network().components()),
                     base_kinds=tuple(OptimizerKind), variant=variant)


def population(layout, scales=SCALES, seed=0):
    psi = init_meta_params(layout, seed=1).flat
    noise = np.random.default_rng(seed).standard_normal((len(scales), len(psi)))
    return psi + np.asarray(scales)[:, None] * noise


def outcome(res):
    return (res.meta_loss, res.eval_accuracy, res.diverged, res.train_losses)


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_block_rows_equal_single_candidate_runs(variant, renormalize):
    layout = layout_for(variant)
    cands = population(layout)
    task = make_task(DIST, seed=11, split="metatrain")
    block = inner_loop_batch(controller_stepper_factory(cands, layout, renormalize), task)
    assert len(block) == len(cands)
    for cand, res in zip(cands, block):
        single = controller_handle(cand, layout, renormalize=renormalize).run(task)
        assert outcome(res) == outcome(single)
        assert res.diverged is single.diverged
    assert not block[0].diverged and block[-1].diverged
    # C = 1 through the same loop
    (one,) = inner_loop_batch(controller_stepper_factory(cands[1:2], layout, renormalize), task)
    assert outcome(one) == outcome(block[1])


def test_candidates_diverge_at_different_steps_without_disturbing_others():
    layout = layout_for(Variant.NO_EMBEDDING)
    cands = population(layout, scales=(0.0, 0.5, 0.5, 0.5, 1.0, 2.0), seed=3)
    task = make_task(DIST, seed=11, split="metatrain", k_override=20)
    block = inner_loop_batch(controller_stepper_factory(cands, layout, record=True), task)
    steps = {len(r.train_losses) for r in block if r.diverged}
    assert len(steps) >= 2, steps
    assert any(not r.diverged for r in block)
    for cand, res in zip(cands, block):
        single = controller_handle(cand, layout, record=True).run(task)
        assert outcome(res) == outcome(single)
        assert res.trajectory == single.trajectory
        if res.diverged:
            assert (res.meta_loss, res.eval_accuracy) == (DIVERGENCE_PENALTY, 0.0)


@pytest.mark.parametrize("position", [0, 2, 5])
def test_exploding_candidate_is_isolated(position):
    layout = layout_for(Variant.FULL)
    cands = population(layout, scales=(0.0, 0.05, 0.1, 0.15, 0.2), seed=4)
    task = make_task(DIST, seed=12, split="metatrain")
    factory = controller_stepper_factory
    alone = [(r.meta_loss, r.eval_accuracy) for r in inner_loop_batch(factory(cands, layout), task)]
    exploding = cands[2].copy()
    exploding[:layout.mlp_size] *= 1e150  # overflowing logits from step 1
    mixed = np.insert(cands, position, exploding, axis=0)
    results = inner_loop_batch(factory(mixed, layout), task)
    assert results[position].diverged
    assert (results[position].meta_loss, results[position].eval_accuracy) == (DIVERGENCE_PENALTY, 0.0)
    rest = [(r.meta_loss, r.eval_accuracy) for i, r in enumerate(results) if i != position]
    assert rest == alone


def test_evaluator_fitness_equals_handle_runs():
    layout = layout_for(Variant.PER_LAYER_MLP)
    cfg = NesConfig(population=6, meta_batch=2, seed=5)
    cands = population(layout, seed=5)
    with CandidateEvaluator(cfg, DIST, layout, init_from=None, renormalize=True) as ev:
        fits = ev(cands, 3)
    tasks = [make_task(DIST, s) for s in generation_task_seeds(cfg, 3)]
    for cand, fit in zip(cands, fits):
        handle = controller_handle(cand, layout, renormalize=True)
        assert fit == -float(np.mean([handle.run(t).meta_loss for t in tasks]))
    assert fits[-1] == -DIVERGENCE_PENALTY


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("raw_beta", [40.0, -800.0])
def test_beta_rounding_to_one_or_zero_kills_only_its_row(raw_beta):
    # sigmoid(40) rounds to exactly 1.0 and sigmoid(-800) to 0.0, which the
    # validity mask rejects; the row scores the penalty, the block runs on
    layout = layout_for(Variant.FULL)
    cands = population(layout, scales=(0.0, 0.05, 0.1), seed=6)
    cands[1, -1] = raw_beta
    task = make_task(DIST, seed=13, split="metatrain")
    block = inner_loop_batch(controller_stepper_factory(cands, layout, record=True), task)
    assert block[1].diverged and block[1].trajectory == []
    assert (block[1].meta_loss, block[1].eval_accuracy) == (DIVERGENCE_PENALTY, 0.0)
    for i in (0, 2):
        single = controller_handle(cands[i], layout, record=True).run(task)
        assert outcome(block[i]) == outcome(single)
        assert block[i].trajectory == single.trajectory


def test_sequential_evaluators_keep_their_own_environment():
    # each workers=1 evaluator runs on the layout and settings it was built
    # with, whichever evaluator was constructed last
    cfg = NesConfig(population=4, meta_batch=2, seed=7)
    full, bare = layout_for(Variant.FULL), layout_for(Variant.NO_EMBEDDING)
    cands_full = population(full, scales=(0.0, 0.05, 0.1, 0.2), seed=7)
    cands_bare = population(bare, scales=(0.0, 0.05, 0.1, 0.2), seed=7)
    settings = [(full, False, cands_full), (bare, False, cands_bare), (full, True, cands_full)]
    alone = []
    for layout, renormalize, cands in settings:
        with CandidateEvaluator(cfg, DIST, layout, init_from=None, renormalize=renormalize) as ev:
            alone.append(ev(cands, 0))
    evaluators = [CandidateEvaluator(cfg, DIST, layout, init_from=None, renormalize=renormalize)
                  for layout, renormalize, _ in settings]
    for ev, (_, _, cands), fits in zip(evaluators, settings, alone):
        np.testing.assert_array_equal(ev(cands, 0), fits)
    assert not np.array_equal(alone[0], alone[2])


BLOCK_SEEDS = (21, 22, 23, 24)
BLOCK_HANDLES = [f"{v.value}/{r}" for v in Variant for r in ("plain", "renormalize")] + [
    k.value for k in BaselineKind]


def block_handle(name):
    if name in {k.value for k in BaselineKind}:
        return baseline_handle(BaselineSpec(BaselineKind(name), lr0=1e-2))
    variant, mode = name.split("/")
    layout = layout_for(Variant(variant))
    psi = population(layout, scales=(0.1,), seed=8)[0]
    return controller_handle(psi, layout, renormalize=mode == "renormalize")


@pytest.mark.parametrize("K", [0, 10, (10, 7, 7, 0)])
def test_task_block_rows_are_the_tasks(K):
    block = make_task_block(DIST, BLOCK_SEEDS, K, split="metatest")
    horizons = np.broadcast_to(K, len(BLOCK_SEEDS)).tolist()
    assert block.horizons.tolist() == horizons
    assert block.K == len(block.train_batches) == max(horizons)
    for r, (seed, k_r) in enumerate(zip(BLOCK_SEEDS, horizons)):
        task = make_task(DIST, seed, split="metatest", k_override=k_r)
        assert (block.seed[r], block.class_ids[r]) == (task.seed[0], task.class_ids[0])
        assert block.theta0[r].tobytes() == task.theta0[0].tobytes()
        for stacked, own in zip([*block.train_batches[:k_r], block.eval_batch],
                                [*task.train_batches, task.eval_batch]):
            assert stacked.x[r].tobytes() == own.x[0].tobytes()
            assert np.array_equal(stacked.y[r], own.y[0])
        assert all(len(b.y) <= r for b in block.train_batches[k_r:])


def test_task_rows_must_be_ordered_longest_first():
    with pytest.raises(ValueError, match="longest first"):
        make_task_block(DIST, BLOCK_SEEDS[:2], [3, 5])
    block = make_task_block(DIST, BLOCK_SEEDS[:2], [5, 3])
    with pytest.raises(ValueError, match="prefixes"):
        Task(block.spec, block.theta0, block.train_batches[::-1], block.eval_batch,
             block.seed, block.class_ids)


# (task seed, horizon) of a grid block: distinct, tied and zero horizons,
# longest first as a block requires
GRID_TASKS = ((21, 12), (22, 9), (23, 9), (24, 4), (25, 0))


def grid_block():
    seeds, horizons = zip(*GRID_TASKS)
    return make_task_block(DIST, seeds, horizons)


def single_task(seed, K):
    return make_task(DIST, seed, k_override=K)


@pytest.mark.parametrize("renormalize", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_grid_rows_equal_single_runs(variant, renormalize):
    # every (task, candidate) row of one inner loop, task-major, equals the
    # candidate's own run on the task at its own horizon, trajectories
    # included; one candidate's betas round to 1, and the far candidates
    # diverge mid-run
    layout = layout_for(variant)
    cands = population(layout)
    cands[1, -1] = 40.0
    factory = controller_stepper_factory(cands, layout, renormalize, record=True)
    results = inner_loop_batch(factory, grid_block())
    assert len(results) == len(GRID_TASKS) * len(cands)
    for t, (seed, K) in enumerate(GRID_TASKS):
        task = single_task(seed, K)
        for c, cand in enumerate(cands):
            res = results[t * len(cands) + c]
            single = controller_handle(cand, layout, renormalize=renormalize,
                                       record=True).run(task)
            assert outcome(res) == outcome(single)
            assert res.diverged is single.diverged
            assert res.trajectory == single.trajectory
            assert len(res.train_losses) <= K
    row = len(cands) + 1  # candidate 1 on the first task: betas round to 1
    assert results[row].diverged and results[row].trajectory == []
    assert any(r.diverged and r.train_losses for r in results)
    assert not results[0].diverged and len(results[0].train_losses) == GRID_TASKS[0][1]


@pytest.mark.parametrize("kind", list(BaselineKind))
def test_baseline_rows_stop_at_their_own_horizon(kind):
    # adam_cosine's learning rate follows each row's own horizon
    handle = baseline_handle(BaselineSpec(kind, lr0=1e-2))
    results = inner_loop_batch(handle.factory, grid_block())
    for (seed, K), res in zip(GRID_TASKS, results):
        single = handle.run(single_task(seed, K))
        assert outcome(res) == outcome(single)
        assert len(res.train_losses) == K


def test_generation_job_runs_each_row_to_its_own_horizon(monkeypatch):
    # one inner loop and one ControllerContext per job: the rows of all
    # loss_and_grad calls add up to C * sum(K), so no row steps past its
    # horizon, and the losses come back in the generation's task order,
    # whose horizons are neither sorted nor distinct
    layout = layout_for(Variant.FULL)
    cands = population(layout, scales=(0.0, 0.05, 0.1))
    seeds = [32, 30, 36, 31, 34]
    horizons = [task_horizon(DIST, s) for s in seeds]
    assert horizons != sorted(horizons, reverse=True) and len(set(horizons)) < len(seeds)
    rows, contexts = [], []
    loss_and_grad, init = meta.loss_and_grad, ControllerContext.__init__

    def counted_loss_and_grad(spec, flat, batch):
        rows.append(int(np.prod(flat.shape[:-1])))
        return loss_and_grad(spec, flat, batch)

    def counted_init(self, *args, **kwargs):
        contexts.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(meta, "loss_and_grad", counted_loss_and_grad)
    monkeypatch.setattr(ControllerContext, "__init__", counted_init)
    env = dict(dist=DIST, layout=layout, init_from=None, renormalize=False)
    losses = meta._eval_block_job((cands, seeds, env))
    monkeypatch.undo()
    assert sum(rows) == len(cands) * sum(horizons)
    assert len(rows) == max(horizons) and len(contexts) == 1
    for cand, row in zip(cands, losses):
        handle = controller_handle(cand, layout)
        assert row.tolist() == [handle.run(make_task(DIST, s)).meta_loss for s in seeds]


@pytest.mark.parametrize("name", BLOCK_HANDLES)
def test_task_block_rows_equal_single_runs(name):
    # row 1 starts from weights that overflow at once; the other rows train
    # to the end with exactly the bits of their own handle.run
    handle = block_handle(name)
    block = make_task_block(DIST, BLOCK_SEEDS, 10, split="metatest")
    block.theta0[1] = 1e200
    results = inner_loop_batch(handle.factory, block)
    assert [r.diverged for r in results] == [False, True, False, False]
    for r, (seed, res) in enumerate(zip(BLOCK_SEEDS, results)):
        task = make_task(DIST, seed, split="metatest", k_override=10)
        task.theta0 = block.theta0[r:r + 1].copy()
        single = handle.run(task)
        assert outcome(res) == outcome(single)
        assert res.diverged is single.diverged


class RecordingStepper:
    """A stepper of ``n_candidates`` candidates that leaves the parameters
    as they are and records the shape of every grid it is given."""

    def __init__(self, n_candidates):
        self.n_candidates = n_candidates
        self.shapes = []

    def step(self, params, grads, losses, k):
        assert grads.shape == params.shape and losses.shape == params.shape[:-1]
        self.shapes.append(params.shape)
        return np.ones(losses.shape, dtype=bool)


def test_steppers_step_the_task_row_grid():
    # every stepper sees [*task rows, C, n], the rows that stop being a
    # prefix of the first axis: [n_k, C, n] on a block, [J_k, T, C, n] on
    # the K levels of an evaluation suite
    n = DIST.task_network().offsets()[-1]
    block = make_task_block(DIST, [41, 42, 43, 44], (5, 3, 3, 0))
    recorder = RecordingStepper(3)
    assert len(inner_loop_batch(lambda task: recorder, block)) == 4 * 3
    assert recorder.shapes == [(3, 3, n)] * 3 + [(1, 3, n)] * 2

    levels = bench._level_task(make_task_block(DIST, [45, 46], 5), [5, 2, 0])
    recorder = RecordingStepper(2)
    inner_loop_batch(lambda task: recorder, levels)
    assert recorder.shapes == [(2, 2, 2, n)] * 2 + [(1, 2, 2, n)] * 3
    # the stack of an evaluation suite gives each handle its own [J_k, T, 1, n]
    recorders = [RecordingStepper(1), RecordingStepper(1)]
    handles = [bench.OptimizerHandle(f"h{h}", lambda task, r=r: r)
               for h, r in enumerate(recorders)]
    bench.evaluate_suite(handles, DIST, n_tasks=2, k_list=[5, 2, 0], eval_seed=0)
    assert [r.shapes for r in recorders] == [[(2, 2, 1, n)] * 2 + [(1, 2, 1, n)] * 3] * 2

    layout = layout_for(Variant.FULL)
    factory = controller_stepper_factory(population(layout, scales=(0.0, 0.1)), layout)
    assert factory(block).K.shape == (4,) and factory(levels).K.shape == (3, 2)
