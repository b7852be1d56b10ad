"""Population-batched inner loop: every candidate row of a block must get
exactly the bits of its own single-candidate run, whatever else is in the
block, including candidates that diverge at different steps."""

import numpy as np
import pytest

from l3rs.bench import controller_handle
from l3rs.controller import PsiLayout, Variant, init_meta_params
from l3rs.meta import (
    DIVERGENCE_PENALTY,
    CandidateEvaluator,
    NesConfig,
    TaskDistributionSpec,
    controller_stepper_factory,
    generation_task_seeds,
    inner_loop_batch,
    make_task,
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
    block = inner_loop_batch(controller_stepper_factory(cands, layout), task, True)
    steps = {len(r.train_losses) for r in block if r.diverged}
    assert len(steps) >= 2, steps
    assert any(not r.diverged for r in block)
    for cand, res in zip(cands, block):
        single = controller_handle(cand, layout).run(task, record_trajectory=True)
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
    block = inner_loop_batch(controller_stepper_factory(cands, layout), task, True)
    assert block[1].diverged and block[1].trajectory == []
    assert (block[1].meta_loss, block[1].eval_accuracy) == (DIVERGENCE_PENALTY, 0.0)
    for i in (0, 2):
        single = controller_handle(cands[i], layout).run(task, record_trajectory=True)
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
