"""The benchmark's span tracer wraps l3rs functions by name from outside
(perfbench/tracer.py): every name it lists must exist where it looks it up,
and a traced run must still work and leave everything restored."""

import sys
from pathlib import Path

import numpy as np
import pytest

from l3rs import meta
from l3rs.bench import controller_handle
from l3rs.controller import PsiLayout
from l3rs.meta import CandidateEvaluator, NesConfig, TaskDistributionSpec, generation_task_seeds
from l3rs.optdir import OptimizerKind

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
tracer = pytest.importorskip("tracer")

TABLE = tracer.CHILD_SIDE + tracer.PARENT_SIDE + tracer.SETUP
DIST = TaskDistributionSpec(k_min=2, k_max=3)
PRETRAIN_STEPS = 2


def test_every_entry_installs_runs_and_uninstalls():
    originals = {(owner, attr): owner.__dict__[attr] for _, sites in TABLE for owner, attr in sites}
    layout = PsiLayout(n_components=4, base_kinds=(OptimizerKind.SGD, OptimizerKind.ADAM))
    cfg = NesConfig(population=4, meta_batch=2, seed=0)
    psi = np.zeros(layout.flat_size)
    cands = psi + 0.1 * np.random.default_rng(0).standard_normal((4, layout.flat_size))

    def unit():
        # through the module, where the tracer replaces the functions
        meta.pretrain_checkpoint(DIST, PRETRAIN_STEPS, 0)
        with CandidateEvaluator(cfg, DIST, layout, init_from=None) as ev:
            fits = ev(cands, 0)
        meta.nes_update(psi, cands, fits, 0.1)
        return controller_handle(psi, layout).run(meta.make_task(DIST, 1))

    tr = tracer.Tracer()
    tr.install(TABLE)
    try:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
    finally:
        tr.uninstall()
    result = tr.traced(TABLE, unit)
    assert result.diverged is False and tr.runs == 1 and tr.diverged == 0
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    calls = {name: s["calls"] for name, s in tr.summary().items()}
    # one loss_and_grad per step of the generation's longest task for the
    # whole (task, candidate) grid (and per step of the C = 1 handle run and
    # of pretraining)
    block_steps = max(meta.make_task(DIST, s).K for s in generation_task_seeds(cfg, 0))
    assert calls["nnlite.loss_and_grad"] == block_steps + meta.make_task(DIST, 1).K + PRETRAIN_STEPS
    assert calls["meta.CandidateEvaluator.__call__"] == 1
    assert calls["meta.pretrain_checkpoint"] == calls["meta.nes_update"] == 1
    assert calls["meta.inner_loop_eval"] == 1
    # one controller step per step of the block and of the handle run, and
    # each runs the bank, the tracker, decide and compose exactly once: a
    # rewrite that bypasses one of these names reads 0 in a trace
    controller_steps = block_steps + meta.make_task(DIST, 1).K
    assert calls["controller.ControllerContext.step"] == controller_steps
    for name in ("optdir.DirectionBank.step", "controller.ControllerContext.decide",
                 "controller.EmaTracker.update", "controller.compose_update"):
        assert calls[name] == controller_steps, name
