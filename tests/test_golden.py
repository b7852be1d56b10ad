"""Golden digests: the bit-identity guard for refactors of the inner step.

Every other byte-identity test compares two runs of the same code, so a
change that moves every output bit consistently passes them. These sha256
digests were computed from the per-component implementation, the
diverging-run digests from the inner loop that removed diverged rows from
the block, and the evaluate_suite report digests from the suite that ran
one task at a time, and they must hold for any rewrite that claims to
compute the same thing.

Run ``python tests/test_golden.py`` (with ``src`` on the path) to print the
digests of the current code.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from l3rs import cli
from l3rs.bench import (
    BaselineKind,
    BaselineSpec,
    baseline_handle,
    controller_handle,
    evaluate_suite,
)
from l3rs.controller import PsiLayout, Variant, init_meta_params
from l3rs.files import write_json
from l3rs.meta import (
    DIVERGENCE_PENALTY,
    NesConfig,
    TaskDistributionSpec,
    controller_stepper_factory,
    generation_task_seeds,
    inner_loop_batch,
    inner_loop_eval,
    make_task,
    pretrain_checkpoint,
)
from l3rs.optdir import OptimizerKind

DIST = TaskDistributionSpec(hidden=(32, 32))  # 16-32-32-4 task net
# 8 components: the global variant's whole-model norms sum over L >= 8
# values, where numpy's pairwise summation order starts to matter
DEEP_DIST = TaskDistributionSpec(hidden=(32, 32, 32))
K = 40
TASK_SEEDS = (5, 6)
PSI_NOISE = 0.1
# per-row noise scales of a block whose rows diverge at different steps
BLOCK_SCALES = (0.0, 0.5, 0.5, 0.5, 1.0, 2.0)
DIVERGING_SGD = BaselineSpec(BaselineKind.SGD_CONST, lr0=1e6)
# evaluate_suite over every handle kind; at this rate plain SGD diverges on
# some of the K = 7 tasks but not all, from either initialization
EVAL_TASKS = 4
EVAL_K = (0, 3, 7)
EVAL_SEED = 3
EVAL_BASELINE_LR = {BaselineKind.ADAM_CONST: 1e-2, BaselineKind.ADAM_COSINE: 1e-2,
                    BaselineKind.SGD_CONST: 1e-1}
DIVERGING_EVAL_SGD = BaselineSpec(BaselineKind.SGD_CONST, lr0=1e5)
# a renormalized per_layer_mlp block on two meta-train tasks whose last row
# grows finite weights so large on the second task that their segment norm
# overflows to inf
OVERFLOW_DIST = TaskDistributionSpec(hidden=(32, 32), k_min=8, k_max=16)
OVERFLOW_SCALES = (0.0, 0.05, 0.2, 0.4, 0.6, 1.0)
OVERFLOW_NES = NesConfig(population=6, meta_batch=2, seed=5)

CLI_CONFIG = {
    "seed": 3,
    "distribution": {"k_min": 5, "k_max": 10},
    "nes": {"population": 4, "meta_batch": 2, "generations": 3},
    "pretrain": {"steps": 20},
}
CLI_FILES = ("checkpoint_pretrain.json", "psi_final.json", "history.csv")
# the default config and one with a float key set to an int, a list key set
# and a null key set, all written as config.json
CONFIG_SETS = {
    "default": [],
    "overridden": ["nes.sigma0=1", "layout.gammas=[0.5, 0.9]", "ablate.gamma_sets=[[0.5], [1]]",
                   "evaluate.regime=alt_both", "distribution.hidden=[8, 8]"],
}

PINNED_RUNS = {
    ("full", False): "bba524e6d3481ff6b4880842b36d12e820bb17146b8cd1c6fa5f250a841690cf",
    ("full", True): "bc5d9a89562bd07a0882df1ad9be294db19bf3137e01a97caeab4534f85c9aad",
    ("no_embedding", False): "c9965303d2e6d6b0b07d3d0d5e9e569de128954c4ec6dcc49b326bacb8c7c1eb",
    ("no_embedding", True): "1fc38d93dba2726296e94716edd0bd58dd0094fb94b231f4c90bed4ca890c27e",
    ("per_layer_mlp", False): "7e35be029369ed65495066ffff261c4e408e9aa409a47185101b14010b048ace",
    ("per_layer_mlp", True): "e299cc8dc2f1c90c7ee98d7a5f5f254b91972e536acc7ee8ebe2da90524dd9cf",
    ("global", False): "b197817897229a2c868ea3fc1ec1004ded731d668c9734490bcc5193f0d3c96d",
    ("global", True): "5a98dd2b25f68630804f23869fa31bb4c9ccc7b994e256f0732799fe73e64e54",
}
PINNED_DEEP_GLOBAL = "39ffcb260499f9f771b7f4f359a315e4b2b759530c987df5cffa318facf314e4"
PINNED_DIVERGING_BLOCK = "039e4af4d5d3ec0a2bc014a7106414f59f76f4f3ec27d5a830c457e4fbb6a3a4"
PINNED_DIVERGING_SGD = "826959556141c734dd900ddc7ff5ede03bb1969f17c9a103ba58758cf442794d"
PINNED_OVERFLOWING_BLOCK = "f2ca099a1a17f6ca14bc07d34ef81dd210d6ffe9905b33db6fcb84fd0febf26b"
PINNED_EVAL_REPORTS = {
    "checkpoint": "dd259a2e82d571ac0715c56187462501f70112a337ee8909e0a974f0072dd72b",
    "random_init": "bb9b85003ba5d4deebe400c9988f17b7a99caee0dd55be0a4175aff1ef2cbdd1",
}
PINNED_CONFIGS = {
    "default": ("ea84200bac869091",
                "18cd0f21b1682b7ee39ea031c9bb2201f1bc3d0c242c9b280de775f8bcfe3b72"),
    "overridden": ("5fb54b751e47dccd",
                   "862fb083c4a3e8e769c0af000d2d716a1b86378fe944c98689fedfca456aa3c9"),
}
PINNED_FILES = {
    "checkpoint_pretrain.json": "f8f0c4f066e0094d67b60894fc402ff453628f7958a7d157111d28b7e222fca4",
    "psi_final.json": "5f0c878ee2a5b8ad5a835627b98ee1ce2d21109d67987b8e309bfa0359961eb2",
    "history.csv": "20b40b603d711dff468b316dbeb68f73921c2e38757f932cdf95cb8d2a9b1f39",
}


def sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


def result_items(res) -> list:
    items = [(res.meta_loss, res.eval_accuracy, res.diverged, res.train_losses)]
    items.extend((r.step, r.component, r.mu, r.lam, r.train_loss)
                 for r in res.trajectory or ())
    return items


def layout_for(variant: str, dist=DIST) -> PsiLayout:
    return PsiLayout(n_components=len(dist.task_network().components()),
                     base_kinds=tuple(OptimizerKind), variant=Variant(variant))


def perturbed_psi(layout: PsiLayout) -> np.ndarray:
    psi = init_meta_params(layout, seed=1).flat
    return psi + PSI_NOISE * np.random.default_rng(2).standard_normal(psi.shape)


def run_digest(variant: str, renormalize: bool, dist=DIST) -> str:
    """Trajectory, loss and accuracy of every step of two held-out tasks
    under a perturbed fresh controller with all six base optimizers."""
    layout = layout_for(variant, dist)
    psi = perturbed_psi(layout)
    factory = controller_stepper_factory(psi, layout, renormalize=renormalize, record=True)
    items = []
    for seed in TASK_SEEDS:
        task = make_task(dist, seed, split="metatest", k_override=K)
        items.extend(result_items(inner_loop_eval(factory, task)))
    return sha(items)


def diverging_block():
    """One block of six candidates, trajectories recorded, whose rows
    diverge at different steps while others train to the end."""
    layout = layout_for("no_embedding")
    psi = init_meta_params(layout, seed=1).flat
    noise = np.random.default_rng(3).standard_normal((len(BLOCK_SCALES), len(psi)))
    cands = psi + np.asarray(BLOCK_SCALES)[:, None] * noise
    task = make_task(DIST, seed=11, split="metatrain", k_override=20)
    return inner_loop_batch(controller_stepper_factory(cands, layout, record=True), task)


def overflowing_block() -> list:
    """Every row of the OVERFLOW_NES generation-3 population on both of its
    tasks, trajectories recorded."""
    layout = layout_for("per_layer_mlp", OVERFLOW_DIST)
    psi = init_meta_params(layout, seed=1).flat
    noise = np.random.default_rng(5).standard_normal((len(OVERFLOW_SCALES), len(psi)))
    factory = controller_stepper_factory(psi + np.asarray(OVERFLOW_SCALES)[:, None] * noise,
                                         layout, renormalize=True, record=True)
    return [res for seed in generation_task_seeds(OVERFLOW_NES, 3)
            for res in inner_loop_batch(factory, make_task(OVERFLOW_DIST, seed))]


def diverging_sgd_run():
    return baseline_handle(DIVERGING_SGD).run(
        make_task(DIST, TASK_SEEDS[0], split="metatest", k_override=K))


def eval_handles() -> list:
    """Perturbed full and per_layer_mlp controllers with and without
    renormalize, every baseline kind with and without head_only, and the
    diverging SGD."""
    handles = []
    for variant in ("full", "per_layer_mlp"):
        layout = layout_for(variant)
        handles.extend(controller_handle(perturbed_psi(layout), layout,
                                         label=f"{variant}/renormalize={renormalize}",
                                         renormalize=renormalize)
                       for renormalize in (False, True))
    handles.extend(baseline_handle(BaselineSpec(kind, lr0=lr, head_only=head_only))
                   for kind, lr in EVAL_BASELINE_LR.items() for head_only in (False, True))
    return handles + [baseline_handle(DIVERGING_EVAL_SGD)]


def eval_report(init: str):
    init_from = pretrain_checkpoint(DIST, 20, 0) if init == "checkpoint" else None
    return evaluate_suite(eval_handles(), DIST, EVAL_TASKS, EVAL_K, EVAL_SEED,
                          init_from=init_from)


def config_pins(sets, tmp_path) -> tuple[str, str]:
    """(config_hash, sha256 of the config.json bytes) of a config."""
    run = cli.load_config(None, sets)
    write_json(tmp_path / "config.json", run.raw)
    return run.config_hash(), hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest()


def cli_digests(tmp_path) -> dict[str, str]:
    """Pretrain, then a 3-generation meta-train from that checkpoint file."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CLI_CONFIG))
    out = tmp_path / "run"
    assert cli.main(["pretrain", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert cli.main(["meta-train", "--config", str(cfg), "--out-dir", str(out),
                     "--checkpoint", str(out / "checkpoint_pretrain.json")]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in CLI_FILES}


@pytest.mark.parametrize("variant,renormalize", sorted(PINNED_RUNS))
def test_inner_run_digest(variant, renormalize):
    assert run_digest(variant, renormalize) == PINNED_RUNS[(variant, renormalize)]


def test_global_run_digest_deep_net():
    assert run_digest("global", False, DEEP_DIST) == PINNED_DEEP_GLOBAL


def test_diverging_block_digest():
    block = diverging_block()
    assert len({len(r.train_losses) for r in block if r.diverged}) >= 2
    assert not all(r.diverged for r in block)
    assert sha(item for res in block for item in result_items(res)) == PINNED_DIVERGING_BLOCK


def test_diverging_sgd_digest():
    res = diverging_sgd_run()
    assert res.diverged
    assert sha(result_items(res)) == PINNED_DIVERGING_SGD


def test_overflowing_block_digest():
    block = overflowing_block()
    assert block[-1].diverged and not block[0].diverged
    assert sha(item for res in block for item in result_items(res)) == PINNED_OVERFLOWING_BLOCK


@pytest.mark.parametrize("init", sorted(PINNED_EVAL_REPORTS))
def test_evaluate_suite_report_digest(init):
    report = eval_report(init)
    penalties = report.cell(DIVERGING_EVAL_SGD.label, max(EVAL_K)).task_loss
    assert 0 < penalties.count(DIVERGENCE_PENALTY) < EVAL_TASKS
    assert sha(dataclasses.astuple(c) for c in report.cells) == PINNED_EVAL_REPORTS[init]


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_config_hash_and_bytes(name, tmp_path):
    assert config_pins(CONFIG_SETS[name], tmp_path) == PINNED_CONFIGS[name]


def test_cli_meta_train_file_bytes(tmp_path):
    assert cli_digests(tmp_path) == PINNED_FILES


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for key in PINNED_RUNS:
        print(f"    {key!r}: \"{run_digest(*key)}\",")
    print(f"PINNED_DEEP_GLOBAL = \"{run_digest('global', False, DEEP_DIST)}\"")
    block = sha(item for res in diverging_block() for item in result_items(res))
    print(f"PINNED_DIVERGING_BLOCK = \"{block}\"")
    print(f"PINNED_DIVERGING_SGD = \"{sha(result_items(diverging_sgd_run()))}\"")
    block = sha(item for res in overflowing_block() for item in result_items(res))
    print(f"PINNED_OVERFLOWING_BLOCK = \"{block}\"")
    for init in PINNED_EVAL_REPORTS:
        digest = sha(dataclasses.astuple(c) for c in eval_report(init).cells)
        print(f"    \"{init}\": \"{digest}\",")
    with tempfile.TemporaryDirectory() as tmp:
        for name, sets in CONFIG_SETS.items():
            print(f"    \"{name}\": {config_pins(sets, Path(tmp))},")
        for name, digest in cli_digests(Path(tmp)).items():
            print(f"    \"{name}\": \"{digest}\",")
