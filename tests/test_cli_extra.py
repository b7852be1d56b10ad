import csv
import json

from l3rs import cli


def test_ablate_gamma_sets_axis(tmp_path):
    cfg = {
        "seed": 1,
        "distribution": {"k_min": 1, "k_max": 2},
        "nes": {"population": 4, "meta_batch": 1, "generations": 1},
        "pretrain": {"steps": 2},
        "ablate": {"base_sets": [["sgd"]], "variants": ["full"],
                   "gamma_sets": [[0.0, 0.9, 0.99], [0.0], []],
                   "eval_n_tasks": 1, "eval_k": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["ablate", "--config", str(path), "--out-dir", str(out)]) == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["gammas"] for r in rows] == ["0;0.9;0.99", "0", "none"]


def test_evaluate_alternate_distribution_regimes(tmp_path):
    cfg = {
        "seed": 1,
        "distribution": {"k_min": 1, "k_max": 2},
        "pretrain": {"steps": 2},
        "evaluate": {"n_tasks": 2, "k_list": [2], "alt_generator_seed": 99},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    losses = {}
    for regime in ("heldout", "alt_data", "alt_checkpoint", "alt_both"):
        out = tmp_path / regime
        assert cli.main(["evaluate", "--config", str(path), "--out-dir", str(out),
                         "--baseline", "adam_const", "--label", "adam",
                         "--regime", regime]) == 0
        summary = json.loads((out / "eval_adam_summary.json").read_text())
        assert summary["regime"] == regime
        losses[regime] = summary["cells"][0]["mean_loss"]
    # a different generator seed yields genuinely different tasks
    assert losses["alt_data"] != losses["heldout"]
