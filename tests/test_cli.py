import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from l3rs import cli
from l3rs.meta import derived_rng
from l3rs.nnlite import init_params

TINY = {
    "seed": 3,
    "distribution": {"k_min": 1, "k_max": 3},
    "nes": {"population": 4, "meta_batch": 2, "generations": 3, "decay_period": 2},
    "pretrain": {"steps": 4},
    "evaluate": {"n_tasks": 2, "k_list": [2, 3]},
    "ablate": {"base_sets": [["sgd"]], "variants": ["full"], "eval_n_tasks": 2,
               "eval_k": 2},
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = json.loads(json.dumps(TINY))
    for key, value in (extra or {}).items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


REF_COLUMNS = ["optimizer", "K", "task_index", "task_seed", "acc", "loss"]
REF_ROW = {"optimizer": "adam", "K": "2", "task_index": "0", "task_seed": "7",
           "acc": "0.5", "loss": "1.25"}


def write_reference(tmp_path, header, rows):
    """A reference tasks CSV for --paired, as eval_*_tasks.csv lays it out."""
    path = tmp_path / "ref_tasks.csv"
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    return str(path)


def is_json(path):
    """Whether ``path`` holds one whole JSON document (the atomic writer
    renames a file into place whole, so this holds once it exists)."""
    try:
        json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return True


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seeed": 1}))
        assert run_cli("pretrain", "--config", str(path)) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_layout_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"layout": {"variant": "bogus"}})
        assert run_cli("pretrain", "--config", cfg) == 1

    def test_odd_population_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nes": {"population": 5}})
        assert run_cli("pretrain", "--config", cfg) == 1
        assert "population" in capsys.readouterr().err

    def test_set_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert run_cli("pretrain", "--config", cfg, "--out-dir", str(out),
                       "--set", "pretrain.steps=0") == 0
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["pretrain"]["steps"] == 0

    def test_set_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("pretrain", "--config", cfg, "--set", "nes.bogus=1") == 1

    @pytest.mark.parametrize("assignment", [
        "evaluate.n_tasks=0", "evaluate.n_tasks=-2", "evaluate.n_tasks=2.5",
        "evaluate.k_list=[-1]", "evaluate.k_list=[2,1.5]", "evaluate.k_list=[true]",
        "evaluate.k_list=5", "ablate.eval_n_tasks=0", "ablate.eval_k=-1",
        "ablate.eval_k=two"])
    def test_bad_task_counts_rejected(self, tmp_path, capsys, assignment):
        cfg = write_config(tmp_path)
        capsys.readouterr()
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(tmp_path / "e"),
                       "--baseline", "sgd_const", "--set", assignment) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and assignment.split("=")[0] in err
        assert not (tmp_path / "e").exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert run_cli("pretrain", "--config", str(path), "--out-dir", str(tmp_path / "p")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "JSON object" in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("assignment", [
        "nes.population=4.0", "distribution.hidden=[32.0]", "nes.meta_batch=true"])
    def test_integer_fields_reject_floats_and_bools(self, tmp_path, capsys, assignment):
        # the dataclass defaults say which fields are integers; before this
        # check, population 4.0 failed mid-meta-train with a TypeError
        cfg = write_config(tmp_path)
        capsys.readouterr()
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(tmp_path / "m"),
                       "--set", assignment) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and assignment.split("=")[0] in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("assignment", [
        "seed=0.5", "seed=-1", "workers=0", "pretrain.steps=1.5", 'layout.renormalize="yes"',
        "ablate.gamma_sets=[0.5]", "nes.sigma0=NaN", "distribution.blob_std=Infinity",
        'ablate.base_sets=[["bogus"]]', 'ablate.variants=["bogus"]', "layout.gammas=[1.5]",
        "ablate.gamma_sets=[[0.5,2.0]]", "ablate.gamma_sets=[[1]]",
        "distribution.train_batch_size=0",
        "distribution.eval_batch_size=0", "nes.decay_factor=-0.5",
        'ablate.variants=["full","full"]'])
    def test_values_of_a_wrong_type_or_below_the_minimum(self, tmp_path, capsys, assignment):
        # pretrain took each of these (seed 0.5 trained as seed 0, 1.5 steps
        # as 1, "yes" as true, sigma0 NaN, decay factor -0.5 into complex
        # alpha and sigma), and ablate ended in a traceback on several,
        # after writing config.json
        cfg = write_config(tmp_path)
        capsys.readouterr()
        for command in ("pretrain", "ablate"):
            assert run_cli(command, "--config", cfg, "--out-dir", str(tmp_path / "o"),
                           "--set", assignment) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and assignment.split("=")[0] in err
            assert not (tmp_path / "o").exists()

    def test_set_values_are_typed_by_the_defaults_not_the_file(self, tmp_path):
        # the file's int sigma0 and empty k_list do not narrow what --set takes
        cfg = write_config(tmp_path, {"nes": {"sigma0": 1}, "evaluate": {"k_list": []}})
        run = cli.load_config(cfg, ["nes.sigma0=0.5", "evaluate.k_list=[2]",
                                    "ablate.gamma_sets=[[0.5, 1]]", "ablate.gamma_sets=null"])
        assert run.nes.sigma0 == 0.5 and run.raw["evaluate"]["k_list"] == [2]
        assert run.raw["ablate"]["gamma_sets"] is None

    def test_float_fields_take_integers(self):
        run = cli.load_config(None, ["distribution.blob_std=1", "nes.sigma0=1"])
        assert run.dist.blob_std == 1 and run.nes.sigma0 == 1

    def test_ablate_rejects_zero_tasks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ablate": {"eval_n_tasks": 0}})
        assert run_cli("ablate", "--config", cfg, "--out-dir", str(tmp_path / "a")) == 1
        assert "ablate.eval_n_tasks" in capsys.readouterr().err


class TestPretrain:
    def test_zero_steps_equals_fresh_init(self, tmp_path):
        cfg = write_config(tmp_path, {"pretrain": {"steps": 0}})
        out = tmp_path / "run"
        assert run_cli("pretrain", "--config", cfg, "--out-dir", str(out)) == 0
        from l3rs.meta import TaskDistributionSpec, load_pretrained

        _, params = load_pretrained(out / "checkpoint_pretrain.json")
        dist = TaskDistributionSpec(k_min=1, k_max=3)
        fresh = init_params(dist.pretrain_network(),
                            int(derived_rng(3, 5).integers(0, (1 << 63) - 1)))
        assert np.array_equal(params, fresh)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("pretrain", "--config", cfg, "--out-dir", str(out1)) == 0
        assert run_cli("pretrain", "--config", cfg, "--out-dir", str(out2)) == 0
        assert ((out1 / "checkpoint_pretrain.json").read_bytes()
                == (out2 / "checkpoint_pretrain.json").read_bytes())
        assert ((out1 / "pretrain_metrics.json").read_bytes()
                == (out2 / "pretrain_metrics.json").read_bytes())

    def test_metrics_line_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run_cli("pretrain", "--config", cfg, "--out-dir",
                       str(tmp_path / "m")) == 0
        out = capsys.readouterr().out
        assert "eval_loss=" in out and "eval_acc=" in out


@pytest.mark.parametrize("command,flags", [
    ("pretrain", []), ("meta-train", []), ("evaluate", ["--baseline", "adam_const"]),
    ("ablate", [])])
def test_diverging_pretraining_is_an_error_line(tmp_path, capsys, command, flags):
    with np.errstate(over="ignore"):  # the blobs themselves overflow
        assert run_cli(command, "--config", write_config(tmp_path), "--out-dir",
                       str(tmp_path / "o"), "--set", "distribution.blob_std=1e308",
                       "--set", "pretrain.steps=5", *flags) == 1
    assert capsys.readouterr().err == "error: pretraining diverged at step 1\n"


@pytest.mark.parametrize("command,flags", [
    ("pretrain", []), ("evaluate", ["--baseline", "adam_const"]),
    ("inspect", ["--psi", "psi.json", "--task-seed", "1"])])
def test_workers_flag_belongs_to_meta_train_and_ablate(tmp_path, capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", write_config(tmp_path), "--out-dir", str(tmp_path / "o"),
                "--workers", "7", *flags)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestMetaTrain:
    def test_history_rows_equal_generations(self, tmp_path):
        cfg = write_config(tmp_path, {"nes": {"generations": 1}})
        out = tmp_path / "run"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out)) == 0
        rows = read_rows(out / "history.csv")
        assert len(rows) == 1
        assert rows[0]["generation"] == "1"

    def test_alpha_sigma_halve_at_decay_generations(self, tmp_path):
        cfg = write_config(tmp_path, {"nes": {"generations": 5, "decay_period": 2}})
        out = tmp_path / "run"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out)) == 0
        rows = read_rows(out / "history.csv")
        alphas = [float(r["alpha"]) for r in rows]
        sigmas = [float(r["sigma"]) for r in rows]
        assert alphas[2] == alphas[0] * 0.5 and alphas[4] == alphas[0] * 0.25
        assert sigmas[2] == sigmas[0] * 0.5 and sigmas[4] == sigmas[0] * 0.25

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out)) == 0
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "psi_final.json").read_bytes() == (out2 / "psi_final.json").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 2)
        cfg = write_config(tmp_path, {"nes": {"generations": 5}})
        full = tmp_path / "full"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(full)) == 0

        resumed = tmp_path / "resumed"
        resumed.mkdir()
        shutil.copy(full / "history.csv", resumed / "history.csv")
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(resumed),
                       "--resume", str(full / "psi_gen00002.json")) == 0
        assert ((full / "history.csv").read_bytes()
                == (resumed / "history.csv").read_bytes())
        assert ((full / "psi_final.json").read_bytes()
                == (resumed / "psi_final.json").read_bytes())

    def test_checkpoint_history_is_one_row_per_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 2)
        cfg = write_config(tmp_path, {"nes": {"generations": 5}})
        full = tmp_path / "full"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(full)) == 0
        for gen in (2, 4):
            text = (full / f"psi_gen{gen:05d}.json").read_text()
            doc = json.loads(text)
            head, rows = text.split(' "history": [\n')
            assert head == json.dumps({k: v for k, v in doc.items() if k != "history"},
                                      indent=1)[:-2] + ",\n"
            lines = ["  " + json.dumps(row) for row in doc["history"]]
            assert rows == ",\n".join(lines) + "\n ]\n}\n"
            # each generation adds its row's line: the row, its indent, a
            # comma and a newline (the last row has no comma)
            per_gen = [len(json.dumps(row)) + 4 for row in doc["history"]]
            assert len(rows) == sum(per_gen) - 1 + len(" ]\n}\n")
            assert max(per_gen) < 100

        # a checkpoint in the layout of one number per line still resumes
        # to the bytes of the uninterrupted run
        old = tmp_path / "old" / "psi_gen00002.json"
        old.parent.mkdir()
        doc = json.loads((full / "psi_gen00002.json").read_text())
        old.write_text(json.dumps(doc, indent=1) + "\n")
        resumed = tmp_path / "resumed"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(resumed),
                       "--resume", str(old)) == 0
        for name in ("history.csv", "psi_final.json"):
            assert (resumed / name).read_bytes() == (full / name).read_bytes(), name

    def test_resume_after_sigkill_matches_uninterrupted(self, tmp_path):
        """A real meta-train process killed after its generation-50 checkpoint
        lands resumes from that file alone, in the same out_dir."""
        cfg = write_config(tmp_path, {"nes": {"population": 2, "meta_batch": 1,
                                              "generations": 120}})
        out = tmp_path / "run"
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "l3rs.cli", "meta-train", "--config", cfg,
             "--out-dir", str(out)], env=env, stdout=subprocess.DEVNULL)
        checkpoint = out / "psi_gen00050.json"
        deadline = time.monotonic() + 120
        while not is_json(checkpoint) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.002)
        proc.kill()
        assert proc.wait() == -signal.SIGKILL, "the run ended before it was killed"
        assert checkpoint.exists() and not (out / "history.csv").exists()

        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out),
                       "--resume", str(checkpoint)) == 0
        full = tmp_path / "full"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(full)) == 0
        for name in ("history.csv", "psi_final.json"):
            assert (out / name).read_bytes() == (full / name).read_bytes(), name

    def test_resume_rejects_other_config(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 2)
        cfg = write_config(tmp_path, {"nes": {"generations": 4}})
        out = tmp_path / "run"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out)) == 0
        other = write_config(tmp_path, {"seed": 4, "nes": {"generations": 4}},
                             name="other.json")
        assert run_cli("meta-train", "--config", other, "--out-dir", str(out),
                       "--resume", str(out / "psi_gen00002.json")) == 1

    def test_refused_resume_leaves_the_config_snapshot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 2)
        cfg = write_config(tmp_path, {"nes": {"generations": 4}})
        out = tmp_path / "run"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out)) == 0
        snapshot = (out / "config.json").read_bytes()
        capsys.readouterr()
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out), "--set", "seed=4",
                       "--resume", str(out / "psi_gen00002.json")) == 1
        assert "different configuration" in capsys.readouterr().err
        assert (out / "config.json").read_bytes() == snapshot

    def test_resume_of_another_layout_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 2)
        cfg = write_config(tmp_path, {"nes": {"generations": 4}})
        out = tmp_path / "run"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out)) == 0
        capsys.readouterr()
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(tmp_path / "again"),
                       "--set", "layout.variant=global",
                       "--resume", str(out / "psi_gen00002.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "layout does not match" in err
        assert not (tmp_path / "again").exists()

    def test_worker_override_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out1),
                       "--workers", "1") == 0
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out2),
                       "--workers", "3") == 0
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "psi_final.json").read_bytes() == (out2 / "psi_final.json").read_bytes()


def train_tiny_psi(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "train"
    assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out)) == 0
    return cfg, out / "psi_final.json"


class TestEvaluate:
    def test_baseline_only_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(out),
                       "--baseline", "adam_const", "--lr", "0.01") == 0
        files = sorted(p.name for p in out.iterdir())
        assert "eval_adam_const_lr_0.01_.csv" in files

    def test_requires_psi_or_baseline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run_cli("evaluate", "--config", cfg, "--out-dir",
                       str(tmp_path / "e")) == 1
        assert not (tmp_path / "e").exists()

    def test_psi_and_baseline_together_are_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--config", write_config(tmp_path), "--out-dir",
                    str(tmp_path / "e"), "--psi", "psi.json", "--baseline", "adam_const")
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_psi_of_another_layout_writes_nothing(self, tmp_path, capsys):
        cfg, psi_path = train_tiny_psi(tmp_path)
        capsys.readouterr()
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(tmp_path / "e"),
                       "--psi", str(psi_path), "--set", "layout.variant=global") == 1
        assert "layout does not match" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_identical_csv_on_rerun(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert run_cli("evaluate", "--config", cfg, "--out-dir", str(out),
                           "--baseline", "sgd_const", "--lr", "0.1",
                           "--label", "sgd") == 0
        assert (out1 / "eval_sgd.csv").read_bytes() == (out2 / "eval_sgd.csv").read_bytes()

    def test_psi_evaluation_and_paired(self, tmp_path):
        cfg, psi_path = train_tiny_psi(tmp_path)
        ref = tmp_path / "ref"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(ref),
                       "--baseline", "adam_const", "--lr", "0.01",
                       "--label", "adam") == 0
        out = tmp_path / "l3rs_eval"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(out),
                       "--psi", str(psi_path),
                       "--paired", str(ref / "eval_adam_tasks.csv")) == 0
        paired = read_rows(out / "eval_l3rs_paired.csv")
        assert paired and "loss_diff" in paired[0]

    def test_self_paired_diffs_are_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        ref = tmp_path / "r1"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(ref),
                       "--baseline", "adam_const", "--label", "adam") == 0
        out = tmp_path / "r2"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(out),
                       "--baseline", "adam_const", "--label", "adam",
                       "--paired", str(ref / "eval_adam_tasks.csv")) == 0
        for row in read_rows(out / "eval_adam_paired.csv"):
            assert float(row["acc_diff"]) == 0.0
            assert float(row["loss_diff"]) == 0.0

    @pytest.mark.parametrize("lr", ["-1", "nan", "inf"])
    def test_negative_lr_reports_error(self, tmp_path, capsys, lr):
        cfg = write_config(tmp_path)
        capsys.readouterr()
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(tmp_path / "e"),
                       "--baseline", "sgd_const", "--lr", lr) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--lr" in err

    @pytest.mark.parametrize("column", ["task_seed", "acc", "loss"])
    def test_paired_reference_without_a_column(self, tmp_path, capsys, column):
        header = [c for c in REF_COLUMNS if c != column]
        ref = write_reference(tmp_path, header, [[REF_ROW[c] for c in header]])
        assert self._paired(tmp_path, ref) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and column in err
        assert not (tmp_path / "p").exists()

    def test_paired_reference_with_a_non_integer_k(self, tmp_path, capsys):
        ref = write_reference(tmp_path, REF_COLUMNS,
                              [[REF_ROW[c] if c != "K" else "2.5" for c in REF_COLUMNS]])
        assert self._paired(tmp_path, ref) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2.5" in err

    @pytest.mark.parametrize("assignment,message", [
        ("evaluate.n_tasks=3", "reference run lacks K=2 task 2"),
        ("seed=4", "paired comparison requires identical task seeds")])
    def test_paired_reference_of_other_tasks_writes_nothing(self, tmp_path, capsys,
                                                            assignment, message):
        # the mismatch was found only after config.json and the eval CSVs
        # had been written
        cfg = write_config(tmp_path)
        ref = tmp_path / "ref"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(ref),
                       "--baseline", "adam_const", "--label", "adam") == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(tmp_path / "p"),
                       "--baseline", "adam_const", "--set", assignment,
                       "--paired", str(ref / "eval_adam_tasks.csv")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "p").exists()

    def test_paired_reference_with_conflicting_rows_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ref = tmp_path / "ref"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(ref),
                       "--baseline", "adam_const", "--label", "adam") == 0
        tasks = ref / "eval_adam_tasks.csv"
        (first,) = [row for row in read_rows(tasks) if row["K"] == "2" and row["task_index"] == "0"]
        with open(tasks, "a", newline="") as fh:
            csv.writer(fh).writerow([*list(first.values())[:4], "0.0", first["loss"]])
        capsys.readouterr()
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(tmp_path / "p"),
                       "--baseline", "adam_const", "--paired", str(tasks)) == 1
        assert capsys.readouterr().err == (
            "error: reference run holds two different rows for K=2 task 0\n")
        assert not (tmp_path / "p").exists()

    def test_paired_reference_with_a_repeated_k(self, tmp_path):
        # a k_list that repeats a K writes its rows twice, identically
        cfg = write_config(tmp_path, {"evaluate": {"k_list": [2, 2]}})
        ref = tmp_path / "ref"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(ref),
                       "--baseline", "adam_const", "--label", "adam") == 0
        assert len(read_rows(ref / "eval_adam_tasks.csv")) == 4
        out = tmp_path / "p"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(out), "--baseline",
                       "adam_const", "--label", "adam",
                       "--paired", str(ref / "eval_adam_tasks.csv")) == 0
        diffs = [(row["acc_diff"], row["loss_diff"])
                 for row in read_rows(out / "eval_adam_paired.csv")]
        assert diffs == [("0.0", "0.0")] * 4

    @staticmethod
    def _paired(tmp_path, ref):
        return run_cli("evaluate", "--config", write_config(tmp_path), "--out-dir",
                       str(tmp_path / "p"), "--baseline", "sgd_const", "--paired", ref)

    def test_random_init_regime(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "rand"
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(out),
                       "--baseline", "adam_const", "--regime", "random_init",
                       "--label", "adam") == 0
        assert (out / "eval_adam_summary.json").exists()

    def test_regime_flag_is_the_recorded_config(self, tmp_path):
        # config.json once recorded the config's regime, though --regime ran
        # another; the flag now runs as the key it sets
        cfg = write_config(tmp_path)
        flag, key = tmp_path / "flag", tmp_path / "key"
        for out, how in ((flag, ["--regime", "random_init"]),
                         (key, ["--set", "evaluate.regime=random_init"])):
            assert run_cli("evaluate", "--config", cfg, "--out-dir", str(out),
                           "--baseline", "adam_const", "--label", "adam", *how) == 0
        config = json.loads((flag / "config.json").read_text())
        summary = json.loads((flag / "eval_adam_summary.json").read_text())
        assert config["evaluate"]["regime"] == summary["regime"] == "random_init"
        assert {**config, "out_dir": None} == {
            **json.loads((key / "config.json").read_text()), "out_dir": None}
        for name in ("eval_adam.csv", "eval_adam_tasks.csv", "eval_adam_summary.json"):
            assert (flag / name).read_bytes() == (key / name).read_bytes()


def rewrite_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestMalformedCheckpoints:
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(format_version=2), "unsupported checkpoint version 2"),
        (lambda doc: doc.update(psi=doc["psi"][:1]), "1 values, but its layout needs"),
    ], ids=["version", "truncated"])
    def test_evaluate_reports_bad_psi(self, tmp_path, capsys, edit, message):
        cfg, psi_path = train_tiny_psi(tmp_path)
        rewrite_json(psi_path, edit)
        capsys.readouterr()
        assert run_cli("evaluate", "--config", cfg, "--out-dir", str(tmp_path / "e"),
                       "--psi", str(psi_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_meta_train_reports_truncated_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "pre"
        assert run_cli("pretrain", "--config", cfg, "--out-dir", str(out)) == 0
        path = out / "checkpoint_pretrain.json"
        rewrite_json(path, lambda doc: doc.update(values=doc["values"][:1]))
        capsys.readouterr()
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(tmp_path / "m"),
                       "--checkpoint", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1 values, but its network needs" in err


    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("history"),
        lambda doc: doc.update(history=doc["history"][:1]),
        lambda doc: doc["history"][1].pop(),
        lambda doc: doc.pop("generation"),
    ], ids=["missing", "too_few_rows", "short_row", "no_generation"])
    def test_meta_train_rejects_checkpoint_without_history(self, tmp_path, capsys,
                                                           monkeypatch, edit):
        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 2)
        cfg = write_config(tmp_path, {"nes": {"generations": 4}})
        out = tmp_path / "run"
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out)) == 0
        path = out / "psi_gen00002.json"
        rewrite_json(path, edit)
        capsys.readouterr()
        assert run_cli("meta-train", "--config", cfg, "--out-dir", str(out),
                       "--resume", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: cannot resume: ")


class TestInspect:
    def test_negative_k_reports_error(self, tmp_path, capsys):
        cfg, psi_path = train_tiny_psi(tmp_path)
        capsys.readouterr()
        assert run_cli("inspect", "--config", cfg, "--out-dir", str(tmp_path / "i"),
                       "--psi", str(psi_path), "--task-seed", "11", "--k", "-1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--k" in err
        assert not (tmp_path / "i").exists()

    def test_psi_of_another_layout_writes_nothing(self, tmp_path, capsys):
        # a psi trained on a deeper network has more components than the
        # configuration's network
        deep = write_config(tmp_path, {"distribution": {"hidden": [8, 8]}}, name="deep.json")
        assert run_cli("meta-train", "--config", deep, "--out-dir", str(tmp_path / "t")) == 0
        capsys.readouterr()
        assert run_cli("inspect", "--config", write_config(tmp_path), "--out-dir",
                       str(tmp_path / "i"), "--psi", str(tmp_path / "t" / "psi_final.json"),
                       "--task-seed", "11") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "layout does not match" in err
        assert not (tmp_path / "i").exists()

    def test_trajectory_and_feature_curves(self, tmp_path):
        cfg, psi_path = train_tiny_psi(tmp_path)
        out = tmp_path / "inspect"
        assert run_cli("inspect", "--config", cfg, "--out-dir", str(out),
                       "--psi", str(psi_path), "--task-seed", "11",
                       "--k", "6") == 0
        rows = read_rows(out / "trajectory_11.csv")
        assert len(rows) == 6 * 4  # K steps x L components
        for row in rows:
            total = float(row["mu_0"]) + float(row["mu_1"])
            assert abs(total - 1.0) <= 1e-9
        steps = read_rows(out / "time_features_by_step.csv")
        assert len(steps) == 6
        mid = [r for r in steps if int(r["k"]) == 3][0]
        assert float(mid["rel_5"]) == 0.0  # alpha = 0.5 crosses zero at k/K = 0.5
        horizon = read_rows(out / "time_features_by_horizon.csv")
        assert [int(r["K"]) for r in horizon][:3] == [1, 2, 5]


class TestAblate:
    def test_single_cell_battery(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ablate"
        assert run_cli("ablate", "--config", cfg, "--out-dir", str(out)) == 0
        rows = read_rows(out / "ablation.csv")
        assert len(rows) == 1
        assert rows[0]["base_optimizers"] == "sgd"
        assert rows[0]["variant"] == "full"

    def test_empty_probe_keeps_its_mu_columns(self, tmp_path):
        # with eval_k 0 the probe records no rows, and the header once lost
        # its mu columns
        cfg = write_config(tmp_path, {"ablate": {"base_sets": [["sgd", "adam"]],
                                                 "eval_k": 0}})
        out = tmp_path / "ablate"
        assert run_cli("ablate", "--config", cfg, "--out-dir", str(out)) == 0
        (traj,) = out.glob("ablation_traj_*.csv")
        assert traj.read_text().splitlines() == ["step,component,mu_0,mu_1,lambda,loss"]

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        for out in (out1, out2):
            assert run_cli("ablate", "--config", cfg, "--out-dir", str(out)) == 0
        assert (out1 / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()


class TestReport:
    def test_merges_and_sorts(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for i, (kind, lr) in enumerate([("sgd_const", "0.1"), ("adam_const", "0.01")]):
            out = tmp_path / f"m{i}"
            assert run_cli("evaluate", "--config", cfg, "--out-dir", str(out),
                           "--baseline", kind, "--lr", lr, "--label", kind) == 0
            outs.append(out / f"eval_{kind}.csv")
        merged = tmp_path / "merged.csv"
        assert run_cli("report", "--inputs", str(outs[0]), str(outs[1]),
                       "--out", str(merged)) == 0
        rows = read_rows(merged)
        assert len(rows) == 4
        assert [r["optimizer"] for r in rows] == ["adam_const", "adam_const",
                                                  "sgd_const", "sgd_const"]

    def test_empty_input_reports_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli("report", "--inputs", str(empty), "--out", str(tmp_path / "o.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty" in err
        assert not (tmp_path / "o.csv").exists()

    def test_non_numeric_second_column_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("optimizer,K\nsgd,five\n")
        assert run_cli("report", "--inputs", str(bad), "--out", str(tmp_path / "o.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'five'" in err
        assert not (tmp_path / "o.csv").exists()
