"""Batch-experiment entry point.

One JSON config file describes a run; every subcommand is a pure function of
that file plus any referenced input files, so reruns are byte-identical.
Flags override config keys (--set a.b.c=value takes any JSON scalar).

Subcommands: pretrain, meta-train, evaluate, inspect, ablate, report.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bench, meta
from .controller import (
    CheckpointError,
    PsiLayout,
    Variant,
    load_psi,
    save_psi,
    time_features,
    unflatten,
)
from .meta import NesConfig, NesState, TaskDistributionSpec
from .optdir import OptimizerKind

CHECKPOINT_EVERY = 50


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "schema_version": 1,
    "seed": 0,
    "out_dir": "runs/default",
    "workers": 1,
    "distribution": {
        "input_dim": 16,
        "total_classes": 16,
        "blob_std": 0.75,
        "generator_seed": 0,
        "pretrain_classes": 8,
        "metatrain_classes": 4,
        "metatest_classes": 4,
        "classes_per_task": 4,
        "hidden": [32],
        "train_batch_size": 32,
        "eval_batch_size": 256,
        "k_min": 5,
        "k_max": 25,
    },
    "layout": {
        "base_optimizers": ["sgd", "adam"],
        "variant": "full",
        "gammas": [0.0, 0.9, 0.99],
        "renormalize": False,
    },
    "nes": {
        "population": 32,
        "meta_batch": 4,
        "generations": 2000,
        "sigma0": 0.05,
        "alpha0": 0.1,
        "decay_period": 500,
        "decay_factor": 0.5,
    },
    "pretrain": {"steps": 500},
    "evaluate": {
        "n_tasks": 50,
        "k_list": [5, 10, 25, 50, 100],
        "regime": "heldout",
        "alt_generator_seed": 1,
    },
    "ablate": {
        "base_sets": [["sgd"], ["sgd", "adam"]],
        "variants": ["full", "global"],
        "gamma_sets": None,
        "eval_n_tasks": 20,
        "eval_k": 10,
    },
}

REGIMES = ("in_domain", "heldout", "alt_data", "alt_checkpoint", "alt_both",
           "random_init")


@dataclass
class RunConfig:
    raw: dict
    seed: int
    out_dir: Path
    workers: int
    dist: TaskDistributionSpec
    nes: NesConfig
    renormalize: bool
    pretrain_steps: int

    def layout_for(self, dist: TaskDistributionSpec) -> PsiLayout:
        lay = self.raw["layout"]
        return PsiLayout(
            n_components=len(dist.task_network().components()),
            base_kinds=tuple(OptimizerKind(k) for k in lay["base_optimizers"]),
            gammas=tuple(lay["gammas"]),
            variant=Variant(lay["variant"]),
        )

    def config_hash(self) -> str:
        # out_dir and workers shape execution, not results; checkpoints made
        # with different worker counts must stay interchangeable
        scrubbed = {k: v for k, v in self.raw.items() if k not in ("out_dir", "workers")}
        blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def apply_set_override(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    dotted, _, text = assignment.partition("=")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = cfg
    keys = dotted.split(".")
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"unknown config key: {dotted}")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigError(f"unknown config key: {dotted}")
    node[keys[-1]] = value


def load_config(path: str | None, sets: list[str], out_dir: str | None = None,
                workers: int | None = None) -> RunConfig:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if user.get("schema_version", 1) != 1:
            raise ConfigError(f"unsupported schema_version {user.get('schema_version')}")
        cfg = _merge(cfg, user)
    for assignment in sets:
        apply_set_override(cfg, assignment)
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    if workers is not None:
        cfg["workers"] = workers

    d = cfg["distribution"]
    try:
        dist = TaskDistributionSpec(
            input_dim=d["input_dim"], total_classes=d["total_classes"],
            blob_std=d["blob_std"], generator_seed=d["generator_seed"],
            pretrain_classes=d["pretrain_classes"],
            metatrain_classes=d["metatrain_classes"],
            metatest_classes=d["metatest_classes"],
            classes_per_task=d["classes_per_task"], hidden=tuple(d["hidden"]),
            train_batch_size=d["train_batch_size"],
            eval_batch_size=d["eval_batch_size"],
            k_min=d["k_min"], k_max=d["k_max"])
        n = cfg["nes"]
        nes = NesConfig(population=n["population"], meta_batch=n["meta_batch"],
                        generations=n["generations"], sigma0=n["sigma0"],
                        alpha0=n["alpha0"], decay_period=n["decay_period"],
                        decay_factor=n["decay_factor"], seed=cfg["seed"])
        run = RunConfig(raw=cfg, seed=cfg["seed"], out_dir=Path(cfg["out_dir"]),
                        workers=int(cfg["workers"]), dist=dist, nes=nes,
                        renormalize=bool(cfg["layout"]["renormalize"]),
                        pretrain_steps=int(cfg["pretrain"]["steps"]))
        run.layout_for(dist)  # validates the layout section
        if cfg["evaluate"]["regime"] not in REGIMES:
            raise ConfigError(f"unknown regime {cfg['evaluate']['regime']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return run


def _write_config_snapshot(run: RunConfig) -> None:
    run.out_dir.mkdir(parents=True, exist_ok=True)
    with open(run.out_dir / "config.json", "w") as fh:
        json.dump(run.raw, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _main_checkpoint(run: RunConfig, path: str | None):
    """The pretrained initialization: loaded from a file, or recomputed
    deterministically from the config."""
    if path is not None:
        spec, params = meta.load_pretrained(path)
        if spec != run.dist.pretrain_network():
            raise ConfigError("checkpoint network does not match the configuration")
        return params
    return meta.pretrain_checkpoint(run.dist, run.pretrain_steps, run.seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_pretrain(args) -> int:
    run = load_config(args.config, args.set, args.out_dir, args.workers)
    _write_config_snapshot(run)
    params = meta.pretrain_checkpoint(run.dist, run.pretrain_steps, run.seed)
    path = run.out_dir / "checkpoint_pretrain.json"
    meta.save_pretrained(path, run.dist.pretrain_network(), params)
    loss, acc = meta.pretrain_eval(run.dist, params, run.seed)
    bench.write_summary_json(
        {"pretrain_steps": run.pretrain_steps, "eval_loss": loss, "eval_acc": acc},
        run.out_dir / "pretrain_metrics.json")
    print(f"pretrain steps={run.pretrain_steps} eval_loss={loss!r} eval_acc={acc!r}")
    print(f"wrote {path}")
    return 0


def cmd_meta_train(args) -> int:
    run = load_config(args.config, args.set, args.out_dir, args.workers)
    _write_config_snapshot(run)
    layout = run.layout_for(run.dist)
    checkpoint = _main_checkpoint(run, args.checkpoint)
    history_path = run.out_dir / "history.csv"

    state = None
    if args.resume:
        psi, doc = load_psi(args.resume)
        if psi.layout != layout:
            raise ConfigError("resume checkpoint layout does not match the configuration")
        if doc.get("config_hash") != run.config_hash():
            raise ConfigError("resume checkpoint was produced by a different configuration")
        gen = int(doc["generation"])
        state = NesState(psi=psi.flat.copy(), generation=gen,
                         history=_read_history(history_path, gen))

    def save(tag, st):
        save_psi(run.out_dir / f"psi_{tag}.json", unflatten(st.psi, layout),
                 extra={"generation": st.generation, "config_hash": run.config_hash()})

    def on_generation(st):
        if st.generation % CHECKPOINT_EVERY == 0 and st.generation < run.nes.generations:
            save(f"gen{st.generation:05d}", st)

    psi, history = meta.meta_train(run.nes, run.dist, layout, init_from=checkpoint,
                                   workers=run.workers, state=state,
                                   renormalize=run.renormalize,
                                   on_generation=on_generation)
    final = NesState(psi=psi, generation=run.nes.generations, history=history)
    save("final", final)
    bench.write_history_csv(history, history_path)
    if history:
        print(f"meta-train generations={run.nes.generations} "
              f"final_mean_fitness={history[-1].mean_fitness!r}")
    print(f"wrote {run.out_dir / 'psi_final.json'}")
    return 0


def _read_history(path, up_to_generation):
    if not path.exists():
        raise ConfigError(f"cannot resume: {path} not found")
    out = []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            g = int(row["generation"])
            if g <= up_to_generation:
                out.append(meta.GenerationStats(
                    generation=g, mean_fitness=float(row["mean_fitness"]),
                    best_fitness=float(row["best_fitness"]),
                    alpha=float(row["alpha"]), sigma=float(row["sigma"])))
    if len(out) != up_to_generation:
        raise ConfigError("history.csv does not cover the resumed generations")
    return out


def _regime_setting(run: RunConfig, regime: str, checkpoint_path: str | None):
    """(task distribution, split, theta0 source) for one evaluation regime."""
    alt = dataclasses.replace(
        run.dist, generator_seed=run.raw["evaluate"]["alt_generator_seed"])
    if regime == "in_domain":
        return run.dist, "metatrain", _main_checkpoint(run, checkpoint_path)
    if regime == "heldout":
        return run.dist, "metatest", _main_checkpoint(run, checkpoint_path)
    if regime == "alt_data":
        return alt, "metatest", _main_checkpoint(run, checkpoint_path)
    if regime == "alt_checkpoint":
        return run.dist, "metatest", meta.pretrain_checkpoint(alt, run.pretrain_steps, run.seed)
    if regime == "alt_both":
        return alt, "metatest", meta.pretrain_checkpoint(alt, run.pretrain_steps, run.seed)
    if regime == "random_init":
        return run.dist, "metatest", None
    raise ConfigError(f"unknown regime {regime!r}")


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in label)


def cmd_evaluate(args) -> int:
    run = load_config(args.config, args.set, args.out_dir, args.workers)
    _write_config_snapshot(run)
    ev = run.raw["evaluate"]
    regime = args.regime or ev["regime"]
    dist, split, init_from = _regime_setting(run, regime, args.checkpoint)

    if args.psi:
        psi, _ = load_psi(args.psi)
        expected = run.layout_for(run.dist)
        if psi.layout != expected:
            raise ConfigError("psi checkpoint layout does not match the configuration")
        label = args.label or "l3rs"
        handle = bench.controller_handle(psi.flat, psi.layout, label=label,
                                         renormalize=run.renormalize)
    elif args.baseline:
        try:
            spec = bench.BaselineSpec(kind=bench.BaselineKind(args.baseline),
                                      lr0=args.lr, head_only=args.head_only)
        except ValueError as exc:
            raise ConfigError(f"--lr: {exc}") from exc
        handle = bench.baseline_handle(spec)
        label = args.label or handle.label
        handle = bench.OptimizerHandle(label=label, factory=handle.factory)
    else:
        raise ConfigError("evaluate needs --psi FILE or --baseline KIND")

    report = bench.evaluate_suite(handle, dist, ev["n_tasks"], ev["k_list"],
                                  eval_seed=run.seed, split=split,
                                  init_from=init_from)
    slug = _slug(label)
    bench.write_eval_csv(report, run.out_dir / f"eval_{slug}.csv")
    bench.write_eval_tasks_csv(report, run.out_dir / f"eval_{slug}_tasks.csv")
    summary = {
        "regime": regime,
        "optimizer": label,
        "cells": [{"K": c.K, "mean_acc": c.mean_acc, "std_acc": c.std_acc,
                   "mean_loss": c.mean_loss, "std_loss": c.std_loss}
                  for c in report.cells],
    }
    bench.write_summary_json(summary, run.out_dir / f"eval_{slug}_summary.json")
    if args.paired:
        _write_paired(report, args.paired, run.out_dir / f"eval_{slug}_paired.csv")
    for c in report.cells:
        print(f"{c.optimizer} K={c.K}: acc={c.mean_acc:.4f}+-{c.std_acc:.4f} "
              f"loss={c.mean_loss:.4f}+-{c.std_loss:.4f}")
    return 0


def _write_paired(report: bench.EvalReport, ref_tasks_csv: str, path) -> None:
    """Per-task differences against a reference run's eval_*_tasks.csv,
    matched on (K, task_index) with the seeds cross-checked."""
    ref = {}
    with open(ref_tasks_csv) as fh:
        for row in csv.DictReader(fh):
            ref[(int(row["K"]), int(row["task_index"]))] = (
                int(row["task_seed"]), float(row["acc"]), float(row["loss"]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["optimizer", "K", "task_index", "task_seed", "acc", "loss",
                    "acc_diff", "loss_diff"])
        for c in report.cells:
            for i, (seed, acc, loss) in enumerate(zip(c.task_seeds, c.task_acc,
                                                      c.task_loss)):
                key = (c.K, i)
                if key not in ref:
                    raise ConfigError(f"reference run lacks K={c.K} task {i}")
                ref_seed, ref_acc, ref_loss = ref[key]
                if ref_seed != seed:
                    raise ConfigError("paired comparison requires identical task seeds")
                w.writerow([c.optimizer, c.K, i, seed, repr(acc), repr(loss),
                            repr(acc - ref_acc), repr(loss - ref_loss)])


def cmd_inspect(args) -> int:
    run = load_config(args.config, args.set, args.out_dir, args.workers)
    _write_config_snapshot(run)
    psi, _ = load_psi(args.psi)
    init_from = _main_checkpoint(run, args.checkpoint)
    if args.k is not None and args.k < 0:
        raise ConfigError(f"--k must be >= 0, got {args.k}")
    task = meta.make_task(run.dist, args.task_seed, split="metatest",
                          init_from=init_from, k_override=args.k)
    handle = bench.controller_handle(psi.flat, psi.layout,
                                     renormalize=run.renormalize)
    result = handle.run(task, record_trajectory=True)
    traj_path = run.out_dir / f"trajectory_{args.task_seed}.csv"
    bench.write_trajectory_csv(result.trajectory or [], psi.layout.n_providers,
                               traj_path)

    k_grid = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    with open(run.out_dir / "time_features_by_step.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k"] + [f"rel_{i}" for i in range(11)] + [f"abs_{j}" for j in range(4)])
        for k in range(1, task.K + 1):
            w.writerow([k] + [repr(float(v)) for v in time_features(k, task.K)])
    with open(run.out_dir / "time_features_by_horizon.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K"] + [f"abs_{j}" for j in range(4)])
        for K in k_grid:
            w.writerow([K] + [repr(float(v)) for v in time_features(K, K)[11:]])
    print(f"task seed={args.task_seed} K={task.K} meta_loss={result.meta_loss!r} "
          f"acc={result.eval_accuracy!r}")
    print(f"wrote {traj_path}")
    return 0


def cmd_ablate(args) -> int:
    run = load_config(args.config, args.set, args.out_dir, args.workers)
    _write_config_snapshot(run)
    ab = run.raw["ablate"]
    gamma_sets = ab["gamma_sets"]
    if gamma_sets is None:
        gamma_sets = [run.raw["layout"]["gammas"]]
    cells = [
        cell
        for gammas in gamma_sets
        for cell in bench.cross_cells(
            [[OptimizerKind(k) for k in base] for base in ab["base_sets"]],
            [Variant(v) for v in ab["variants"]],
            gammas=tuple(gammas))
    ]
    cfg = bench.AblationConfig(
        dist=run.dist, nes=run.nes, cells=cells,
        pretrain_steps=run.pretrain_steps, pretrain_seed=run.seed,
        eval_n_tasks=ab["eval_n_tasks"], eval_k=ab["eval_k"],
        eval_seed=run.seed, workers=run.workers)
    result = bench.run_ablation_battery(cfg)
    bench.write_ablation_csv(result, run.out_dir / "ablation.csv")
    for label, rows in result.trajectories.items():
        n_providers = len(rows[0].mu) if rows else 0
        bench.write_trajectory_csv(rows, n_providers,
                                   run.out_dir / f"ablation_traj_{_slug(label)}.csv")
    for r in result.rows:
        print(f"{r.label}: acc={r.mean_acc:.4f}+-{r.std_acc:.4f}")
    print(f"wrote {run.out_dir / 'ablation.csv'}")
    return 0


def cmd_report(args) -> int:
    rows = []
    header = None
    for path in args.inputs:
        with open(path) as fh:
            reader = csv.reader(fh)
            head = next(reader)
            if header is None:
                header = head
            elif head != header:
                print(f"error: {path} has a different header", file=sys.stderr)
                return 1
            rows.extend(reader)
    rows.sort(key=lambda r: (r[0], float(r[1]) if len(r) > 1 else 0.0))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header or [])
        w.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l3rs",
        description="layer-wise learned optimizer experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run config JSON file")
        p.add_argument("--out-dir", help="override out_dir")
        p.add_argument("--workers", type=int, help="evaluator pool size")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")

    p = sub.add_parser("pretrain", help="train and write the pretrain checkpoint")
    common(p)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("meta-train", help="run the NES outer loop")
    common(p)
    p.add_argument("--checkpoint", help="pretrained model file (default: recompute)")
    p.add_argument("--resume", help="psi checkpoint to resume from")
    p.set_defaults(fn=cmd_meta_train)

    p = sub.add_parser("evaluate", help="paired evaluation of one optimizer")
    common(p)
    p.add_argument("--psi", help="controller checkpoint file")
    p.add_argument("--baseline", choices=[k.value for k in bench.BaselineKind])
    p.add_argument("--lr", type=float, default=1e-2, help="baseline learning rate")
    p.add_argument("--head-only", action="store_true")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--checkpoint", help="pretrained model file (default: recompute)")
    p.add_argument("--label", help="optimizer label in the report")
    p.add_argument("--paired", metavar="REF_TASKS_CSV",
                   help="emit per-task differences against a reference run")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("inspect", help="trajectory and feature dump for one task")
    common(p)
    p.add_argument("--psi", required=True)
    p.add_argument("--task-seed", type=int, required=True)
    p.add_argument("--k", type=int, help="override the task horizon")
    p.add_argument("--checkpoint", help="pretrained model file (default: recompute)")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("ablate", help="run the ablation battery")
    common(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("report", help="merge evaluation CSVs")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
