"""Batch-experiment entry point.

One JSON config file describes a run; every subcommand is a pure function of
that file plus any referenced input files, so reruns are byte-identical.
Flags override config keys (--set a.b.c=value takes a JSON value of the
key's type, or else the text as a string).

Subcommands: pretrain, meta-train, evaluate, inspect, ablate, report.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bench, meta
from .controller import (
    DEFAULT_GAMMAS,
    CheckpointError,
    PsiLayout,
    Variant,
    load_psi,
    save_psi,
    time_features,
    unflatten,
)
from .files import write_csv, write_json
from .meta import NesConfig, NesState, TaskDistributionSpec

CHECKPOINT_EVERY = 50


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "schema_version": 1,
    "seed": 0,
    "out_dir": "runs/default",
    "workers": 1,
    "distribution": dataclasses.asdict(TaskDistributionSpec()),
    "layout": {
        "base_optimizers": ["sgd", "adam"],
        "variant": PsiLayout.variant.value,  # the dataclass default
        "gammas": list(DEFAULT_GAMMAS),
        "renormalize": False,
    },
    # the run's seed is the top-level "seed"
    "nes": {k: v for k, v in dataclasses.asdict(NesConfig()).items() if k != "seed"},
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

# regime -> (alternative distribution, theta0 source, split); the source is
# "main" (the --checkpoint file or the recomputed checkpoint), "alt" (pretrained
# on the alternative distribution) or None (random init)
REGIMES = {
    "in_domain": (False, "main", "metatrain"),
    "heldout": (False, "main", "metatest"),
    "alt_data": (True, "main", "metatest"),
    "alt_checkpoint": (False, "alt", "metatest"),
    "alt_both": (True, "alt", "metatest"),
    "random_init": (False, None, "metatest"),
}
# the type of a key whose default is null, which stays allowed
_NULLABLE = {"ablate.gamma_sets": [[0.0]]}
_TYPE_NAMES = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
               float: ("a finite number", "finite numbers"), str: ("a string", "strings")}


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
        return PsiLayout(n_components=len(dist.task_network().components()),
                         base_kinds=lay["base_optimizers"], gammas=lay["gammas"],
                         variant=lay["variant"])

    def ablation_cells(self) -> list[bench.AblationCell]:
        """Every gamma set × base set × variant of the ablate section."""
        ab = self.raw["ablate"]
        try:
            base_sets = [PsiLayout(1, base).base_kinds for base in ab["base_sets"]]
        except ValueError as exc:
            raise ConfigError(f"ablate.base_sets: {exc}") from exc
        try:
            variants = [Variant(v) for v in ab["variants"]]
        except ValueError as exc:
            raise ConfigError(f"ablate.variants: {exc}") from exc
        gamma_sets = ab["gamma_sets"]
        if gamma_sets is None:
            gamma_sets = [self.raw["layout"]["gammas"]]
        cells = [cell for gammas in gamma_sets
                 for cell in bench.cross_cells(base_sets, variants, gammas=tuple(gammas))]
        labels = [cell.label for cell in cells]
        if len(set(labels)) < len(labels):
            raise ConfigError("ablate.base_sets, ablate.variants and ablate.gamma_sets repeat the "
                              f"cell {next(x for x in labels if labels.count(x) > 1)}")
        return cells

    def config_hash(self) -> str:
        # out_dir and workers shape execution, not results; checkpoints made
        # with different worker counts must stay interchangeable
        scrubbed = {k: v for k, v in self.raw.items() if k not in ("out_dir", "workers")}
        blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fits(value, default) -> bool:
    """Whether ``value`` has the type of ``default``: an int (not a bool) for
    an int, an int or a finite float for a float, the same type for a bool
    or a string, and a list whose entries fit the first entry for a list."""
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is type(default)


def _type_name(default, plural: bool = False) -> str:
    if isinstance(default, (list, tuple)):
        return ("lists" if plural else "a list") + " of " + _type_name(default[0], True)
    return _TYPE_NAMES[type(default)][plural]


def _merge(cfg: dict, override: dict, schema: dict = DEFAULT_CONFIG, path: str = "") -> None:
    """Update ``cfg`` in place from ``override``, a config object or the
    nested object of one --set. Every key must be a key of ``schema``, the
    DEFAULT_CONFIG section at ``path``, and every value must have the type
    of its default there."""
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {where}")
        default = schema[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            _merge(cfg[key], value, default, where)
            continue
        if where in _NULLABLE:
            if value is not None and not _fits(value, _NULLABLE[where]):
                raise ConfigError(f"{where} must be null or {_type_name(_NULLABLE[where])}, "
                                  f"got {value!r}")
        elif not _fits(value, default):
            raise ConfigError(f"{where} must be {_type_name(default)}, got {value!r}")
        cfg[key] = value


def _parse_set(assignment: str) -> dict:
    """--set a.b=v as the nested object {"a": {"b": v}}; v is JSON, or else
    the text itself."""
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    dotted, _, text = assignment.partition("=")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def load_config(path: str | None, sets: list[str], out_dir: str | None = None,
                workers: int | None = None) -> RunConfig:
    overrides = []
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: a config must be a JSON object, got {user!r:.40}")
        overrides.append(user)
    overrides += [_parse_set(assignment) for assignment in sets]
    flags = {"out_dir": out_dir, "workers": workers}
    overrides.append({k: v for k, v in flags.items() if v is not None})
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for override in overrides:
        _merge(cfg, override)
    if cfg["schema_version"] != 1:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']}")
    ev, ab = cfg["evaluate"], cfg["ablate"]
    if ev["regime"] not in REGIMES:
        raise ConfigError(f"unknown regime {ev['regime']!r}")
    # the bounds that the types do not give
    dist = cfg["distribution"]
    for where, value, least in [
            ("seed", cfg["seed"], 0), ("workers", cfg["workers"], 1),
            ("pretrain.steps", cfg["pretrain"]["steps"], 0),
            ("distribution.train_batch_size", dist["train_batch_size"], 1),
            ("distribution.eval_batch_size", dist["eval_batch_size"], 1),
            ("evaluate.n_tasks", ev["n_tasks"], 1), ("ablate.eval_n_tasks", ab["eval_n_tasks"], 1),
            *(("every evaluate.k_list entry", k, 0) for k in ev["k_list"]),
            ("ablate.eval_k", ab["eval_k"], 0)]:
        if value < least:
            raise ConfigError(f"{where} must be >= {least}, got {value!r}")
    if cfg["nes"]["decay_factor"] <= 0:
        raise ConfigError(f"nes.decay_factor must be > 0, got {cfg['nes']['decay_factor']!r}")
    gammas, gamma_sets = cfg["layout"]["gammas"], ab["gamma_sets"]
    if not all(0 <= g < 1 for g in gammas):
        raise ConfigError(f"every layout.gammas entry must lie in [0, 1), got {gammas!r}")
    if not all(0 <= g < 1 for one_set in gamma_sets or () for g in one_set):
        raise ConfigError(f"every ablate.gamma_sets gamma must lie in [0, 1), got {gamma_sets!r}")
    try:
        dist = TaskDistributionSpec(**dist)
        run = RunConfig(raw=cfg, seed=cfg["seed"], out_dir=Path(cfg["out_dir"]),
                        workers=cfg["workers"], dist=dist,
                        nes=NesConfig(**cfg["nes"], seed=cfg["seed"]),
                        renormalize=cfg["layout"]["renormalize"],
                        pretrain_steps=cfg["pretrain"]["steps"])
        run.layout_for(dist)  # validates the layout section
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    run.ablation_cells()  # validates the ablate section
    return run


def _write_config_snapshot(run: RunConfig) -> None:
    run.out_dir.mkdir(parents=True, exist_ok=True)
    write_json(run.out_dir / "config.json", run.raw)


def _configured_psi(run: RunConfig, path: str):
    """(psi, document) of the psi checkpoint at ``path``; refused unless its
    layout is the configuration's."""
    psi, doc = load_psi(path)
    if psi.layout != run.layout_for(run.dist):
        raise ConfigError("psi checkpoint layout does not match the configuration")
    return psi, doc


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
    write_json(run.out_dir / "pretrain_metrics.json",
               {"pretrain_steps": run.pretrain_steps, "eval_loss": loss, "eval_acc": acc})
    print(f"pretrain steps={run.pretrain_steps} eval_loss={loss!r} eval_acc={acc!r}")
    print(f"wrote {path}")
    return 0


def cmd_meta_train(args) -> int:
    run = load_config(args.config, args.set, args.out_dir, args.workers)
    layout = run.layout_for(run.dist)
    state = None
    if args.resume:
        psi, doc = _configured_psi(run, args.resume)
        if doc.get("config_hash") != run.config_hash():
            raise ConfigError("resume checkpoint was produced by a different configuration")
        history = _resume_history(doc, args.resume)
        state = NesState(psi=psi.flat.copy(), generation=len(history), history=history)
    checkpoint = _main_checkpoint(run, args.checkpoint)
    _write_config_snapshot(run)

    def save(tag, st, **extra):
        save_psi(run.out_dir / f"psi_{tag}.json", unflatten(st.psi, layout),
                 extra={"generation": st.generation, "config_hash": run.config_hash(),
                        **extra})

    def on_generation(st):
        # an intermediate checkpoint carries the history so far, one row per
        # line, so a resume needs nothing else; psi_final.json does not
        if st.generation % CHECKPOINT_EVERY == 0 and st.generation < run.nes.generations:
            save(f"gen{st.generation:05d}", st,
                 history=[dataclasses.astuple(h) for h in st.history])

    psi, history = meta.meta_train(run.nes, run.dist, layout, init_from=checkpoint,
                                   workers=run.workers, state=state,
                                   renormalize=run.renormalize,
                                   on_generation=on_generation)
    final = NesState(psi=psi, generation=run.nes.generations, history=history)
    save("final", final)
    bench.write_history_csv(history, run.out_dir / "history.csv")
    if history:
        print(f"meta-train generations={run.nes.generations} "
              f"final_mean_fitness={history[-1].mean_fitness!r}")
    print(f"wrote {run.out_dir / 'psi_final.json'}")
    return 0


def _resume_history(doc, path):
    """The history rows a psi checkpoint carries, one per generation so far."""
    try:
        history = [meta.GenerationStats(*row) for row in doc["history"]]
        whole = [h.generation for h in history] == list(range(1, int(doc["generation"]) + 1))
    except (KeyError, TypeError, ValueError):
        whole = False
    if not whole:
        raise ConfigError(f"cannot resume: {path} lacks its generation or the history "
                          "rows up to it")
    return history


def _regime_setting(run: RunConfig, regime: str, checkpoint_path: str | None):
    """(task distribution, split, theta0) for one evaluation regime."""
    alt_data, source, split = REGIMES[regime]
    alt = dataclasses.replace(
        run.dist, generator_seed=run.raw["evaluate"]["alt_generator_seed"])
    if source == "main":
        init_from = _main_checkpoint(run, checkpoint_path)
    elif source == "alt":
        init_from = meta.pretrain_checkpoint(alt, run.pretrain_steps, run.seed)
    else:
        init_from = None
    return alt if alt_data else run.dist, split, init_from


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in label)


def cmd_evaluate(args) -> int:
    sets = args.set + ([f"evaluate.regime={args.regime}"] if args.regime else [])
    run = load_config(args.config, sets, args.out_dir, args.workers)
    ev = run.raw["evaluate"]
    seeds = bench.evaluation_task_seeds(run.seed, ev["n_tasks"])
    reference = _read_reference(args.paired, ev["k_list"], seeds) if args.paired else None
    if args.psi:
        psi, _ = _configured_psi(run, args.psi)
        handle = bench.controller_handle(psi.flat, psi.layout, renormalize=run.renormalize)
    elif args.baseline:
        try:
            spec = bench.BaselineSpec(kind=bench.BaselineKind(args.baseline),
                                      lr0=args.lr, head_only=args.head_only)
        except ValueError as exc:
            raise ConfigError(f"--lr: {exc}") from exc
        handle = bench.baseline_handle(spec)
    else:
        raise ConfigError("evaluate needs --psi FILE or --baseline KIND")
    if args.label:
        handle = dataclasses.replace(handle, label=args.label)
    dist, split, init_from = _regime_setting(run, ev["regime"], args.checkpoint)
    _write_config_snapshot(run)

    report = bench.evaluate_suite([handle], dist, ev["n_tasks"], ev["k_list"],
                                  eval_seed=run.seed, split=split,
                                  init_from=init_from)
    slug = _slug(handle.label)
    bench.write_eval_csv(report, run.out_dir / f"eval_{slug}.csv")
    bench.write_eval_tasks_csv(report, run.out_dir / f"eval_{slug}_tasks.csv")
    summary = {
        "regime": ev["regime"],
        "optimizer": handle.label,
        "cells": [{"K": c.K, "mean_acc": c.mean_acc, "std_acc": c.std_acc,
                   "mean_loss": c.mean_loss, "std_loss": c.std_loss}
                  for c in report.cells],
    }
    write_json(run.out_dir / f"eval_{slug}_summary.json", summary)
    if reference is not None:
        _write_paired(report, reference, run.out_dir / f"eval_{slug}_paired.csv")
    for c in report.cells:
        print(f"{c.optimizer} K={c.K}: acc={c.mean_acc:.4f}+-{c.std_acc:.4f} "
              f"loss={c.mean_loss:.4f}+-{c.std_loss:.4f}")
    return 0


def _read_reference(ref_tasks_csv: str, k_list, seeds) -> dict:
    """(K, task_index) -> (task_seed, acc, loss) of a reference run's
    eval_*_tasks.csv; refused unless it holds task i at seeds[i] for every
    K of ``k_list``."""
    ref = {}
    with open(ref_tasks_csv) as fh:
        for row in csv.DictReader(fh):
            try:
                ref[(int(row["K"]), int(row["task_index"]))] = (
                    int(row["task_seed"]), float(row["acc"]), float(row["loss"]))
            except KeyError as exc:
                raise ConfigError(f"{ref_tasks_csv} lacks the column {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{ref_tasks_csv}: bad row {row!r}: {exc}") from None
    for K in k_list:
        for i, seed in enumerate(seeds):
            if (K, i) not in ref:
                raise ConfigError(f"reference run lacks K={K} task {i}")
            if ref[K, i][0] != seed:
                raise ConfigError("paired comparison requires identical task seeds")
    return ref


def _write_paired(report: bench.EvalReport, ref: dict, path) -> None:
    """Per-task differences against a reference run (_read_reference),
    matched on (K, task_index)."""
    write_csv(path, ["optimizer", "K", "task_index", "task_seed", "acc", "loss",
                     "acc_diff", "loss_diff"],
              ([c.optimizer, c.K, i, seed, repr(acc), repr(loss),
                repr(acc - ref[c.K, i][1]), repr(loss - ref[c.K, i][2])]
               for c in report.cells
               for i, (seed, acc, loss) in enumerate(zip(c.task_seeds, c.task_acc,
                                                         c.task_loss))))


def cmd_inspect(args) -> int:
    run = load_config(args.config, args.set, args.out_dir, args.workers)
    if args.k is not None and args.k < 0:
        raise ConfigError(f"--k must be >= 0, got {args.k}")
    psi, _ = _configured_psi(run, args.psi)
    init_from = _main_checkpoint(run, args.checkpoint)
    _write_config_snapshot(run)
    task = meta.make_task(run.dist, args.task_seed, split="metatest",
                          init_from=init_from, k_override=args.k)
    handle = bench.controller_handle(psi.flat, psi.layout, renormalize=run.renormalize,
                                     record=True)
    result = handle.run(task)
    traj_path = run.out_dir / f"trajectory_{args.task_seed}.csv"
    bench.write_trajectory_csv(result.trajectory or [], psi.layout.n_providers,
                               traj_path)

    k_grid = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]
    write_csv(run.out_dir / "time_features_by_step.csv",
              ["k"] + [f"rel_{i}" for i in range(11)] + [f"abs_{j}" for j in range(4)],
              ([k] + [repr(float(v)) for v in time_features(k, task.K)]
               for k in range(1, task.K + 1)))
    write_csv(run.out_dir / "time_features_by_horizon.csv",
              ["K"] + [f"abs_{j}" for j in range(4)],
              ([K] + [repr(float(v)) for v in time_features(K, K)[11:]] for K in k_grid))
    print(f"task seed={args.task_seed} K={task.K} meta_loss={result.meta_loss!r} "
          f"acc={result.eval_accuracy!r}")
    print(f"wrote {traj_path}")
    return 0


def cmd_ablate(args) -> int:
    run = load_config(args.config, args.set, args.out_dir, args.workers)
    _write_config_snapshot(run)
    ab = run.raw["ablate"]
    runs = bench.run_ablation_battery(run.dist, run.nes, run.ablation_cells(),
                                      run.pretrain_steps, ab["eval_n_tasks"], ab["eval_k"],
                                      workers=run.workers)
    bench.write_ablation_csv(runs, run.out_dir / "ablation.csv")
    for cell, c, rows in runs:
        bench.write_trajectory_csv(rows, len(cell.base_kinds),
                                   run.out_dir / f"ablation_traj_{_slug(cell.label)}.csv")
        print(f"{cell.label}: acc={c.mean_acc:.4f}+-{c.std_acc:.4f}")
    print(f"wrote {run.out_dir / 'ablation.csv'}")
    return 0


def cmd_report(args) -> int:
    rows = []
    header = None
    for path in args.inputs:
        with open(path) as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None:
                raise ConfigError(f"{path} is empty")
            if header is None:
                header = head
            elif head != header:
                raise ConfigError(f"{path} has a different header")
            rows.extend(reader)
    try:
        rows.sort(key=lambda r: (r[0], float(r[1]) if len(r) > 1 else 0.0))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"cannot sort the rows by label and number: {exc}") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, header, rows)
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
