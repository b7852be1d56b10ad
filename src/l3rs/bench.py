"""Optimizer handles, paired evaluation suites, speedup and state-size
reports, and the ablation battery.

The baseline optimizers live in meta, written apart from the direction
providers, so equivalence tests between the controller path and a plain
optimizer run compare two separately written implementations.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import meta as meta_mod
from .controller import DEFAULT_GAMMAS, PsiLayout, Variant
from .meta import (  # noqa: F401 (the baselines keep their old names here)
    BaselineKind,
    BaselineSpec,
    BaselineStepper,
    InnerRunResult,
    NesConfig,
    Task,
    TaskDistributionSpec,
    TrajectoryRow,
    controller_stepper_factory,
    cosine_lr,
    inner_loop_eval,
    make_task,
)
from .nnlite import NetworkSpec
from .optdir import STATE_SLOTS, OptimizerKind

_TAG_EVAL_TASKS = 21


@dataclass(frozen=True)
class OptimizerHandle:
    """A named stepper factory: everything the suite needs to run one
    optimizer on one task."""

    label: str
    factory: object  # callable(task, record=False) -> stepper with one row

    def run(self, task: Task, record_trajectory: bool = False) -> InnerRunResult:
        return inner_loop_eval(self.factory, task, record_trajectory=record_trajectory)


def baseline_handle(spec: BaselineSpec) -> OptimizerHandle:
    def factory(task: Task, record: bool = False):
        del record
        return BaselineStepper(spec, task.spec.offsets(), task.K)

    return OptimizerHandle(label=spec.label, factory=factory)


def controller_handle(psi_flat: np.ndarray, layout: PsiLayout, label: str = "l3rs",
                      renormalize: bool = False) -> OptimizerHandle:
    return OptimizerHandle(
        label=label,
        factory=controller_stepper_factory(psi_flat, layout, renormalize=renormalize))


@dataclass
class EvalCell:
    optimizer: str
    K: int
    n_tasks: int
    mean_acc: float
    std_acc: float
    mean_loss: float
    std_loss: float
    task_seeds: list[int]
    task_acc: list[float]
    task_loss: list[float]


@dataclass
class EvalReport:
    cells: list[EvalCell] = field(default_factory=list)

    def cell(self, optimizer: str, K: int) -> EvalCell:
        for c in self.cells:
            if c.optimizer == optimizer and c.K == K:
                return c
        raise KeyError((optimizer, K))


def evaluation_task_seeds(eval_seed: int, n_tasks: int) -> list[int]:
    rng = meta_mod.derived_rng(eval_seed, _TAG_EVAL_TASKS)
    return [int(s) for s in rng.integers(0, 1 << 63, n_tasks)]


def evaluate_suite(handles, dist: TaskDistributionSpec, n_tasks: int,
                   k_list, eval_seed: int, split: str = "metatest",
                   init_from: np.ndarray | None = None) -> EvalReport:
    """Paired evaluation: the same task seeds are used for every optimizer
    and every K, so per-task differences are well-defined."""
    if isinstance(handles, OptimizerHandle):
        handles = [handles]
    seeds = evaluation_task_seeds(eval_seed, n_tasks)
    report = EvalReport()
    for K in k_list:
        tasks = [make_task(dist, s, split=split, init_from=init_from, k_override=K)
                 for s in seeds]
        for handle in handles:
            accs, losses = [], []
            for task in tasks:
                res = handle.run(task)
                accs.append(res.eval_accuracy)
                losses.append(res.meta_loss)
            report.cells.append(EvalCell(
                optimizer=handle.label, K=int(K), n_tasks=n_tasks,
                mean_acc=float(np.mean(accs)), std_acc=float(np.std(accs)),
                mean_loss=float(np.mean(losses)), std_loss=float(np.std(losses)),
                task_seeds=list(seeds), task_acc=accs, task_loss=losses))
    return report


def steps_to_target(curve, target: float) -> float | None:
    """Smallest step count at which the curve reaches ``target``, linearly
    interpolated in log-steps; None when the curve never gets there."""
    pts = sorted((float(k), float(m)) for k, m in curve)
    if not pts:
        return None
    if pts[0][1] >= target:
        return pts[0][0]
    for (k0, m0), (k1, m1) in zip(pts, pts[1:]):
        if m1 >= target:
            if m1 == m0:
                return k1
            frac = (target - m0) / (m1 - m0)
            return math.exp(math.log(k0) + frac * (math.log(k1) - math.log(k0)))
    return None


def speedup(curve_ref, curve_base, targets) -> list[float | None]:
    """Per target: how many percent more steps the baseline needs than the
    reference; None when either curve never reaches the target."""
    out: list[float | None] = []
    for target in targets:
        ref = steps_to_target(curve_ref, target)
        base = steps_to_target(curve_base, target)
        if ref is None or base is None:
            out.append(None)
        else:
            out.append((base / ref - 1.0) * 100.0)
    return out


@dataclass(frozen=True)
class StateSizeReport:
    slots_ratio: float
    aux_scalars: int


def state_size_report(handle_spec, net: NetworkSpec) -> StateSizeReport:
    """Persistent per-parameter state slots per model parameter, plus the
    controller's auxiliary scalars (EMA accumulators and the step counter),
    which do not scale with parameter count.

    ``handle_spec`` is a BaselineSpec or, for the controller, a PsiLayout.
    """
    if isinstance(handle_spec, BaselineSpec):
        slots = 0 if handle_spec.kind == BaselineKind.SGD_CONST else 2
        return StateSizeReport(slots_ratio=float(slots), aux_scalars=0)
    if isinstance(handle_spec, PsiLayout):
        slots = sum(STATE_SLOTS[k] for k in handle_spec.base_kinds)
        n_gamma = len(handle_spec.gammas)
        tracked = 1 if handle_spec.variant == Variant.GLOBAL else len(net.components())
        aux = 2 * n_gamma * tracked + n_gamma + 1
        return StateSizeReport(slots_ratio=float(slots), aux_scalars=aux)
    raise TypeError(f"cannot size state for {type(handle_spec)!r}")


@dataclass(frozen=True)
class AblationCell:
    base_kinds: tuple[OptimizerKind, ...]
    variant: Variant
    gammas: tuple[float, ...] = DEFAULT_GAMMAS

    @property
    def label(self) -> str:
        bases = "+".join(k.value for k in self.base_kinds)
        gam = ";".join(f"{g:g}" for g in self.gammas) if self.gammas else "none"
        return f"{bases}|{self.variant.value}|g={gam}"


@dataclass
class AblationConfig:
    dist: TaskDistributionSpec
    nes: NesConfig
    cells: list[AblationCell]
    pretrain_steps: int = 500
    pretrain_seed: int = 0
    eval_n_tasks: int = 20
    eval_k: int = 10
    eval_seed: int = 0
    workers: int = 1


@dataclass
class AblationRow:
    label: str
    base_optimizers: str
    variant: str
    gammas: str
    mean_acc: float
    std_acc: float
    mean_loss: float
    std_loss: float


@dataclass
class AblationResult:
    rows: list[AblationRow]
    trajectories: dict[str, list[TrajectoryRow]]


def cross_cells(base_sets, variants, gammas=DEFAULT_GAMMAS) -> list[AblationCell]:
    return [AblationCell(base_kinds=tuple(bs), variant=v, gammas=tuple(gammas))
            for bs in base_sets for v in variants]


def run_ablation_battery(cfg: AblationConfig) -> AblationResult:
    """One meta-train + paired evaluation per cell, plus a probe trajectory
    of the trained controller on the first evaluation task."""
    checkpoint = meta_mod.pretrain_checkpoint(cfg.dist, cfg.pretrain_steps,
                                              cfg.pretrain_seed)
    n_components = len(cfg.dist.task_network().components())
    rows: list[AblationRow] = []
    trajectories: dict[str, list[TrajectoryRow]] = {}
    for cell in cfg.cells:
        layout = PsiLayout(n_components=n_components, base_kinds=cell.base_kinds,
                           gammas=cell.gammas, variant=cell.variant)
        psi, _ = meta_mod.meta_train(cfg.nes, cfg.dist, layout,
                                     init_from=checkpoint, workers=cfg.workers)
        handle = controller_handle(psi, layout, label=cell.label)
        report = evaluate_suite(handle, cfg.dist, cfg.eval_n_tasks, [cfg.eval_k],
                                cfg.eval_seed, init_from=checkpoint)
        c = report.cells[0]
        rows.append(AblationRow(
            label=cell.label,
            base_optimizers="+".join(k.value for k in cell.base_kinds),
            variant=cell.variant.value,
            gammas=";".join(f"{g:g}" for g in cell.gammas) if cell.gammas else "none",
            mean_acc=c.mean_acc, std_acc=c.std_acc,
            mean_loss=c.mean_loss, std_loss=c.std_loss))
        probe = make_task(cfg.dist, c.task_seeds[0], split="metatest",
                          init_from=checkpoint, k_override=cfg.eval_k)
        trajectories[cell.label] = handle.run(probe, record_trajectory=True).trajectory or []
    return AblationResult(rows=rows, trajectories=trajectories)


# ---------------------------------------------------------------------------
# report files: deterministic CSV/JSON emission


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def write_eval_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["optimizer", "K", "mean_acc", "std_acc", "mean_loss",
                    "std_loss", "n_tasks"])
        for c in report.cells:
            w.writerow([c.optimizer, c.K, _fmt(c.mean_acc), _fmt(c.std_acc),
                        _fmt(c.mean_loss), _fmt(c.std_loss), c.n_tasks])


def write_eval_tasks_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["optimizer", "K", "task_index", "task_seed", "acc", "loss"])
        for c in report.cells:
            for i, (seed, acc, loss) in enumerate(zip(c.task_seeds, c.task_acc, c.task_loss)):
                w.writerow([c.optimizer, c.K, i, seed, _fmt(acc), _fmt(loss)])


def write_trajectory_csv(rows: list[TrajectoryRow], n_providers: int, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "component"] + [f"mu_{p}" for p in range(n_providers)]
                   + ["lambda", "loss"])
        for r in rows:
            w.writerow([r.step, r.component] + [_fmt(m) for m in r.mu]
                       + [_fmt(r.lam), _fmt(r.train_loss)])


def write_ablation_csv(result: AblationResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "base_optimizers", "variant", "gammas",
                    "mean_acc", "std_acc", "mean_loss", "std_loss"])
        for r in result.rows:
            w.writerow([r.label, r.base_optimizers, r.variant, r.gammas,
                        _fmt(r.mean_acc), _fmt(r.std_acc),
                        _fmt(r.mean_loss), _fmt(r.std_loss)])


def write_history_csv(history, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["generation", "mean_fitness", "best_fitness", "alpha", "sigma"])
        for h in history:
            w.writerow([h.generation, _fmt(h.mean_fitness), _fmt(h.best_fitness),
                        _fmt(h.alpha), _fmt(h.sigma)])


def write_summary_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
