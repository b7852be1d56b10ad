"""Optimizer handles, paired evaluation suites, speedup and state-size
reports, and the ablation battery.

An evaluation suite runs a list of handles as the candidates of one
StackedStepper; the ablation battery returns one (cell, evaluation cell,
trajectory) run per cell.

The baseline optimizers live in meta, written apart from the direction
providers, so equivalence tests between the controller path and a plain
optimizer run compare two separately written implementations.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import meta as meta_mod
from .controller import DEFAULT_GAMMAS, PsiLayout, Variant
from .files import write_csv
# perfbench's tracer and the tests look these names up in bench
from .meta import (  # noqa: F401
    BaselineKind,
    BaselineSpec,
    BaselineStepper,
    InnerRunResult,
    NesConfig,
    Task,
    TaskDistributionSpec,
    TrajectoryRow,
    controller_stepper_factory,
    inner_loop_batch,
    inner_loop_eval,
    make_task,
    make_task_block,
)
from .nnlite import Batch, NetworkSpec
from .optdir import STATE_SLOTS, OptimizerKind

_TAG_EVAL_TASKS = 21


@dataclass(frozen=True)
class OptimizerHandle:
    """A named stepper factory: everything the suite needs to run one
    optimizer on one task, or on every row of a block task."""

    label: str
    factory: object  # callable(task) -> stepper of the task rows

    def run(self, task: Task) -> InnerRunResult:
        return inner_loop_eval(self.factory, task)


def baseline_handle(spec: BaselineSpec) -> OptimizerHandle:
    return OptimizerHandle(label=spec.label, factory=lambda task: BaselineStepper(
        spec, task.spec.offsets(), task.horizons))


def controller_handle(psi_flat: np.ndarray, layout: PsiLayout, label: str = "l3rs",
                      renormalize: bool = False, record: bool = False) -> OptimizerHandle:
    """The controller of ``psi_flat``; with ``record``, each run's result
    carries its trajectory."""
    return OptimizerHandle(label=label, factory=controller_stepper_factory(
        psi_flat, layout, renormalize=renormalize, record=record))


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


def evaluation_task_seeds(seed: int, n_tasks: int) -> list[int]:
    rng = meta_mod.derived_rng(seed, _TAG_EVAL_TASKS)
    return [int(s) for s in rng.integers(0, 1 << 63, n_tasks)]


class StackedStepper:
    """Every handle run on each row of ``task``, as the candidates of one
    inner loop: handle h's stepper, which must step one candidate, steps
    the view [..., h:h+1, :] of the grid [*rows, H, n] in place, so it
    keeps its own prefix state and computes the bits of its own run."""

    def __init__(self, handles, task: Task):
        self.steppers = [handle.factory(task) for handle in handles]
        for handle, stepper in zip(handles, self.steppers):
            if stepper.n_candidates != 1:
                raise ValueError(f"optimizer {handle.label!r} steps {stepper.n_candidates} "
                                 f"candidates; an evaluation suite needs one")
        self.n_candidates = len(handles)

    def step(self, params: np.ndarray, grads: np.ndarray, losses: np.ndarray,
             k: int) -> np.ndarray:
        finite = np.empty(losses.shape, dtype=bool)
        for h, stepper in enumerate(self.steppers):
            own = slice(h, h + 1)
            finite[..., own] = stepper.step(params[..., own, :], grads[..., own, :],
                                            losses[..., own], k)
        return finite


def _level_task(block: Task, levels: list[int]) -> Task:
    """The T rows of ``block``, all at horizon block.K, at each horizon of
    ``levels`` (distinct, longest first, none past block.K), level-major:
    task row (j, t) is block row t at horizon levels[j]. Every level reads
    the block's own draws: theta0, the eval batch and every train batch
    are [J, T] or [J_k, T] broadcast views of the block's."""
    def broadcast(batch: Batch, j: int) -> Batch:
        return Batch(x=np.broadcast_to(batch.x, (j, *batch.x.shape)),
                     y=np.broadcast_to(batch.y, (j, *batch.y.shape)))

    n_levels = len(levels)
    return Task(spec=block.spec,
                theta0=np.broadcast_to(block.theta0, (n_levels, *block.theta0.shape)),
                train_batches=[broadcast(batch, sum(K > k for K in levels))
                               for k, batch in enumerate(block.train_batches[:levels[0]])],
                eval_batch=broadcast(block.eval_batch, n_levels),
                seed=block.seed * n_levels, class_ids=block.class_ids * n_levels)


def evaluate_suite(handles: list[OptimizerHandle], dist: TaskDistributionSpec, n_tasks: int,
                   k_list, eval_seed: int, split: str = "metatest",
                   init_from: np.ndarray | None = None) -> EvalReport:
    """Paired evaluation of a list of handles: the same task seeds are used
    for every optimizer and every K, so per-task differences are
    well-defined. The n_tasks tasks are drawn once, as one block at the
    largest K, and the whole suite is one inner loop over [J, T] task rows
    (K level, task): the distinct K of k_list, longest first, each level
    reading the block's draws, with the optimizers as the candidates of one
    StackedStepper, one shared forward/backward pass per step. Every row
    equals its task's own handle.run at that K, bit for bit. Cells come in
    k_list order, then handle order, duplicates included."""
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    if min(k_list, default=0) < 0:
        raise ValueError(f"every K must be >= 0, got {min(k_list)}")
    report = EvalReport()
    if not handles or not k_list:
        return report
    seeds = evaluation_task_seeds(eval_seed, n_tasks)
    levels = sorted({int(K) for K in k_list}, reverse=True)
    block = make_task_block(dist, seeds, levels[0], split=split, init_from=init_from)
    results = inner_loop_batch(functools.partial(StackedStepper, handles),
                               _level_task(block, levels))
    grid = (len(levels), n_tasks, len(handles))
    all_accs = np.reshape([r.eval_accuracy for r in results], grid)
    all_losses = np.reshape([r.meta_loss for r in results], grid)
    for K in k_list:
        j = levels.index(int(K))
        for h, handle in enumerate(handles):
            accs, losses = all_accs[j, :, h].tolist(), all_losses[j, :, h].tolist()
            report.cells.append(EvalCell(
                optimizer=handle.label, K=int(K), n_tasks=n_tasks,
                mean_acc=float(np.mean(accs)), std_acc=spread(accs),
                mean_loss=float(np.mean(losses)), std_loss=spread(losses),
                task_seeds=list(seeds), task_acc=accs, task_loss=losses))
    return report


def spread(values) -> float:
    """np.std of ``values``, bit for bit wherever that is finite. Where it
    overflows on finite values, the std of the values divided by their
    largest magnitude, times that magnitude: finite, as it is at most the
    magnitude."""
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        std = np.std(v)
    if np.isfinite(std) or not np.isfinite(v).all():
        return float(std)
    scale = np.abs(v).max()
    return float(np.std(v / scale) * scale)


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

    def columns(self) -> tuple[str, str, str]:
        """The base optimizers, variant and gammas as ablation.csv writes them."""
        gammas = ";".join(f"{g:g}" for g in self.gammas) if self.gammas else "none"
        return "+".join(k.value for k in self.base_kinds), self.variant.value, gammas

    @property
    def label(self) -> str:
        bases, variant, gammas = self.columns()
        return f"{bases}|{variant}|g={gammas}"


def cross_cells(base_sets, variants, gammas=DEFAULT_GAMMAS) -> list[AblationCell]:
    return [AblationCell(base_kinds=tuple(bs), variant=v, gammas=tuple(gammas))
            for bs in base_sets for v in variants]


AblationRun = tuple[AblationCell, EvalCell, list[TrajectoryRow]]


def run_ablation_battery(dist: TaskDistributionSpec, nes: NesConfig, cells: list[AblationCell],
                         pretrain_steps: int, eval_n_tasks: int, eval_k: int,
                         workers: int = 1, renormalize: bool = False) -> list[AblationRun]:
    """One meta-train + paired evaluation per cell, plus a probe trajectory
    of the trained controller on the first evaluation task: one
    (cell, evaluation cell, trajectory) per cell, in cell order. The
    pretrained checkpoint and the evaluation tasks are drawn from
    ``nes.seed``; ``renormalize`` holds for the training, the evaluation
    and the probe alike."""
    checkpoint = meta_mod.pretrain_checkpoint(dist, pretrain_steps, nes.seed)
    n_components = len(dist.task_network().components())
    runs: list[AblationRun] = []
    for cell in cells:
        layout = PsiLayout(n_components=n_components, base_kinds=cell.base_kinds,
                           gammas=cell.gammas, variant=cell.variant)
        psi, _ = meta_mod.meta_train(nes, dist, layout, init_from=checkpoint, workers=workers,
                                     renormalize=renormalize)
        report = evaluate_suite([controller_handle(psi, layout, cell.label, renormalize)], dist,
                                eval_n_tasks, [eval_k], nes.seed, init_from=checkpoint)
        c = report.cells[0]
        probe = make_task(dist, c.task_seeds[0], split="metatest", init_from=checkpoint,
                          k_override=eval_k)
        recorder = controller_handle(psi, layout, cell.label, renormalize, record=True)
        runs.append((cell, c, recorder.run(probe).trajectory or []))
    return runs


# ---------------------------------------------------------------------------
# report files: deterministic CSV emission


TASK_COLUMNS = ["optimizer", "K", "task_index", "task_seed", "acc", "loss"]


def task_rows(report: EvalReport):
    """One TASK_COLUMNS row per task of every cell, cell by cell."""
    for c in report.cells:
        for i, row in enumerate(zip(c.task_seeds, c.task_acc, c.task_loss)):
            yield [c.optimizer, c.K, i, *row]


def write_eval_csv(report: EvalReport, path) -> None:
    write_csv(path, ["optimizer", "K", "mean_acc", "std_acc", "mean_loss", "std_loss",
                     "n_tasks"],
              ([c.optimizer, c.K, c.mean_acc, c.std_acc, c.mean_loss, c.std_loss, c.n_tasks]
               for c in report.cells))


def write_eval_tasks_csv(report: EvalReport, path) -> None:
    write_csv(path, TASK_COLUMNS, task_rows(report))


def write_trajectory_csv(rows: list[TrajectoryRow], n_providers: int, path) -> None:
    write_csv(path, ["step", "component"] + [f"mu_{p}" for p in range(n_providers)]
              + ["lambda", "loss"],
              ([r.step, r.component, *r.mu, r.lam, r.train_loss] for r in rows))


def write_ablation_csv(runs: list[AblationRun], path) -> None:
    write_csv(path, ["label", "base_optimizers", "variant", "gammas", "mean_acc", "std_acc",
                     "mean_loss", "std_loss"],
              ([cell.label, *cell.columns(), c.mean_acc, c.std_acc, c.mean_loss, c.std_loss]
               for cell, c, _ in runs))


def write_history_csv(history, path) -> None:
    write_csv(path, ["generation", "mean_fitness", "best_fitness", "alpha", "sigma"],
              map(dataclasses.astuple, history))
