"""Task distributions, the inner loop and its baseline optimizers, and the
evolution-strategies outer loop that meta-trains controller parameters.

A task is (initial weights, K training batches, one evaluation batch), and
a Task is always a block of them, one per row, each with its own horizon,
longest first (make_task_block; make_task is its one-row block). Tasks are
synthetic Gaussian-blob classification problems: class means drawn
uniformly in [-1, 1]^d with isotropic noise, carved into disjoint pretrain
/ meta-train / meta-test class splits so meta-testing sees unseen classes.

Everything is reconstructible from integer seeds: a task regenerates bit for
bit from (distribution, task seed), and one meta-training generation is a
pure function of (config seed, generation), which is what makes runs
resumable and independent of worker count.

There is one inner loop, inner_loop_batch, and it runs a whole block at
once: parameters, gradients and optimizer state are one grid [*rows, C, n]
of the task rows, then the candidates, and each (task row, candidate) row
gets exactly the bits of its own single run. A generation runs its C
candidates on its meta-batch tasks, [T] task rows, each task's candidates
sharing its draws by broadcasting; an evaluation suite runs its optimizers
the same way, as the candidates of one loop over [J, T] task rows (K
level, task), every level reading the one block drawn at the largest K.
A row stops at its own horizon: the task rows still training are a prefix
of the first axis, the stepper updates the view of that prefix in place
and returns only its finite mask, and a row leaving the prefix keeps its
parameters where they are until the one scoring at the end. Divergence is
one mask over the grid that the loop owns, and a row that stops being
finite is masked dead, scores DIVERGENCE_PENALTY and leaves the others
untouched. Single runs (inspection, probes) are the same loop on a
[1, 1, n] grid; pretraining alone takes the gradient of one unbatched
network [n] and steps it as the grid view [1, 1, n].
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .controller import (
    ControllerContext,
    PsiLayout,
    TrajectoryRow,
    _read_checkpoint,
    _write_checkpoint,
    flatten,
    init_meta_params,
    unflatten,
)
from .nnlite import (
    Batch,
    DivergenceError,
    NetworkSpec,
    accuracy,
    forward,
    init_params,
    loss_and_grad,
    mean_cross_entropy,
)

DIVERGENCE_PENALTY = 1e4
# the baselines' Adam constants, never varied
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

_MASK = (1 << 63) - 1

# stream tags keep derived RNGs disjoint
_TAG_CLASSES = 1
_TAG_K = 2
_TAG_BATCH = 3
_TAG_EVAL = 4
_TAG_INIT = 5
_TAG_TASK_SEEDS = 6
_TAG_NES_EPS = 7
_TAG_PRETRAIN = 9
_TAG_PRETRAIN_EVAL = 10


def derived_rng(*parts: int) -> np.random.Generator:
    """Deterministic generator for a tuple of integer stream coordinates."""
    return np.random.default_rng(np.random.SeedSequence([int(p) & _MASK for p in parts]))


@dataclass(frozen=True)
class TaskDistributionSpec:
    """Synthetic blob classifier family plus its class split and task shape."""

    input_dim: int = 16
    total_classes: int = 16
    blob_std: float = 0.75
    generator_seed: int = 0
    pretrain_classes: int = 8
    metatrain_classes: int = 4
    metatest_classes: int = 4
    classes_per_task: int = 4
    hidden: tuple[int, ...] = (32,)
    train_batch_size: int = 32
    eval_batch_size: int = 256
    k_min: int = 5
    k_max: int = 25

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        used = self.pretrain_classes + self.metatrain_classes + self.metatest_classes
        if used > self.total_classes:
            raise ValueError("class splits exceed total_classes")
        for size in (self.metatrain_classes, self.metatest_classes):
            if self.classes_per_task > size:
                raise ValueError("classes_per_task exceeds a split size")
        if not (1 <= self.k_min <= self.k_max):
            raise ValueError("bad K range")
        if self.blob_std <= 0:
            raise ValueError("blob_std must be positive")

    def class_means(self) -> np.ndarray:
        rng = derived_rng(self.generator_seed)
        return rng.uniform(-1.0, 1.0, (self.total_classes, self.input_dim))

    def split_classes(self, split: str) -> np.ndarray:
        p, mtr, mte = self.pretrain_classes, self.metatrain_classes, self.metatest_classes
        if split == "pretrain":
            return np.arange(0, p)
        if split == "metatrain":
            return np.arange(p, p + mtr)
        if split == "metatest":
            return np.arange(p + mtr, p + mtr + mte)
        raise ValueError(f"unknown split {split!r}")

    def task_network(self) -> NetworkSpec:
        return NetworkSpec(self.input_dim, self.hidden, self.classes_per_task)

    def pretrain_network(self) -> NetworkSpec:
        return NetworkSpec(self.input_dim, self.hidden, self.pretrain_classes)


@dataclass
class Task:
    """A block of fine-tuning problems, one per task row: flat theta0
    [*rows, n], the train batches and one eval batch (x [*rows, E, d],
    y [*rows, E]), with each row's seed and class ids. The task rows are [R]
    for a block of R tasks (make_task_block; a single task is the block of
    one row, make_task), or [J, T] for J levels of one block of T tasks,
    level-major, each a broadcast view of the block's one draw.

    Each task row has its own horizon, and the rows are ordered by horizon,
    longest first, along the first axis: train batch k (0-based) holds the
    prefix of the first axis whose horizon exceeds k (x [n_k, ..., B, d],
    y [n_k, ..., B]). The block's horizon K is the longest, the number of
    train batches, so replacing train_batches by its first K' entries gives
    the same tasks at horizons min(K_r, K') (make_task_block)."""

    spec: NetworkSpec
    theta0: np.ndarray
    train_batches: list[Batch]
    eval_batch: Batch
    seed: tuple[int, ...]
    class_ids: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = [len(b.y) for b in self.train_batches]
        if sizes != sorted(sizes, reverse=True) or any(not 0 < n <= len(self.theta0) for n in sizes):
            raise ValueError(f"train batches of {sizes} rows are not prefixes, longest first, "
                             f"of {len(self.theta0)} rows")

    @property
    def K(self) -> int:
        return len(self.train_batches)

    @property
    def n_rows(self) -> int:
        return math.prod(self.theta0.shape[:-1])

    @property
    def horizons(self) -> np.ndarray:
        """Per-row horizons, in the task rows' shape theta0.shape[:-1]: the
        number of train batches that hold the row."""
        rows = self.theta0.shape[:-1]
        sizes = np.array([len(batch.y) for batch in self.train_batches], dtype=np.int64)
        first = (np.arange(rows[0])[:, None] < sizes).sum(axis=1)
        return np.broadcast_to(first.reshape(-1, *(1,) * (len(rows) - 1)), rows)


def _draw_blobs(dist: TaskDistributionSpec, means: np.ndarray, class_ids: np.ndarray,
                rng: np.random.Generator, x: np.ndarray, y: np.ndarray) -> None:
    """Fill x [n, d] and y [n] in place with n labelled samples from the
    blobs of class_ids; labels are positions in class_ids."""
    y[...] = rng.integers(0, len(class_ids), len(y))
    np.add(means[class_ids[y]], dist.blob_std * rng.standard_normal(x.shape), out=x)


def task_horizon(dist: TaskDistributionSpec, seed: int) -> int:
    """The horizon the task of ``seed`` draws from [k_min, k_max]."""
    return int(derived_rng(dist.generator_seed, seed, _TAG_K).integers(dist.k_min, dist.k_max + 1))


def make_task(dist: TaskDistributionSpec, seed: int, split: str = "metatrain",
              init_from: np.ndarray | None = None, k_override: int | None = None) -> Task:
    """The one-row block of the task identified by ``seed``, bit-identical
    on every call: make_task_block(dist, [seed], K), where K is
    ``k_override`` or else task_horizon(dist, seed)."""
    K = task_horizon(dist, seed) if k_override is None else k_override
    return make_task_block(dist, [seed], K, split=split, init_from=init_from)


def make_task_block(dist: TaskDistributionSpec, seeds, K, split: str = "metatrain",
                    init_from: np.ndarray | None = None) -> Task:
    """The tasks of ``seeds``, one per row, all with horizon K, or with
    horizons K[r], longest first: each row's class ids, theta0, train
    batches and eval batch are drawn from streams derived from (generator
    seed, task seed) alone, straight into the block arrays, so a row holds
    the same bits in every block and as make_task. A row draws only its own
    K[r] train batches.

    ``init_from`` is a pretrained checkpoint, flat parameters laid out by
    dist.pretrain_network(), whose body is copied; the head is
    re-initialized whenever pretrain_classes differs from the task's class
    count (the usual fine-tuning head swap). Without a checkpoint the whole
    model is freshly initialized. The train batches for a given seed are a
    common prefix across horizons: the block at horizon K' <= K is this
    block with its first K' train batches, bit for bit.
    """
    rows = len(seeds)
    horizons = [int(k) for k in np.broadcast_to(K, (rows,))]
    if rows < 1 or min(horizons) < 0 or horizons != sorted(horizons, reverse=True):
        raise ValueError(f"a task block needs a seed and horizons K >= 0, longest first, "
                         f"got K={K} for {rows} seeds")
    spec, d, c = dist.task_network(), dist.input_dim, dist.classes_per_task
    off = spec.offsets()
    n_pretrained = dist.pretrain_network().offsets()[-1]
    if init_from is not None and np.shape(init_from) != (n_pretrained,):
        raise ValueError(f"init_from has shape {np.shape(init_from)}, expected "
                         f"[{n_pretrained}] (the pretrain network)")
    means, pool = dist.class_means(), dist.split_classes(split)
    theta0 = np.empty((rows, off[-1]))
    # train batch k holds the sizes[k] rows whose horizon exceeds k, carved
    # out of one array of every row's own draws
    sizes = [sum(h > k for h in horizons) for k in range(horizons[0])]
    x = np.empty((sum(sizes), dist.train_batch_size, d))
    y = np.empty((sum(sizes), dist.train_batch_size), dtype=np.int64)
    starts = np.cumsum([0] + sizes).tolist()
    eval_x = np.empty((rows, dist.eval_batch_size, d))
    eval_y = np.empty((rows, dist.eval_batch_size), dtype=np.int64)
    class_ids = []
    for r, seed in enumerate(seeds):
        class_rng = derived_rng(dist.generator_seed, seed, _TAG_CLASSES)
        ids = np.sort(class_rng.choice(pool, c, replace=False))
        class_ids.append(tuple(ids.tolist()))
        init_rng = derived_rng(dist.generator_seed, seed, _TAG_INIT)
        if init_from is None:
            theta0[r] = init_params(spec, int(init_rng.integers(0, _MASK)))
        elif dist.pretrain_classes == c:
            theta0[r] = init_from
        else:  # the checkpoint's body and a fresh head
            fan_in = spec.layer_dims()[-1][0]
            head = init_rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, c))
            theta0[r] = np.concatenate([init_from[:off[-3]], head.ravel(), np.zeros(c)])
        for k in range(horizons[r]):
            _draw_blobs(dist, means, ids, derived_rng(dist.generator_seed, seed, _TAG_BATCH, k),
                        x[starts[k] + r], y[starts[k] + r])
        _draw_blobs(dist, means, ids, derived_rng(dist.generator_seed, seed, _TAG_EVAL),
                    eval_x[r], eval_y[r])
    return Task(spec=spec, theta0=theta0,
                train_batches=[Batch(x=x[a:b], y=y[a:b]) for a, b in zip(starts, starts[1:])],
                eval_batch=Batch(x=eval_x, y=eval_y),
                seed=tuple(int(s) for s in seeds), class_ids=tuple(class_ids))


@dataclass
class InnerRunResult:
    meta_loss: float
    eval_accuracy: float
    train_losses: list[float]
    diverged: bool = False
    trajectory: list[TrajectoryRow] | None = None


def controller_stepper_factory(psi_flat: np.ndarray, layout: PsiLayout,
                               renormalize: bool = False, policy=None, record: bool = False):
    """Stepper factory for a flat meta-parameter vector [flat_size], or a
    block of C candidates [C, flat_size] trained side by side.

    The returned callable takes a task and yields a fresh ControllerContext
    with zeroed optimizer and tracker state, as a new fine-tuning run
    requires, for the C candidates on every task row, each at its task
    row's horizon; with ``record`` it keeps every row's trajectory.
    """
    flat = np.atleast_2d(np.asarray(psi_flat, dtype=float))
    psi = unflatten(flat, layout)

    def make(task: Task) -> ControllerContext:
        return ControllerContext(psi, task.spec, task.horizons,
                                 renormalize=renormalize, policy=policy, record=record)

    return make


class BaselineKind(str, Enum):
    ADAM_CONST = "adam_const"
    ADAM_COSINE = "adam_cosine"
    SGD_CONST = "sgd_const"


@dataclass(frozen=True)
class BaselineSpec:
    kind: BaselineKind
    lr0: float
    head_only: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lr0 < math.inf:
            raise ValueError(f"lr0 must be finite and non-negative, got {self.lr0!r}")

    @property
    def label(self) -> str:
        head = ", head" if self.head_only else ""
        return f"{self.kind.value}(lr={self.lr0:g}{head})"


def cosine_lr(k: int, K: int, lr0: float) -> float:
    """Half-cosine from lr0 at k=1 toward zero across the horizon."""
    if not 1 <= k <= K:
        raise ValueError(f"step {k} outside 1..{K}")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * (k - 1) / K))


class BaselineStepper:
    """Plain SGD/Adam as the one candidate of the inner loop, on its flat
    parameter grid [*rows, 1, n], for parameters split at ``offsets`` and
    the horizons K of the task rows [*rows]. Every operation is
    elementwise, so each row gets the bits of its own one-row run;
    adam_cosine's learning rate is one column per task row, at that row's
    horizon. head_only freezes everything except the final kernel+bias
    pair, leaving the rest bit-identical for the whole run.

    Written apart from the direction bank, so equivalence tests between the
    controller path and a plain optimizer run compare two separately
    written implementations; pretraining runs on it too."""

    n_candidates = 1

    def __init__(self, spec: BaselineSpec, offsets: np.ndarray, K):
        self.spec = spec
        self.K = np.asarray(K)
        self.start = offsets[-3] if spec.head_only else 0
        if spec.kind != BaselineKind.SGD_CONST:
            self.m = np.zeros((*self.K.shape, 1, offsets[-1] - self.start))
            self.v = np.zeros_like(self.m)

    def _lr(self, k: int, K: np.ndarray):
        """The step's learning rate: lr0, or a cosine column [*rows, 1, 1]
        with the bits of cosine_lr at each task row's horizon K [*rows]."""
        if self.spec.kind == BaselineKind.ADAM_COSINE:
            lrs = [cosine_lr(k, horizon, self.spec.lr0) for horizon in K.ravel().tolist()]
            return np.reshape(lrs, (*K.shape, 1, 1))
        return self.spec.lr0

    def step(self, params: np.ndarray, grads: np.ndarray, losses: np.ndarray,
             k: int) -> np.ndarray:
        """Update params [*rows, 1, n], the task rows still training (a
        prefix of the first axis), in place; returns finite [*rows, 1]."""
        del losses
        rows = len(params)
        lr = self._lr(k, self.K[:rows])
        g = grads[..., self.start:]
        with np.errstate(over="ignore", invalid="ignore"):
            if self.spec.kind == BaselineKind.SGD_CONST:
                update = lr * g
            else:
                self.m = ADAM_BETA1 * self.m[:rows] + (1 - ADAM_BETA1) * g
                self.v = ADAM_BETA2 * self.v[:rows] + (1 - ADAM_BETA2) * g * g
                # the bits of lr * m_hat / (sqrt(v_hat) + eps), in place
                denom = self.v / (1 - ADAM_BETA2 ** k)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                update = lr * (self.m / (1 - ADAM_BETA1 ** k))
                update /= denom
            params[..., self.start:] -= update
        return np.isfinite(params[..., self.start:]).all(axis=-1)


def inner_loop_batch(make_stepper, task: Task) -> list[InnerRunResult]:
    """The inner loop: run every candidate of the stepper on every task row
    for that row's horizon, one train batch per step, then score the eval
    batch. Returns one result per (task row, candidate), candidate-minor.

    ``make_stepper(task)`` yields a stepper with ``n_candidates``, C, and
    ``step(params [*rows, C, n], grads [*rows, C, n], losses [*rows, C],
    k)``, which updates params in place and returns finite [*rows, C]. The
    parameters are one grid: the task rows [*rows], then the candidates,
    whose parameters share their task row's theta0 and batches by
    broadcasting.

    Task rows are ordered by horizon, longest first, along the first axis,
    so the rows still training at step k are a prefix of it, and the
    stepper steps the view of that prefix. A row that reaches its horizon
    leaves the prefix and its parameters freeze where they are. The loop
    owns the one ``alive`` mask and ANDs every finite mask into it.

    A row whose loss, gradient, direction, logits or lambda stops being
    finite, or whose final meta-loss is not finite, is dead: it scores the
    penalty meta-loss with accuracy 0, so outer-loop fitness stays defined.
    The loop hands dead rows to the stepper as NaN, so no stepper reports
    them finite again, and every stage is row-wise, so the other rows keep
    their bits. Every row is scored once, at the end.
    """
    stepper = make_stepper(task)
    params = np.repeat(task.theta0[..., None, :], stepper.n_candidates, axis=-2)
    alive = np.ones(params.shape[:-1], dtype=bool)
    train_losses: list[list[float]] = [[] for _ in range(alive.size)]
    for k, batch in enumerate(task.train_batches, start=1):
        rows = len(batch.y)
        live, live_alive = params[:rows], alive[:rows]  # views of the rows still training
        # [..., C, n] against [..., 1, B, d]: a task row's candidates share its batch
        losses, grads, finite = loss_and_grad(
            task.spec, live, Batch(x=batch.x[..., None, :, :], y=batch.y[..., None, :]))
        live_alive &= finite
        training = np.flatnonzero(live_alive)
        for row, loss in zip(training.tolist(), losses.ravel()[training].tolist()):
            train_losses[row].append(loss)
        if len(training) < live_alive.size:
            dead = ~live_alive
            live[dead] = grads[dead] = losses[dead] = np.nan
        # grads stays alive through the next step's pass: freed here, it lets
        # malloc hand the top of the heap back to the system every step and
        # fault it in again (4-5x the page faults at 8 candidates)
        live_alive &= stepper.step(live, grads, losses, k)
        if not live_alive.any():
            break
    # scored one task row at a time: an eval batch is larger than a train
    # batch (256 against 32 examples by default), and its activations for
    # every row at once would be the run's largest array
    meta_losses, accs = np.empty(alive.shape), np.empty(alive.shape)
    eval_x, eval_y = task.eval_batch.x, task.eval_batch.y
    for row in np.ndindex(eval_y.shape[:-1]):
        logits = forward(task.spec, params[row], eval_x[row])
        meta_losses[row] = mean_cross_entropy(logits, eval_y[row])
        accs[row] = accuracy(logits, eval_y[row])
    alive &= np.isfinite(meta_losses)
    trajectories = getattr(stepper, "trajectories", None) or [None] * alive.size
    return [InnerRunResult(meta_loss=meta_loss if ok else DIVERGENCE_PENALTY,
                           eval_accuracy=acc if ok else 0.0, train_losses=losses,
                           diverged=not ok, trajectory=trajectory)
            for ok, meta_loss, acc, losses, trajectory in zip(
                alive.ravel().tolist(), meta_losses.ravel().tolist(), accs.ravel().tolist(),
                train_losses, trajectories)]


def inner_loop_eval(make_stepper, task: Task) -> InnerRunResult:
    """inner_loop_batch of one candidate on a one-row task."""
    (result,) = inner_loop_batch(make_stepper, task)
    return result


def shaped_utilities(fitnesses) -> np.ndarray:
    """Centered-rank fitness shaping: ranks ascending (ties broken by
    candidate index), mapped to rank/(c-1) - 0.5, returned in input order."""
    f = np.asarray(fitnesses, dtype=float)
    c = len(f)
    if c < 2:
        raise ValueError("need at least two candidates")
    order = np.argsort(f, kind="stable")
    ranks = np.empty(c)
    ranks[order] = np.arange(c)
    return ranks / (c - 1) - 0.5


@dataclass(frozen=True)
class NesConfig:
    """Outer-loop settings. ``alpha0`` is a step size in parameter units:
    the update applies rank utilities to the actual candidate offsets, so
    the noise scale sigma cancels out of the update magnitude."""

    population: int = 32
    meta_batch: int = 4
    generations: int = 2000
    sigma0: float = 0.05
    alpha0: float = 0.1
    decay_period: int = 500
    decay_factor: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.population < 2 or self.population % 2 != 0:
            raise ValueError("population must be even and >= 2 (antithetic pairs)")
        if self.sigma0 <= 0 or self.alpha0 <= 0:
            raise ValueError("sigma0 and alpha0 must be positive")
        if self.meta_batch < 1 or self.generations < 0 or self.decay_period < 1:
            raise ValueError("bad NES configuration")

    def schedule(self, generation: int) -> tuple[float, float]:
        """(alpha, sigma) for a 0-based generation index; both follow the
        same smooth exponential decay, halving once per decay period."""
        scale = self.decay_factor ** (generation / self.decay_period)
        return self.alpha0 * scale, self.sigma0 * scale


@dataclass
class GenerationStats:
    generation: int
    mean_fitness: float
    best_fitness: float
    alpha: float
    sigma: float


@dataclass
class NesState:
    psi: np.ndarray
    generation: int = 0
    history: list[GenerationStats] = field(default_factory=list)


def nes_update(psi: np.ndarray, signed_eps: np.ndarray, fitnesses: np.ndarray,
               alpha: float) -> np.ndarray:
    """psi + (alpha/c) * sum_i u_i * eps_i over the signed unit perturbations."""
    u = shaped_utilities(fitnesses)
    return psi + (alpha / len(fitnesses)) * (u @ signed_eps)


def generation_perturbations(cfg: NesConfig, generation: int, dim: int) -> np.ndarray:
    """The c signed unit perturbations of one generation: c/2 Gaussian draws
    followed by their negations, so the multiset sums to zero exactly."""
    eps = derived_rng(cfg.seed, _TAG_NES_EPS, generation).standard_normal(
        (cfg.population // 2, dim))
    return np.concatenate([eps, -eps], axis=0)


def nes_generation(state: NesState, cfg: NesConfig, eval_candidates) -> NesState:
    """One generation: antithetic Gaussian candidates, shared fitness
    evaluation, rank-shaped update. ``eval_candidates(candidates,
    generation)`` returns the fitness of every row.

    Mutates and returns ``state``; the whole generation is a deterministic
    function of (cfg.seed, state.generation, state.psi).
    """
    gen = state.generation
    alpha, sigma = cfg.schedule(gen)
    signed = generation_perturbations(cfg, gen, len(state.psi))
    candidates = state.psi[None, :] + sigma * signed
    fits = np.asarray(eval_candidates(candidates, gen), dtype=float)
    if fits.shape != (cfg.population,):
        raise ValueError("candidate evaluator returned the wrong number of fitnesses")
    state.psi = nes_update(state.psi, signed, fits, alpha)
    state.generation = gen + 1
    state.history.append(GenerationStats(
        generation=state.generation, mean_fitness=float(fits.mean()),
        best_fitness=float(fits.max()), alpha=alpha, sigma=sigma))
    return state


def generation_task_seeds(cfg: NesConfig, generation: int) -> list[int]:
    """The meta-batch task seeds for one generation, shared by every
    candidate (common random numbers across the population)."""
    rng = derived_rng(cfg.seed, _TAG_TASK_SEEDS, generation)
    return [int(s) for s in rng.integers(0, _MASK, cfg.meta_batch)]


# ---------------------------------------------------------------------------
# candidate evaluation, sequential or in a process pool

def _eval_block_job(args):
    """Losses [block, meta_batch] of a contiguous block of candidates, in
    the evaluator's environment ``env``, which the job carries: one inner
    loop over every (task, candidate) row, the meta-train tasks drawn once,
    as one block ordered longest horizon first, and each shared by its
    candidates' rows."""
    block, task_seeds, env = args
    horizons = [task_horizon(env["dist"], seed) for seed in task_seeds]
    order = sorted(range(len(task_seeds)), key=lambda j: -horizons[j])
    task = make_task_block(env["dist"], [task_seeds[j] for j in order],
                           [horizons[j] for j in order], init_from=env["init_from"])
    factory = controller_stepper_factory(block, env["layout"],
                                         renormalize=env["renormalize"])
    results = inner_loop_batch(factory, task)
    losses = np.empty((len(block), len(task_seeds)))
    losses[:, order] = np.reshape([r.meta_loss for r in results], (len(order), len(block))).T
    return losses


class CandidateEvaluator:
    """Evaluates a population against the generation's shared task batch,
    cut into contiguous candidate blocks whose sizes differ by at most one:
    one block when sequential, one per worker process otherwise (never more
    workers than candidates). Fitness does not depend on the blocks, since
    every row gets the bits of its single-candidate run, and results come
    back in block order. Each evaluator runs its blocks in its own
    environment (distribution, layout, checkpoint and renormalize), which
    every block job carries, whatever other evaluators exist."""

    def __init__(self, cfg: NesConfig, dist: TaskDistributionSpec, layout: PsiLayout,
                 init_from: np.ndarray | None, renormalize: bool = False, workers: int = 1):
        self.cfg = cfg
        self.workers = max(1, min(int(workers), cfg.population))
        self._env = dict(dist=dist, layout=layout, init_from=init_from,
                         renormalize=renormalize)
        self._pool = ProcessPoolExecutor(self.workers) if self.workers > 1 else None

    def __call__(self, candidates: np.ndarray, generation: int) -> np.ndarray:
        seeds = generation_task_seeds(self.cfg, generation)
        n, blocks = len(candidates), min(self.workers, len(candidates))
        bounds = [i * n // blocks for i in range(blocks + 1)]
        jobs = [(candidates[a:b], seeds, self._env) for a, b in zip(bounds[:-1], bounds[1:])]
        if self._pool is None:
            results = map(_eval_block_job, jobs)
        else:
            results = self._pool.map(_eval_block_job, jobs)
        return np.array([-float(np.mean(row)) for losses in results for row in losses])

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

def initial_psi(cfg: NesConfig, layout: PsiLayout) -> np.ndarray:
    return flatten(init_meta_params(layout, cfg.seed))


def meta_train(cfg: NesConfig, dist: TaskDistributionSpec, layout: PsiLayout,
               init_from: np.ndarray | None = None, workers: int = 1,
               state: NesState | None = None, renormalize: bool = False,
               on_generation=None) -> tuple[np.ndarray, list[GenerationStats]]:
    """Run the outer loop for cfg.generations total generations.

    ``state`` may come from a checkpoint; the loop continues from
    state.generation and reproduces an uninterrupted run exactly.
    ``on_generation(state)`` fires after every generation (checkpoint hook).
    """
    if state is None:
        state = NesState(psi=initial_psi(cfg, layout))
    with CandidateEvaluator(cfg, dist, layout, init_from, renormalize=renormalize,
                            workers=workers) as ev:
        while state.generation < cfg.generations:
            nes_generation(state, cfg, ev)
            if on_generation is not None:
                on_generation(state)
    return state.psi, state.history


def pretrain_checkpoint(dist: TaskDistributionSpec, steps: int, seed: int) -> np.ndarray:
    """Flat parameters [n] of a fresh dist.pretrain_network() trained on the
    pretrain split with the constant-rate Adam baseline (lr 1e-3) for
    ``steps`` steps; deterministic in ``seed``."""
    spec = dist.pretrain_network()
    theta = init_params(spec, int(derived_rng(seed, _TAG_INIT).integers(0, _MASK)))
    means = dist.class_means()
    pool = dist.split_classes("pretrain")
    adam = BaselineStepper(BaselineSpec(BaselineKind.ADAM_CONST, 1e-3), spec.offsets(), [steps])
    batch = Batch(x=np.empty((dist.train_batch_size, dist.input_dim)),
                  y=np.empty(dist.train_batch_size, dtype=np.int64))
    for k in range(1, steps + 1):
        _draw_blobs(dist, means, pool, derived_rng(dist.generator_seed, seed, _TAG_PRETRAIN, k),
                    batch.x, batch.y)
        # one unbatched network: the [n] backward pass is cheaper than [1, n]
        loss, grad, finite = loss_and_grad(spec, theta, batch)
        if not finite:
            raise DivergenceError(f"pretraining diverged at step {k}")
        adam.step(theta[None, None], grad[None, None], loss, k)  # a view: theta moves
    return theta


def pretrain_eval(dist: TaskDistributionSpec, params: np.ndarray,
                  seed: int) -> tuple[float, float]:
    """(loss, accuracy) of a pretrain-split model on a held-out batch of 512."""
    spec, n = dist.pretrain_network(), 512
    x, y = np.empty((n, dist.input_dim)), np.empty(n, dtype=np.int64)
    _draw_blobs(dist, dist.class_means(), dist.split_classes("pretrain"),
                derived_rng(dist.generator_seed, seed, _TAG_PRETRAIN_EVAL), x, y)
    logits = forward(spec, params, x)
    return float(mean_cross_entropy(logits, y)), float(accuracy(logits, y))


def save_pretrained(path, spec: NetworkSpec, params: np.ndarray) -> None:
    """Model checkpoint (flat parameters [n]) as decimal text; value-exact on
    reload."""
    network = {"input_dim": spec.input_dim, "hidden": list(spec.hidden),
               "output_dim": spec.output_dim}
    _write_checkpoint(path, {"network": network}, "values", params)


def load_pretrained(path) -> tuple[NetworkSpec, np.ndarray]:
    """Inverse of save_pretrained; raises CheckpointError on unknown format
    versions and on files whose values do not fit their declared network."""
    def parse(net):
        spec = NetworkSpec(int(net["input_dim"]), tuple(net["hidden"]), int(net["output_dim"]))
        return spec, spec.offsets()[-1]

    spec, flat, _ = _read_checkpoint(path, "network", parse, "values")
    return spec, flat
