"""The layer-wise controller: tracks per-component training statistics,
feeds them through a small meta-parameterized MLP, and blends normalized
base-optimizer directions into per-component updates:

    delta_theta[l] = lambda[l] * sum_p mu[l, p] * dhat[l, p]

with dhat = d / ||d||_2 (zero when ||d|| underflows the norm floor). The MLP
emits P+1 logits per component: a softmax over the P mixing coefficients and
an exponential head for lambda, so mu is always a distribution and lambda is
always positive.

ControllerContext is the inner loop's stepper. It takes row-batched psi
only: C candidates, each run on every task row of a block, [T] or [J, T],
at that row's horizon. One step advances the whole live grid at once, in
place, on flat vectors: parameters and gradients are [*rows, C, n], the
bank's directions [*rows, C, P, n], all split into components at the
segment offsets; every per-component norm comes from
optdir.segment_norms, the EMAs are [*rows, C, L, 2, G], and the update is
one flat expression over the directions, added to the parameters. The
controller MLPs are stacked (a leading n_mlps axis: 1, or L for
per_layer_mlp) behind the candidate axis, and the frames
[*rows, C, L, F] of every variant take one batched matmul per MLP layer;
the MLPs and betas broadcast over the task rows, and the time features,
one set per task row, over the candidates. A step reads only the live
task rows, a prefix of the first axis, of every per-row array: a row
whose directions, segment norms, logits or lambdas stop being finite is
only reported in the finite mask that the step returns, and the others
are not disturbed.

Meta-parameters (MLP weights, per-component embeddings, squashed base
optimizer betas) live in one flat vector so an evolution-strategies outer
loop can perturb them; flatten/unflatten is an exact bijection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import optdir
from .files import write_json
from .nnlite import NetworkSpec, row_max
from .optdir import DirectionBank, OptimizerKind, segment_norms

DEFAULT_GAMMAS = (0.0, 0.9, 0.99)
EMBED_DIM = 16
HIDDEN_1 = 32
HIDDEN_2 = 16
N_TIME_FEATURES = 15
LAMBDA_INIT = 1e-3
CHECKPOINT_VERSION = 1
# reference points of the progress features: 11 linear alphas in [0, 1] feed
# tanh(10*(k/K - alpha)); 4 log-spaced betas in [1e-4, 1e-1] feed tanh(log(K*beta))
TIME_ALPHAS = np.arange(11) / 10.0
TIME_BETAS = np.array([1e-4, 1e-3, 1e-2, 1e-1])


def sigmoid(x):
    with np.errstate(over="ignore"):  # exp overflow for x < -709 gives exactly 0
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p / (1.0 - p))


def time_features(k: int, K) -> np.ndarray:
    """11 relative then 4 absolute progress features, each in (-1, 1), of
    step k at horizon K: [15], or [..., 15] for per-row horizons K [...],
    each row with the bits of its own scalar K."""
    K = np.asarray(K)[..., None]
    shortest = K.min()
    if shortest <= 0:
        raise ValueError("K must be positive")
    if not 1 <= k <= shortest:
        raise ValueError(f"step {k} outside 1..{shortest}")
    rel = np.tanh(10.0 * (k / K - TIME_ALPHAS))
    absf = np.tanh(np.log(K * TIME_BETAS))
    return np.concatenate([rel, absf], axis=-1)


class EmaTracker:
    """Bias-corrected EMAs of log weight norms, log gradient norms and loss.

    Per component: log||w||_2 and log||g||_2 for every smoothing factor in
    gammas; the loss EMAs are global. Every statistic leads with the row
    axes ``rows``, a row count or a shape such as (task rows..., candidates).
    Statistics must be the pre-update values for the step being recorded,
    and update() runs exactly once per inner step.
    """

    def __init__(self, n_components: int, gammas=DEFAULT_GAMMAS, rows=1):
        self.gammas = np.asarray(tuple(gammas), dtype=float)
        if len(self.gammas) > 0 and (self.gammas.min() < 0 or self.gammas.max() >= 1):
            raise ValueError("gammas must lie in [0, 1)")
        self.k = 0
        rows = np.broadcast_shapes(rows)  # a count n is the shape (n,)
        self._comp = np.zeros((*rows, n_components, 2, len(self.gammas)))
        self._loss = np.zeros((*rows, len(self.gammas)))

    def update(self, loss, comp_stats: np.ndarray) -> None:
        """loss is [*rows]; comp_stats is [*rows, L, 2]: (log||w||, log||g||)
        per component. Only the first len(comp_stats) entries of the first
        axis are kept: the rows past them finished their run."""
        self.k += 1
        g, rows = self.gammas, len(comp_stats)
        self._comp = g * self._comp[:rows] + (1.0 - g) * comp_stats[..., None]
        self._loss = g * self._loss[:rows] + (1.0 - g) * np.asarray(loss)[..., None]

    def read(self) -> tuple[np.ndarray, np.ndarray]:
        """Corrected EMAs: ([*rows, L, 2, n_gammas], [*rows, n_gammas]).
        Errors before any update."""
        if self.k == 0:
            raise ValueError("no samples recorded yet")
        corr = 1.0 - self.gammas ** self.k  # gamma == 0 gives divisor 1 for k >= 1
        return self._comp / corr, self._loss / corr


class Variant(str, Enum):
    FULL = "full"                  # shared MLP + per-component embeddings
    NO_EMBEDDING = "no_embedding"  # shared MLP, embedding slots removed
    PER_LAYER_MLP = "per_layer_mlp"  # one MLP per component, no embeddings
    GLOBAL = "global"              # one MLP on whole-model statistics


@dataclass(frozen=True)
class PsiLayout:
    """Shape of the flat meta-parameter vector for one configuration; the
    sizes derived from it are attributes, computed at construction."""

    n_components: int
    base_kinds: tuple[OptimizerKind, ...]
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    variant: Variant = Variant.FULL

    def __post_init__(self):
        object.__setattr__(self, "base_kinds", tuple(OptimizerKind(k) for k in self.base_kinds))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "variant", Variant(self.variant))
        if len(self.base_kinds) < 1:
            raise ValueError("need at least one base optimizer")
        if len(set(self.base_kinds)) != len(self.base_kinds):
            raise ValueError("duplicate base optimizer kind")
        if self.n_components < 1:
            raise ValueError("need at least one component")
        # the derived sizes, computed once: unflatten reads them for every
        # view (set through __dict__, as the dataclass is frozen)
        p, full = len(self.base_kinds), self.variant == Variant.FULL
        f = 3 * len(self.gammas) + N_TIME_FEATURES + p + (EMBED_DIM if full else 0)
        shapes = ((f, HIDDEN_1), (HIDDEN_1,), (HIDDEN_1, HIDDEN_2), (HIDDEN_2,),
                  (HIDDEN_2, p + 1), (p + 1,))
        n_mlps = self.n_components if self.variant == Variant.PER_LAYER_MLP else 1
        mlp_size = sum(math.prod(s) for s in shapes)
        # per base kind: whether psi carries its betas (in hyper_raw order)
        learned = [k in optdir.KINDS_WITH_BETAS for k in self.base_kinds]
        n_hyper, n_embed = 2 * sum(learned), EMBED_DIM * self.n_components if full else 0
        vars(self).update(n_providers=p, feature_dim=f, mlp_shapes=shapes, n_mlps=n_mlps,
                          mlp_size=mlp_size, learned_betas=learned, n_hyper=n_hyper,
                          embedding_size=n_embed,
                          flat_size=n_mlps * mlp_size + n_embed + n_hyper)

    def to_dict(self) -> dict:
        return {
            "n_components": self.n_components,
            "base_optimizers": [k.value for k in self.base_kinds],
            "gammas": list(self.gammas),
            "variant": self.variant.value,
        }

    @staticmethod
    def from_dict(d: dict) -> "PsiLayout":
        return PsiLayout(
            n_components=int(d["n_components"]),
            base_kinds=tuple(OptimizerKind(k) for k in d["base_optimizers"]),
            gammas=tuple(float(g) for g in d["gammas"]),
            variant=Variant(d["variant"]),
        )


@dataclass
class Mlp:
    """The controller MLPs, stacked: every array has a leading n_mlps axis."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def arrays(self):
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)


@dataclass
class MetaParams:
    """Structured view of one flat meta-parameter vector, or of a batch
    [C, flat_size] of them, in which case every array gains a leading C axis.

    All arrays alias ``flat``, so unflatten(flatten(psi)) round-trips bit
    for bit and NES can perturb the flat vector directly.
    """

    layout: PsiLayout
    flat: np.ndarray
    mlp: Mlp
    embeddings: np.ndarray | None
    hyper_raw: np.ndarray


def flatten(psi: MetaParams) -> np.ndarray:
    return psi.flat.copy()


def unflatten(vec: np.ndarray, layout: PsiLayout) -> MetaParams:
    """Views into ``vec`` [flat_size] or [C, flat_size]: n_mlps MLPs
    (w1,b1,w2,b2,w3,b3 each), embeddings row-major, then raw
    hyperparameters in declaration order. The stacked MLP arrays are
    strided views across the consecutive MLP blocks."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] != layout.flat_size:
        raise ValueError(f"flat vector has shape {vec.shape}, expected "
                         f"[{layout.flat_size}] or [C, {layout.flat_size}]")
    lead = vec.shape[:-1]
    n_mlp_values = layout.n_mlps * layout.mlp_size
    blocks = vec[..., :n_mlp_values].reshape(*lead, layout.n_mlps, layout.mlp_size)
    arrays, offset = [], 0
    for shape in layout.mlp_shapes:
        n = math.prod(shape)
        arrays.append(blocks[..., offset:offset + n].reshape(*lead, layout.n_mlps, *shape))
        offset += n
    embeddings = None
    if layout.variant == Variant.FULL:
        embeddings = vec[..., n_mlp_values:n_mlp_values + layout.embedding_size].reshape(
            *lead, layout.n_components, EMBED_DIM)
    hyper_raw = vec[..., layout.flat_size - layout.n_hyper:]
    return MetaParams(layout=layout, flat=vec, mlp=Mlp(*arrays),
                      embeddings=embeddings, hyper_raw=hyper_raw)


def init_meta_params(layout: PsiLayout, seed: int) -> MetaParams:
    """Fresh meta-parameters.

    Hidden weights are LeCun normal and the output layer is zero, so a new
    controller mixes uniformly and steps with lambda = LAMBDA_INIT until
    meta-training shapes it. Raw hyperparameters start at the conventional
    defaults of each base optimizer, squashed through the inverse sigmoid.
    """
    rng = np.random.default_rng(seed)
    psi = unflatten(np.zeros(layout.flat_size), layout)
    for w1, w2 in zip(psi.mlp.w1, psi.mlp.w2):  # draws interleave MLP by MLP
        w1[:] = rng.normal(0.0, 1.0 / np.sqrt(layout.feature_dim), w1.shape)
        w2[:] = rng.normal(0.0, 1.0 / np.sqrt(HIDDEN_1), w2.shape)
    psi.mlp.b3[:, layout.n_providers] = math.log(LAMBDA_INIT)
    if psi.embeddings is not None:
        psi.embeddings[:] = rng.normal(0.0, 0.1, psi.embeddings.shape)
    defaults = optdir.default_betas(layout.base_kinds)
    psi.hyper_raw[:] = logit(defaults[layout.learned_betas]).ravel()
    return psi


def build_features(ema_comp: np.ndarray, ema_loss: np.ndarray, tf: np.ndarray,
                   embeddings: np.ndarray | None, dir_log_norms: np.ndarray) -> np.ndarray:
    """Frames [..., L, F] in the fixed order (EMA | time | embedding | dir
    norms) from ema_comp [..., L, 2, G], ema_loss [..., G], the time
    features tf [15] shared by every row or [..., 15] per row, embeddings
    [L, E] or [..., L, E] (broadcast over the leading axes) and
    dir_log_norms [..., L, P].

    The EMA block is log||w|| EMAs, then log||g|| EMAs, then loss EMAs, each
    over the configured gammas in order.
    """
    rows = ema_comp.shape[:-2]
    parts = [
        ema_comp[..., 0, :],
        ema_comp[..., 1, :],
        np.broadcast_to(ema_loss[..., None, :], (*rows, ema_loss.shape[-1])),
        np.broadcast_to(tf[..., None, :], (*rows, tf.shape[-1])),
    ]
    if embeddings is not None:
        parts.append(np.broadcast_to(embeddings, (*rows, embeddings.shape[-1])))
    parts.append(dir_log_norms)
    return np.concatenate(parts, axis=-1)


def controller_forward_batch(mlp: Mlp, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu [..., R, P], lambda [..., R], finite [...]) for feature frames
    [..., R, F] through stacked MLPs whose leading axes broadcast against
    the frames'.
    With n_mlps stacked MLPs, consecutive blocks of R / n_mlps frames go
    through MLP 0, 1, ... in one batched pass. mu is a max-shifted softmax
    over the first P logits; lambda = exp of the last logit. ``finite`` is
    False where any logit or lambda of that leading index is not finite."""
    n_mlps, width = mlp.w1.shape[-3:-1]
    if frames.shape[-1] != width:
        raise ValueError(
            f"feature frames have width {frames.shape[-1]}, MLP expects {width}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        h = frames.reshape(*frames.shape[:-2], n_mlps, frames.shape[-2] // n_mlps, width) @ mlp.w1
        h = np.maximum(h + mlp.b1[..., None, :], 0.0)
        h = np.maximum(h @ mlp.w2 + mlp.b2[..., None, :], 0.0)
        logits = (h @ mlp.w3 + mlp.b3[..., None, :]).reshape(*frames.shape[:-1], mlp.b3.shape[-1])
        mix = logits[..., :-1]
        mu = np.exp(mix - row_max(mix)[..., None])
        mu /= mu.sum(axis=-1, keepdims=True)
        lam = np.exp(logits[..., -1])
    finite = np.isfinite(logits).all(axis=(-2, -1)) & np.isfinite(lam).all(axis=-1)
    return mu, lam, finite


def compose_update(lam: np.ndarray, mu: np.ndarray, dirs: np.ndarray, norms: np.ndarray,
                   offsets: np.ndarray, renormalize: bool = False) -> np.ndarray:
    """Flat update [..., n]: per segment l, the lambda[..., l]-scaled convex
    blend of the unit directions dirs [..., P, n] with weights mu [..., L, P];
    norms [..., L, P] are the segment norms of dirs.

    Directions with norm below NORM_FLOOR contribute zero. With
    ``renormalize`` each segment's blend is rescaled to unit norm before
    lambda, making lambda the exact update norm rather than an upper bound;
    off by default.
    """
    sizes = np.diff(offsets)
    coef = np.divide(mu, norms, out=np.zeros_like(mu), where=norms >= optdir.NORM_FLOOR)
    out = np.zeros(dirs.shape[:-2] + dirs.shape[-1:])
    for p in range(dirs.shape[-2]):
        out += np.repeat(coef[..., p], sizes, axis=-1) * dirs[..., p, :]
    if renormalize:
        blend = segment_norms(out[..., None, :], offsets)[..., 0]
        out /= np.repeat(np.where(blend >= optdir.NORM_FLOOR, blend, 1.0), sizes, axis=-1)
    return np.repeat(lam, sizes, axis=-1) * out


@dataclass
class TrajectoryRow:
    step: int
    component: str
    mu: tuple[float, ...]
    lam: float
    train_loss: float


class ControllerContext:
    """The inner loop's stepper: the direction bank, the EMA tracker and a
    read-only view of the meta-parameters of C candidates [C, flat_size],
    for the flat parameters of ``spec``. K holds the horizons of the task
    rows, [T] or [J, T]; every step updates the parameter grid
    [*rows, C, n] in place, each task row running every candidate, and
    every per-candidate value (the MLPs, betas and their validity)
    broadcasts over the task axes. Each step takes the task rows still
    training, a prefix of the first axis that only shrinks, and reads only
    that prefix of every per-row array (bank state, EMAs, horizons); the
    step count is shared, as every row starts at step 1.

    ``policy`` replaces the MLP head when set: it receives the component
    index and that component's direction log-norms and returns (mu, lambda).
    Used by equivalence tests to force known optimizers through the update
    path. With ``record``, every step appends per-component TrajectoryRows
    to ``trajectories[row]``, rows of the grid [*rows, C] in row-major
    order, for the rows it reports finite (dead rows come in as NaN and
    never are).

    A candidate whose betas round to 0 or 1 has no valid hyperparameters:
    its bank rows run on the defaults and it is never reported finite, so
    it scores the divergence penalty without touching the other rows.
    """

    def __init__(self, psi: MetaParams, spec: NetworkSpec, K,
                 renormalize: bool = False, policy=None, record: bool = False):
        layout = psi.layout
        offsets = spec.offsets()
        n_comp = len(offsets) - 1
        if layout.variant != Variant.GLOBAL and layout.n_components != n_comp:
            raise ValueError(
                f"layout built for {layout.n_components} components, model has {n_comp}"
            )
        if psi.flat.ndim != 2:
            raise ValueError("the controller takes row-batched psi [C, flat_size]")
        self.psi = psi
        self.layout = layout
        self.n_candidates = cands = len(psi.flat)
        self.K = np.asarray(K)
        self.renormalize = renormalize
        self.policy = policy
        defaults = optdir.default_betas(layout.base_kinds)
        squashed = sigmoid(self.psi.hyper_raw)
        # a beta that rounds to exactly 0 or 1 (a raw value above about 36.7
        # or below about -745) leaves its whole candidate invalid
        self._betas_valid = ((0.0 < squashed) & (squashed < 1.0)).all(axis=-1)
        betas = np.tile(defaults, (cands, 1, 1))
        betas[:, layout.learned_betas] = squashed.reshape(cands, -1, 2)
        betas = np.where(self._betas_valid[:, None, None], betas, defaults)
        self.bank = DirectionBank(list(layout.base_kinds), betas, offsets, rows=self.K.shape)
        tracked = 1 if layout.variant == Variant.GLOBAL else n_comp
        self.tracker = EmaTracker(tracked, layout.gammas, rows=(*self.K.shape, cands))
        self.n_model_components = n_comp
        self._names = spec.components()
        self.trajectories: list[list[TrajectoryRow]] | None = (
            [[] for _ in range(self.K.size * cands)] if record else None)

    def _stats(self, wg_norms: np.ndarray) -> np.ndarray:
        """[..., L, 2] log (||w||, ||g||), or [..., 1, 2] whole-model norms
        for global, from the segment norms wg_norms [..., L, 2]."""
        if self.layout.variant == Variant.GLOBAL:
            # sum along contiguous rows: the same pairwise order as np.sum of
            # a 1-D array, which a sum over the L axis of [L, 2] is not for L >= 8
            sq = np.ascontiguousarray(wg_norms.swapaxes(-1, -2)) ** 2
            wg_norms = np.sqrt(np.sum(sq, axis=-1))[..., None, :]
        return np.log(np.maximum(wg_norms, optdir.NORM_FLOOR))

    def decide(self, norms: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu [*rows, C, L, P], lambda [*rows, C, L], finite [*rows, C])
        from the direction norms [*rows, C, L, P] of the live rows, after
        the tracker has been updated with this step's statistics."""
        layout = self.layout
        n_comp = self.n_model_components
        log_norms = np.log(np.maximum(norms, optdir.NORM_FLOOR))
        if self.policy is not None:
            mu = np.zeros(norms.shape)
            lam = np.zeros(norms.shape[:-1])
            for row in np.ndindex(norms.shape[:-2]):
                for i in range(n_comp):
                    mu[row][i], lam[row][i] = self.policy(i, log_norms[row][i])
            return mu, lam, np.ones(norms.shape[:-2], dtype=bool)

        ema_comp, ema_loss = self.tracker.read()
        # one set of time features per task row, broadcast over the candidates
        tf = time_features(k, self.K[:len(norms)])[..., None, :]
        if layout.variant == Variant.GLOBAL:
            whole = 0.5 * np.log(np.maximum(np.sum(norms ** 2, axis=-2),
                                            optdir.NORM_FLOOR ** 2))
            frames = build_features(ema_comp, ema_loss, tf, None, whole[..., None, :])
            mu, lam, finite = controller_forward_batch(self.psi.mlp, frames)
            return np.repeat(mu, n_comp, axis=-2), np.repeat(lam, n_comp, axis=-1), finite
        frames = build_features(ema_comp, ema_loss, tf, self.psi.embeddings, log_norms)
        return controller_forward_batch(self.psi.mlp, frames)

    def step(self, params: np.ndarray, grads: np.ndarray, losses: np.ndarray,
             k: int) -> np.ndarray:
        """Update the flat parameter grid params [*rows, C, n] of the task
        rows still training, a prefix of the first axis, in place from the
        flat gradients grads [*rows, C, n] and the train losses [*rows, C].

        Returns finite [*rows, C]; a row whose directions, segment norms
        (of weights, gradients or directions), logits or lambda are not
        finite, or whose betas round to 0 or 1, is False there, and its new
        params are meaningless.

        Order of effects: directions from pre-update weights and gradients,
        then the EMA recursion on pre-update statistics, then the controller
        and the composed update.
        """
        offsets = self.bank.offsets
        with np.errstate(over="ignore"):  # a norm that overflows kills its row below
            wg_norms = segment_norms(np.stack([params, grads], axis=-2), offsets)
        dirs, norms, finite = self.bank.step(grads, params, wg_norms[..., 0])
        # a row that is not finite may carry inf into its EMAs and its
        # update; the NaN that inf makes there stays in that dead row
        with np.errstate(invalid="ignore"):
            self.tracker.update(losses, self._stats(wg_norms))
            mu, lam, ok = self.decide(norms, k)
            params += compose_update(lam, mu, dirs, norms, offsets, self.renormalize)
        finite = finite & ok & self._betas_valid & np.isfinite(wg_norms).all(axis=(-2, -1))
        if self.trajectories is not None:
            mu, lam = mu.reshape(-1, *mu.shape[-2:]), lam.reshape(-1, lam.shape[-1])
            for row in np.flatnonzero(finite).tolist():
                loss = losses.flat[row].item()
                self.trajectories[row].extend(
                    TrajectoryRow(step=k, component=name, mu=tuple(m), lam=l, train_loss=loss)
                    for name, m, l in zip(self._names, mu[row].tolist(), lam[row].tolist()))
        return finite


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read as the format it claims."""


def _write_checkpoint(path, header: dict, key: str, values: np.ndarray,
                      extra: dict | None = None) -> None:
    """One JSON document: format version, header, the float vector under
    ``key`` as decimal text with 17 significant digits, then ``extra``,
    whose ``history`` rows, if any, come last, one per line.

    float64 -> %.17g -> float64 is the identity, so loads are value-exact.
    """
    doc = {"format_version": CHECKPOINT_VERSION, **header,
           key: [format(v, ".17g") for v in values]}
    if extra:
        doc.update(extra)
    write_json(path, doc, sort_keys=False, rows_key="history")


def _read_checkpoint(path, header_key: str, parse, key: str):
    """(parsed header, float vector, full document) of a checkpoint written
    by _write_checkpoint. ``parse(header)`` returns (object, expected value
    count); the count is checked before the caller reshapes anything."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        obj, size = parse(doc[header_key])
        values = np.array([float(v) for v in doc[key]])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    if values.shape != (size,):
        raise CheckpointError(
            f"{path}: {len(values)} values, but its {header_key} needs {size}")
    return obj, values, doc


def save_psi(path, psi: MetaParams, extra: dict | None = None) -> None:
    """Checkpoint the layout and the flat vector, value-exact on reload."""
    _write_checkpoint(path, {"layout": psi.layout.to_dict()}, "psi", psi.flat, extra)


def load_psi(path) -> tuple[MetaParams, dict]:
    """Load a checkpoint; returns (psi, full document) for callers that need
    the extra fields. Raises CheckpointError on unknown format versions and
    malformed files."""
    def parse(d):
        layout = PsiLayout.from_dict(d)
        return layout, layout.flat_size

    layout, flat, doc = _read_checkpoint(path, "layout", parse, "psi")
    return unflatten(flat, layout), doc
