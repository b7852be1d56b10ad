"""Base optimizers exposed as direction providers.

Each provider consumes the shared per-step gradient, advances its own state,
and emits a raw update vector. Sign convention: every direction is a descent
step, i.e. what a unit-learning-rate optimizer would ADD to the weights.

Parameters, gradients and directions are flat vectors; the parameter
components (one tensor each) are the segments between consecutive entries of
an offsets array. A DirectionBank runs several providers off one backward
pass on a whole parameter grid [*rows, C, n] at once: C candidates of a
population, each with its own hyperparameters, on every task row. It returns
all directions as one [*rows, C, P, n] array together with their
[*rows, C, L, P] segment norms from segment_norms(). A row whose directions
stop being finite is reported in a per-row mask. The task rows stepped are
the ones still training, a prefix of the first axis that only shrinks, and
only that prefix of each provider's state advances. The bank counts no
steps: each step takes the inner loop's step index k, which the bias
corrections of Adam, Adamax and LAMB read.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

NORM_FLOOR = 1e-12  # l2 norms are floored here before logs and normalization
EPS = 1e-8  # the fixed, never learned eps of Adam, Adamax and LAMB


class OptimizerKind(str, Enum):
    SGD = "sgd"
    ADAM = "adam"
    ADAMAX = "adamax"
    LION = "lion"
    LAMB = "lamb"
    WEIGHT_DECAY = "weight_decay"


# the persistent per-parameter state of every kind that keeps any; these are
# exactly the kinds whose (beta1, beta2) are exposed to meta-learning
_SLOTS = {OptimizerKind.ADAM: ("m", "v"), OptimizerKind.ADAMAX: ("m", "u"),
          OptimizerKind.LION: ("m",), OptimizerKind.LAMB: ("m", "v")}
KINDS_WITH_BETAS = tuple(_SLOTS)
# state slots per kind, the Memory Overhead column
STATE_SLOTS = {kind: len(_SLOTS.get(kind, ())) for kind in OptimizerKind}


def default_betas(kinds) -> np.ndarray:
    """Conventional (beta1, beta2) [P, 2] of each kind; Lion's beta2 is 0.99."""
    return np.array([(0.9, 0.99 if kind == OptimizerKind.LION else 0.999) for kind in kinds])


def _debias(beta, k: int):
    """1 - beta**k for a per-candidate beta array [..., 1] (or a scalar).

    Powers are taken in Python floats, row by row: numpy's vectorized power
    may round differently from libm's pow, and every row must get the
    bits a single-row run gets.
    """
    return np.array([1.0 - b ** k for b in np.ravel(beta).tolist()]).reshape(np.shape(beta))


def dir_sgd(grad: np.ndarray, out=None) -> np.ndarray:
    """Momentumless SGD: d = -g."""
    return np.negative(grad, out=out)


def _moment(m: np.ndarray, beta, x: np.ndarray) -> None:
    """m <- beta*m + x, in place: the bits of the expression."""
    m *= beta
    m += x


def dir_adam(state: dict, grad: np.ndarray, beta1, beta2, eps, k: int, out=None) -> np.ndarray:
    """Bias-corrected Adam direction, state mutated in place.

    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2,
    d = -(m / (1-b1^k)) / (sqrt(v / (1-b2^k)) + eps), k >= 1 post-increment.
    The hyperparameters are scalars or per-row arrays [..., 1]; the
    direction is written into ``out`` when given.
    """
    # one temporary [..., n] for every step below (asarray: a 0-d product
    # is a numpy scalar, which has no memory to write into)
    t = np.asarray((1.0 - beta1) * grad)
    _moment(state["m"], beta1, t)
    np.multiply(1.0 - beta2, grad, out=t)
    t *= grad
    _moment(state["v"], beta2, t)
    # m / -(1-b1^k) has the bits of -(m / (1-b1^k))
    out = np.divide(state["m"], -_debias(beta1, k), out=out)
    np.divide(state["v"], _debias(beta2, k), out=t)
    np.sqrt(t, out=t)
    t += eps
    out /= t
    return out


def dir_adamax(state: dict, grad: np.ndarray, beta1, beta2, eps, k: int, out=None) -> np.ndarray:
    """Adamax: infinity-norm second moment, u <- max(b2*u, |g|)."""
    _moment(state["m"], beta1, (1.0 - beta1) * grad)
    u = state["u"]
    u *= beta2
    np.maximum(u, np.abs(grad), out=u)
    out = np.divide(state["m"], -_debias(beta1, k), out=out)
    out /= u + eps
    return out


def dir_lion(state: dict, grad: np.ndarray, beta1, beta2, out=None) -> np.ndarray:
    """Lion: sign of the b1-interpolated momentum; momentum updated with b2 AFTER.

    sign(0) is 0, so entries of the output lie in {-1, 0, +1}.
    """
    c = beta1 * state["m"] + (1.0 - beta1) * grad
    out = np.negative(np.sign(c), out=out)
    _moment(state["m"], beta2, (1.0 - beta2) * grad)
    return out


def dir_weight_decay(weights: np.ndarray, out=None) -> np.ndarray:
    """Pull toward the origin: d = -w."""
    return np.negative(weights, out=out)


def segment_norms(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """l2 norms [..., L, R] of every row of ``rows`` [..., R, n] over every
    segment [offsets[l], offsets[l + 1]).

    One batched dot per segment: bit-identical to np.linalg.norm of each
    slice, which np.add.reduceat is not.
    """
    sq = np.empty((*rows.shape[:-2], len(offsets) - 1, rows.shape[-2]))
    for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        sq[..., i, :] = (rows[..., None, a:b] @ rows[..., a:b, None])[..., 0, 0]
    return np.sqrt(sq)


class DirectionBank:
    """P providers sharing one gradient stream over the parameter grid
    [*rows, C, n]: C candidates on each of the task rows ``rows`` (a shape,
    () for none), of a flat parameter vector split into L segments at
    ``offsets``.

    ``betas[c, p]`` holds (beta1, beta2) of provider p for candidate c,
    [C, P, 2], the same on every task row. States are [*rows, C, n] arrays.
    A bank belongs to exactly one inner-loop evaluation and is never shared.
    """

    def __init__(self, kinds: list[OptimizerKind], betas: np.ndarray, offsets: np.ndarray,
                 rows: tuple[int, ...] = ()):
        if len(kinds) != len(set(kinds)):
            raise ValueError("each optimizer kind may appear at most once")
        betas = np.asarray(betas, dtype=float)
        if betas.ndim != 3 or betas.shape[1:] != (len(kinds), 2):
            raise ValueError(f"betas have shape {betas.shape}, expected [C, {len(kinds)}, 2]")
        self.kinds = list(kinds)
        # per provider: (beta1, beta2), each a [C, 1] column that broadcasts
        # over the task rows
        self._betas = [(betas[:, p, 0:1], betas[:, p, 1:2]) for p in range(len(kinds))]
        self.offsets = np.asarray(offsets)
        self.sizes = np.diff(self.offsets)
        shape = (*rows, len(betas), int(self.offsets[-1]))
        self._state = [{name: np.zeros(shape) for name in _SLOTS.get(kind, ())}
                       for kind in kinds]

    def _direction(self, kind: OptimizerKind, betas, state: dict, grad: np.ndarray,
                   weights: np.ndarray, w_norms: np.ndarray, k: int, out: np.ndarray) -> None:
        beta1, beta2 = betas
        if kind == OptimizerKind.SGD:
            dir_sgd(grad, out=out)
        elif kind == OptimizerKind.ADAM:
            dir_adam(state, grad, beta1, beta2, EPS, k, out=out)
        elif kind == OptimizerKind.ADAMAX:
            dir_adamax(state, grad, beta1, beta2, EPS, k, out=out)
        elif kind == OptimizerKind.LION:
            dir_lion(state, grad, beta1, beta2, out=out)
        elif kind == OptimizerKind.LAMB:
            # Adam ratio scaled per segment by the trust ratio ||w|| / ||r||,
            # which degenerates to 1 when either norm is zero. No weight-decay
            # term, no clipping: unit normalization downstream makes the ratio
            # immaterial to the blended update. out holds the Adam direction
            # -r: it has the norms of r, and times the ratio the bits of
            # -ratio * r.
            dir_adam(state, grad, beta1, beta2, EPS, k, out=out)
            r_norms = segment_norms(out[..., None, :], self.offsets)[..., 0]
            trust = np.divide(w_norms, r_norms, out=np.ones_like(r_norms),
                              where=(w_norms > 0.0) & (r_norms > 0.0))
            out *= np.repeat(trust, self.sizes, axis=-1)
        elif kind == OptimizerKind.WEIGHT_DECAY:
            dir_weight_decay(weights, out=out)
        else:
            raise ValueError(f"unknown optimizer kind {kind}")

    def step(self, grad: np.ndarray, weights: np.ndarray, w_norms: np.ndarray,
             k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every provider once on the flat pre-update gradients and
        weights [*rows, C, n] of step k (1 on the first call, then one more
        per call), whose segment norms w_norms [*rows, C, L] LAMB reads.
        The task rows are the ones still training, a prefix of the first
        axis of the states, and only that prefix of each state advances.

        Returns (directions [*rows, C, P, n], norms [*rows, C, L, P], finite
        [*rows, C]), where ``finite`` is False for a row with any segment
        norm that is not finite: a direction with a NaN or inf entry, or a
        finite one so large that its norm overflows. Each provider writes
        its direction straight into its slot, and no direction aliases
        provider state.
        """
        rows = len(grad)
        dirs = np.empty((*grad.shape[:-1], len(self.kinds), grad.shape[-1]))
        with np.errstate(over="ignore", invalid="ignore"):
            for p, (kind, betas, state) in enumerate(zip(self.kinds, self._betas, self._state)):
                live = {name: s[:rows] for name, s in state.items()}
                self._direction(kind, betas, live, grad, weights, w_norms, k, dirs[..., p, :])
            norms = segment_norms(dirs, self.offsets)
        return dirs, norms, np.isfinite(norms).all(axis=(-2, -1))
