"""Base optimizers exposed as direction providers.

Each provider consumes the shared per-step gradient, advances its own state,
and emits a raw update vector. Sign convention: every direction is a descent
step, i.e. what a unit-learning-rate optimizer would ADD to the weights.

Parameters, gradients and directions are flat vectors; the parameter
components (one tensor each) are the segments between consecutive entries of
an offsets array. A DirectionBank runs several providers off one backward
pass on C rows at once (one per candidate of a population, each with its own
hyperparameters) and returns all directions as one [C, P, n] array together
with their [C, L, P] segment norms from segment_norms(). A row whose
directions stop being finite is reported in a per-row mask; rows are never
dropped.
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
    """1 - beta**k for a per-row beta array [..., 1] (or a scalar).

    Powers are taken in Python floats, row by row: numpy's vectorized power
    may round differently from libm's pow, and every row must get the
    bits a single-row run gets.
    """
    return np.array([1.0 - b ** k for b in np.ravel(beta).tolist()]).reshape(np.shape(beta))


def dir_sgd(grad: np.ndarray) -> np.ndarray:
    """Momentumless SGD: d = -g."""
    return -grad


def dir_adam(state: dict, grad: np.ndarray, beta1, beta2, eps, k: int) -> np.ndarray:
    """Bias-corrected Adam direction, state mutated in place.

    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2,
    d = -(m / (1-b1^k)) / (sqrt(v / (1-b2^k)) + eps), k >= 1 post-increment.
    The hyperparameters are scalars or per-row arrays [..., 1].
    """
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * grad
    state["v"] = beta2 * state["v"] + (1.0 - beta2) * grad * grad
    m_hat = state["m"] / _debias(beta1, k)
    v_hat = state["v"] / _debias(beta2, k)
    return -m_hat / (np.sqrt(v_hat) + eps)


def dir_adamax(state: dict, grad: np.ndarray, beta1, beta2, eps, k: int) -> np.ndarray:
    """Adamax: infinity-norm second moment, u <- max(b2*u, |g|)."""
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * grad
    state["u"] = np.maximum(beta2 * state["u"], np.abs(grad))
    m_hat = state["m"] / _debias(beta1, k)
    return -m_hat / (state["u"] + eps)


def dir_lion(state: dict, grad: np.ndarray, beta1, beta2) -> np.ndarray:
    """Lion: sign of the b1-interpolated momentum; momentum updated with b2 AFTER.

    sign(0) is 0, so entries of the output lie in {-1, 0, +1}.
    """
    c = beta1 * state["m"] + (1.0 - beta1) * grad
    d = -np.sign(c)
    state["m"] = beta2 * state["m"] + (1.0 - beta2) * grad
    return d


def dir_weight_decay(weights: np.ndarray) -> np.ndarray:
    """Pull toward the origin: d = -w."""
    return -weights


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
    """P providers sharing one gradient stream over C rows (one per
    candidate) of a flat parameter vector split into L segments at
    ``offsets``.

    ``betas[c, p]`` holds (beta1, beta2) of provider p for row c, [C, P, 2].
    States are [C, n] arrays. A bank belongs to exactly one inner-loop
    evaluation and is never shared.
    """

    def __init__(self, kinds: list[OptimizerKind], betas: np.ndarray, offsets: np.ndarray):
        if len(kinds) != len(set(kinds)):
            raise ValueError("each optimizer kind may appear at most once")
        betas = np.asarray(betas, dtype=float)
        if betas.ndim != 3 or betas.shape[1:] != (len(kinds), 2):
            raise ValueError(f"betas have shape {betas.shape}, expected [C, {len(kinds)}, 2]")
        self.kinds = list(kinds)
        # per provider: (beta1, beta2), each a [C, 1] column
        self._betas = [(betas[:, p, 0:1], betas[:, p, 1:2]) for p in range(len(kinds))]
        self.step_count = 0
        self.offsets = np.asarray(offsets)
        self.sizes = np.diff(self.offsets)
        shape = (len(betas), int(self.offsets[-1]))
        self._state = [{name: np.zeros(shape) for name in _SLOTS.get(kind, ())}
                       for kind in kinds]

    @property
    def n_providers(self) -> int:
        return len(self.kinds)

    def _direction(self, kind: OptimizerKind, betas, state: dict,
                   grad: np.ndarray, weights: np.ndarray) -> np.ndarray:
        k = self.step_count
        beta1, beta2 = betas
        if kind == OptimizerKind.SGD:
            return dir_sgd(grad)
        if kind == OptimizerKind.ADAM:
            return dir_adam(state, grad, beta1, beta2, EPS, k)
        if kind == OptimizerKind.ADAMAX:
            return dir_adamax(state, grad, beta1, beta2, EPS, k)
        if kind == OptimizerKind.LION:
            return dir_lion(state, grad, beta1, beta2)
        if kind == OptimizerKind.LAMB:
            # Adam ratio scaled per segment by the trust ratio ||w|| / ||r||,
            # which degenerates to 1 when either norm is zero. No weight-decay
            # term, no clipping: unit normalization downstream makes the ratio
            # immaterial to the blended update.
            r = -dir_adam(state, grad, beta1, beta2, EPS, k)
            wr_norms = segment_norms(np.stack([weights, r], axis=-2), self.offsets)
            w_norms, r_norms = wr_norms[..., 0], wr_norms[..., 1]
            trust = np.divide(w_norms, r_norms, out=np.ones_like(w_norms),
                              where=(w_norms > 0.0) & (r_norms > 0.0))
            return -np.repeat(trust, self.sizes, axis=-1) * r
        if kind == OptimizerKind.WEIGHT_DECAY:
            return dir_weight_decay(weights)
        raise ValueError(f"unknown optimizer kind {kind}")

    def step(self, grad: np.ndarray,
             weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every provider once on the flat pre-update gradients and
        weights [C, n] of the current step.

        Returns (directions [C, P, n], norms [C, L, P], finite [C]), where
        ``finite`` is False for a row with any segment norm that is not
        finite: a direction with a NaN or inf entry, or a finite one so
        large that its norm overflows.
        """
        self.step_count += 1
        dirs = np.empty((len(grad), self.n_providers, grad.shape[-1]))
        with np.errstate(over="ignore", invalid="ignore"):
            for p, (kind, betas, state) in enumerate(zip(self.kinds, self._betas, self._state)):
                dirs[:, p] = self._direction(kind, betas, state, grad, weights)
            norms = segment_norms(dirs, self.offsets)
        return dirs, norms, np.isfinite(norms).all(axis=(1, 2))
