"""Base optimizers exposed as direction providers.

Each provider consumes the shared per-step gradient, advances its own state,
and emits a raw update vector. Sign convention: every direction is a descent
step, i.e. what a unit-learning-rate optimizer would ADD to the weights.

Parameters, gradients and directions are flat vectors; the parameter
components (one tensor each) are the segments between consecutive entries of
an offsets array. A DirectionBank runs several providers off one backward
pass and returns all directions as one [P, n] array together with their
[L, P] segment norms from segment_norms().
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .nnlite import DivergenceError

NORM_FLOOR = 1e-12  # l2 norms are floored here before logs and normalization


class OptimizerKind(str, Enum):
    SGD = "sgd"
    ADAM = "adam"
    ADAMAX = "adamax"
    LION = "lion"
    LAMB = "lamb"
    WEIGHT_DECAY = "weight_decay"


# kinds whose (beta1, beta2) are exposed to meta-learning
KINDS_WITH_BETAS = (
    OptimizerKind.ADAM,
    OptimizerKind.ADAMAX,
    OptimizerKind.LION,
    OptimizerKind.LAMB,
)

# persistent per-parameter state slots, the Memory Overhead column
STATE_SLOTS = {
    OptimizerKind.SGD: 0,
    OptimizerKind.ADAM: 2,
    OptimizerKind.ADAMAX: 2,
    OptimizerKind.LION: 1,
    OptimizerKind.LAMB: 2,
    OptimizerKind.WEIGHT_DECAY: 0,
}


@dataclass(frozen=True)
class HyperParams:
    """Scalar hyperparameters of one provider. eps is fixed, never learned."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")


def default_hyper_params(kind: OptimizerKind) -> HyperParams:
    if kind == OptimizerKind.LION:
        return HyperParams(beta1=0.9, beta2=0.99)
    return HyperParams(beta1=0.9, beta2=0.999)


def dir_sgd(grad: np.ndarray) -> np.ndarray:
    """Momentumless SGD: d = -g."""
    return -grad


def dir_adam(state: dict, grad: np.ndarray, beta1: float, beta2: float,
             eps: float, k: int) -> np.ndarray:
    """Bias-corrected Adam direction, state mutated in place.

    m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2,
    d = -(m / (1-b1^k)) / (sqrt(v / (1-b2^k)) + eps), k >= 1 post-increment.
    """
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * grad
    state["v"] = beta2 * state["v"] + (1.0 - beta2) * grad * grad
    m_hat = state["m"] / (1.0 - beta1 ** k)
    v_hat = state["v"] / (1.0 - beta2 ** k)
    return -m_hat / (np.sqrt(v_hat) + eps)


def dir_adamax(state: dict, grad: np.ndarray, beta1: float, beta2: float,
               eps: float, k: int) -> np.ndarray:
    """Adamax: infinity-norm second moment, u <- max(b2*u, |g|)."""
    state["m"] = beta1 * state["m"] + (1.0 - beta1) * grad
    state["u"] = np.maximum(beta2 * state["u"], np.abs(grad))
    m_hat = state["m"] / (1.0 - beta1 ** k)
    return -m_hat / (state["u"] + eps)


def dir_lion(state: dict, grad: np.ndarray, beta1: float, beta2: float) -> np.ndarray:
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
    """l2 norms [L, R] of every row of ``rows`` [R, n] over every segment
    [offsets[l], offsets[l + 1]).

    One batched dot per segment: bit-identical to np.linalg.norm of each
    slice, which np.add.reduceat is not.
    """
    sq = np.empty((len(offsets) - 1, rows.shape[0]))
    for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        sq[i] = (rows[:, None, a:b] @ rows[:, a:b, None])[:, 0, 0]
    return np.sqrt(sq)


class DirectionBank:
    """P providers sharing one gradient stream over one flat parameter vector
    split into L segments at ``offsets``.

    States are flat over all segments. A bank belongs to exactly one
    inner-loop evaluation and is never shared.
    """

    def __init__(self, kinds: list[OptimizerKind], hypers: list[HyperParams],
                 offsets: np.ndarray):
        if len(kinds) != len(set(kinds)):
            raise ValueError("each optimizer kind may appear at most once")
        if len(hypers) != len(kinds):
            raise ValueError("one HyperParams per kind")
        self.kinds = list(kinds)
        self.hypers = list(hypers)
        self.step_count = 0
        self.offsets = np.asarray(offsets)
        self.sizes = np.diff(self.offsets)
        n = int(self.offsets[-1])
        slots = {OptimizerKind.ADAM: ("m", "v"), OptimizerKind.LAMB: ("m", "v"),
                 OptimizerKind.ADAMAX: ("m", "u"), OptimizerKind.LION: ("m",)}
        self._state = [{name: np.zeros(n) for name in slots.get(kind, ())}
                       for kind in kinds]

    @property
    def n_providers(self) -> int:
        return len(self.kinds)

    def _direction(self, kind: OptimizerKind, hp: HyperParams, state: dict,
                   grad: np.ndarray, weights: np.ndarray) -> np.ndarray:
        k = self.step_count
        if kind == OptimizerKind.SGD:
            return dir_sgd(grad)
        if kind == OptimizerKind.ADAM:
            return dir_adam(state, grad, hp.beta1, hp.beta2, hp.eps, k)
        if kind == OptimizerKind.ADAMAX:
            return dir_adamax(state, grad, hp.beta1, hp.beta2, hp.eps, k)
        if kind == OptimizerKind.LION:
            return dir_lion(state, grad, hp.beta1, hp.beta2)
        if kind == OptimizerKind.LAMB:
            # Adam ratio scaled per segment by the trust ratio ||w|| / ||r||,
            # which degenerates to 1 when either norm is zero. No weight-decay
            # term, no clipping: unit normalization downstream makes the ratio
            # immaterial to the blended update.
            r = -dir_adam(state, grad, hp.beta1, hp.beta2, hp.eps, k)
            w_norms, r_norms = segment_norms(np.stack([weights, r]), self.offsets).T
            trust = np.divide(w_norms, r_norms, out=np.ones_like(w_norms),
                              where=(w_norms > 0.0) & (r_norms > 0.0))
            return -np.repeat(trust, self.sizes) * r
        if kind == OptimizerKind.WEIGHT_DECAY:
            return dir_weight_decay(weights)
        raise ValueError(f"unknown optimizer kind {kind}")

    def step(self, grad: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance every provider once: (directions [P, n], norms [L, P]).

        grad and weights are the flat pre-update values for the current
        step.
        """
        self.step_count += 1
        dirs = np.empty((self.n_providers, len(grad)))
        with np.errstate(over="ignore", invalid="ignore"):
            for p, (kind, hp, state) in enumerate(zip(self.kinds, self.hypers, self._state)):
                dirs[p] = self._direction(kind, hp, state, grad, weights)
        finite = np.isfinite(dirs).all(axis=1)
        if not finite.all():
            raise DivergenceError(f"non-finite {self.kinds[finite.argmin()].value} direction")
        return dirs, segment_norms(dirs, self.offsets)
