"""Minimal dense-network core: fully-connected ReLU classifiers with exact
reverse-mode gradients, used as the inner models that optimizers train.

Everything is float64 and purely functional: no operation mutates its inputs,
so concurrent evaluations can share specs and parameter sets freely.

Parameters are flat vectors: the kernel then the bias of each dense layer in
input-to-output order. Forward and backward passes take a flat array
[..., n_params] with any leading axes, typically [C, n_params] for C
networks trained side by side on the same batches, and run every network
through each layer in one batched matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL = "kernel"
BIAS = "bias"


class DivergenceError(RuntimeError):
    """Raised when a training run that has no rows to mask (pretraining) stops
    being finite; inner loops report divergence per row instead."""


@dataclass(frozen=True)
class ComponentId:
    """One named parameter tensor ("layer" from the optimizer's view).

    Indices are dense 0..L-1 in a deterministic order: for each dense layer
    in input-to-output order, kernel first, then bias.
    """

    index: int
    name: str
    kind: str  # KERNEL or BIAS


@dataclass(frozen=True)
class NetworkSpec:
    """Fully-connected ReLU net: input_dim -> hidden[0] -> ... -> output_dim.

    Hidden layers use ReLU, the output layer is linear (logits).
    ``hidden`` may be empty, giving a single dense layer.
    """

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        dims = (self.input_dim, *self.hidden, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden, self.output_dim)
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    def components(self) -> list[ComponentId]:
        out = []
        for layer, _ in enumerate(self.layer_dims()):
            out.append(ComponentId(2 * layer, f"layer{layer}/{KERNEL}", KERNEL))
            out.append(ComponentId(2 * layer + 1, f"layer{layer}/{BIAS}", BIAS))
        return out

    def component_shapes(self) -> list[tuple[int, ...]]:
        shapes: list[tuple[int, ...]] = []
        for fan_in, fan_out in self.layer_dims():
            shapes.append((fan_in, fan_out))
            shapes.append((fan_out,))
        return shapes


@dataclass
class ParamSet:
    """Ordered (ComponentId, tensor) pairs for one network."""

    ids: list[ComponentId]
    tensors: list[np.ndarray]

    def __post_init__(self):
        if len(self.ids) != len(self.tensors):
            raise ValueError("ids and tensors must have equal length")

    def __len__(self) -> int:
        return len(self.tensors)

    def items(self):
        return zip(self.ids, self.tensors)

    def copy(self) -> "ParamSet":
        return ParamSet(list(self.ids), [t.copy() for t in self.tensors])

    def n_params(self) -> int:
        return sum(t.size for t in self.tensors)

    def flat(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t in self.tensors])


@dataclass
class Batch:
    """Classification batch: x is [n, input_dim] float64, y is [n] int labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("batch shapes disagree")
        if self.x.shape[0] < 1:
            raise ValueError("batch must contain at least one row")


def init_params(spec: NetworkSpec, seed: int) -> ParamSet:
    """Draw a fresh parameter set, deterministic in ``seed``.

    Kernels are zero-mean normal with variance 1/fan_in; biases are zero.
    """
    rng = np.random.default_rng(seed)
    tensors = []
    for fan_in, fan_out in spec.layer_dims():
        tensors.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out)))
        tensors.append(np.zeros(fan_out))
    return ParamSet(spec.components(), tensors)


def layer_views(spec: NetworkSpec, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(kernel [..., fan_in, fan_out], bias [..., fan_out]) views into a flat
    parameter array [..., n], one pair per dense layer."""
    lead = flat.shape[:-1]
    views, offset = [], 0
    for fan_in, fan_out in spec.layer_dims():
        kernel = flat[..., offset:offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        views.append((kernel, flat[..., offset:offset + fan_out]))
        offset += fan_out
    if flat.shape[-1] != offset:
        raise ValueError(f"flat parameters have length {flat.shape[-1]}, expected {offset}")
    return views


def params_from_flat(spec: NetworkSpec, flat: np.ndarray) -> ParamSet:
    """The ParamSet whose flat() is ``flat`` [n]; tensors are views into it."""
    tensors = [t for pair in layer_views(spec, flat) for t in pair]
    return ParamSet(spec.components(), tensors)


def _forward_cached(spec: NetworkSpec, flat: np.ndarray, x: np.ndarray):
    """Forward pass keeping the activations for backprop. The bias and the
    ReLU are applied in place: a [C, n, width] activation is the largest
    array of a batched pass, and a ReLU output is positive exactly where
    its input is, so backprop needs no separate pre-activations."""
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(
            f"input has shape {x.shape}, expected [n, {spec.input_dim}]"
        )
    layers = layer_views(spec, flat)
    acts = [x]
    h = x
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, (w, b) in enumerate(layers):
            h = h @ w
            h += b[..., None, :]
            if layer < len(layers) - 1:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
    return layers, acts


def forward(spec: NetworkSpec, flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Logits [..., n, output_dim] for flat parameters [..., n_params] (one
    network per leading index) and shared inputs x [n, input_dim]."""
    _, acts = _forward_cached(spec, flat, x)
    return acts[-1]


def _cross_entropy_parts(logits: np.ndarray, y: np.ndarray):
    # max-shifted log-sum-exp keeps large logits from overflowing
    shift = logits.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        exp = np.exp(logits - shift)
        lse = shift[..., 0] + np.log(exp.sum(axis=-1))
        loss = np.mean(lse - logits[..., np.arange(len(y)), y], axis=-1)
        softmax = exp / exp.sum(axis=-1, keepdims=True)
    return loss, softmax


def mean_cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean softmax cross-entropy over the rows of logits [..., n, classes]."""
    loss, _ = _cross_entropy_parts(logits, y)
    return loss


def loss_and_grad(spec: NetworkSpec, flat: np.ndarray,
                  batch: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy [...], its exact gradient [..., n_params]
    laid out like ``flat``, and the finite mask [...]: True where the loss
    and every gradient entry are finite. Callers treat a False entry as
    inner-loop divergence of that network.
    """
    layers, acts = _forward_cached(spec, flat, batch.x)
    loss, softmax = _cross_entropy_parts(acts[-1], batch.y)

    n = batch.x.shape[0]
    delta = softmax
    delta[..., np.arange(n), batch.y] -= 1.0
    delta /= n

    grads: list[np.ndarray] = [None] * (2 * len(layers))  # type: ignore[list-item]
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in range(len(layers) - 1, -1, -1):
            grads[2 * layer] = acts[layer].swapaxes(-1, -2) @ delta
            grads[2 * layer + 1] = delta.sum(axis=-2)
            if layer > 0:
                delta = (delta @ layers[layer][0].swapaxes(-1, -2)) * (acts[layer] > 0)
    lead = flat.shape[:-1]
    grad = np.concatenate([g.reshape(*lead, -1) for g in grads], axis=-1)
    return loss, grad, np.isfinite(loss) & np.isfinite(grad).all(axis=-1)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Fraction of rows of logits [..., n, classes] whose argmax matches the
    label.

    np.argmax breaks ties toward the lowest class index.
    """
    if logits.shape[-2] != len(labels):
        raise ValueError("logits and labels disagree in length")
    return np.mean(np.argmax(logits, axis=-1) == np.asarray(labels), axis=-1)
