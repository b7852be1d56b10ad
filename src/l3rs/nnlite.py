"""Minimal dense-network core: fully-connected ReLU classifiers with exact
reverse-mode gradients, used as the inner models that optimizers train.

Everything is float64 and purely functional: no operation mutates its inputs,
so concurrent evaluations can share specs and parameters freely.

Parameters are flat vectors: the kernel then the bias of each dense layer in
input-to-output order, at the segment offsets of NetworkSpec.offsets(), the
one place that works out where a component sits. Forward and backward
passes take a flat array [..., n_params] with any leading axes, typically
[R, n_params] for R networks trained side by side, and run every network
through each layer in one batched matmul. The rows share one batch
(inputs [n, d], labels [n]) or each get their own (inputs [R, n, d],
labels [R, n]), and the batch's leading axes broadcast against the
parameters' (inputs [T, 1, n, d] for parameters [T, C, n_params] give the
C networks of row t batch t); either way every network gets the bits of
its own single-network call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

KERNEL = "kernel"
BIAS = "bias"


class DivergenceError(RuntimeError):
    """Raised when a training run that has no rows to mask (pretraining) stops
    being finite; inner loops report divergence per row instead."""


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
        # computed once: every forward and backward pass reads them
        sizes = [math.prod(shape) for shape in self.component_shapes()]
        object.__setattr__(self, "_offsets", tuple(itertools.accumulate(sizes, initial=0)))

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden, self.output_dim)
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    def components(self) -> list[str]:
        """Component names ("layer0/kernel", "layer0/bias", ...): for each
        dense layer in input-to-output order, kernel first, then bias."""
        return [f"layer{layer}/{kind}"
                for layer in range(len(self.layer_dims())) for kind in (KERNEL, BIAS)]

    def component_shapes(self) -> list[tuple[int, ...]]:
        shapes: list[tuple[int, ...]] = []
        for fan_in, fan_out in self.layer_dims():
            shapes.append((fan_in, fan_out))
            shapes.append((fan_out,))
        return shapes

    def offsets(self) -> tuple[int, ...]:
        """The L+1 segment offsets of the flat parameter vector: component l
        is flat[offsets[l]:offsets[l + 1]], and offsets[-1] is its length."""
        return self._offsets


@dataclass
class Batch:
    """Classification batch: x is [n, input_dim] float64, y is [n] int labels,
    or, with leading row axes, one such batch per row: x [..., n, input_dim]
    and y [..., n]."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim < 2 or self.x.shape[:-1] != self.y.shape:
            raise ValueError("batch shapes disagree")
        if self.x.shape[-2] < 1:
            raise ValueError("batch must contain at least one example")


def init_params(spec: NetworkSpec, seed: int) -> np.ndarray:
    """Draw fresh flat parameters [n], deterministic in ``seed``.

    Kernels are zero-mean normal with variance 1/fan_in; biases are zero.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in spec.layer_dims():
        parts.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out)).ravel())
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def layer_views(spec: NetworkSpec, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(kernel [..., fan_in, fan_out], bias [..., fan_out]) views into a flat
    parameter array [..., n], one pair per dense layer."""
    off = spec.offsets()
    if flat.shape[-1] != off[-1]:
        raise ValueError(f"flat parameters have length {flat.shape[-1]}, expected {off[-1]}")
    lead = flat.shape[:-1]
    return [(flat[..., off[2 * i]:off[2 * i + 1]].reshape(*lead, fan_in, fan_out),
             flat[..., off[2 * i + 1]:off[2 * i + 2]])
            for i, (fan_in, fan_out) in enumerate(spec.layer_dims())]


def _forward_cached(spec: NetworkSpec, flat: np.ndarray, x: np.ndarray):
    """Forward pass keeping the activations for backprop. The bias and the
    ReLU are applied in place: an [R, n, width] activation is the largest
    array of a batched pass, and a ReLU output is positive exactly where
    its input is, so backprop needs no separate pre-activations."""
    if x.ndim < 2 or x.shape[-1] != spec.input_dim:
        raise ValueError(f"input has shape {x.shape}, expected [..., n, {spec.input_dim}]")
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
    network per leading index) and inputs x [n, input_dim] shared by every
    network, or x [..., n, input_dim] whose leading axes broadcast against
    the parameters'."""
    _, acts = _forward_cached(spec, flat, x)
    return acts[-1]


def _label_index(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Index of each example's label among logits [..., n, classes], for
    np.take_along_axis on the class axis: labels [n] shared by every leading
    index, or [..., n], gain leading unit axes and a trailing one."""
    y = np.asarray(y)
    if logits.shape[-2] != y.shape[-1]:
        raise ValueError("logits and labels disagree in length")
    return y.reshape((1,) * (logits.ndim - 1 - y.ndim) + y.shape + (1,))


def row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=-1) as a chain of np.maximum over the columns of a [..., m]:
    numpy reduces a short last axis one row at a time, and a maximum is
    exact in any order, so the chain has the reduction's bits."""
    m = a[..., 0]
    for i in range(1, a.shape[-1]):
        m = np.maximum(m, a[..., i])
    return m


def _cross_entropy_parts(logits: np.ndarray, label: np.ndarray):
    """(mean loss [...], exp [..., n, classes] of the max-shifted logits,
    their sums [..., n]): the softmax is exp / sums[..., None]."""
    # max-shifted log-sum-exp keeps large logits from overflowing
    shift = row_max(logits)
    with np.errstate(over="ignore", invalid="ignore"):
        exp = np.exp(logits - shift[..., None])
        total = exp.sum(axis=-1)
        lse = shift + np.log(total)
        loss = np.mean(lse - np.take_along_axis(logits, label, axis=-1)[..., 0], axis=-1)
    return loss, exp, total


def mean_cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean softmax cross-entropy over the examples of logits [..., n,
    classes], for labels y [n] or [..., n]."""
    return _cross_entropy_parts(logits, _label_index(logits, y))[0]


def loss_and_grad(spec: NetworkSpec, flat: np.ndarray,
                  batch: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy [...], its exact gradient [..., n_params]
    laid out like ``flat``, and the finite mask [...]: True where the loss
    and every gradient entry are finite. Callers treat a False entry as
    inner-loop divergence of that network. A batch with leading row axes
    broadcasts against the parameters' leading axes.
    """
    layers, acts = _forward_cached(spec, flat, batch.x)
    label = _label_index(acts[-1], batch.y)
    loss, delta, total = _cross_entropy_parts(acts[-1], label)
    grads: list[np.ndarray] = [None] * (2 * len(layers))  # type: ignore[list-item]
    # the activations and deltas are a pass's largest arrays: each is
    # dropped as soon as the pass is done with it
    acts.pop()  # the logits
    with np.errstate(over="ignore", invalid="ignore"):
        delta /= total[..., None]  # the softmax, in place
        # minus the one-hot labels: subtracting 0.0 keeps every other entry's bits
        delta -= label == np.arange(delta.shape[-1])
        delta /= batch.x.shape[-2]
        for layer in range(len(layers) - 1, -1, -1):
            inputs = acts.pop()
            grads[2 * layer] = inputs.swapaxes(-1, -2) @ delta
            grads[2 * layer + 1] = delta.sum(axis=-2)
            if layer > 0:
                inputs = inputs > 0  # keep the ReLU mask only: frees the activation
                delta = (delta @ layers[layer][0].swapaxes(-1, -2)) * inputs
    del inputs, delta
    lead = flat.shape[:-1]
    grad = np.concatenate([g.reshape(*lead, -1) for g in grads], axis=-1)
    return loss, grad, np.isfinite(loss) & np.isfinite(grad).all(axis=-1)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Fraction of the examples of logits [..., n, classes] whose argmax
    matches the label, for labels [n] or [..., n].

    np.argmax breaks ties toward the lowest class index.
    """
    labels = np.asarray(labels)
    if logits.shape[-2] != labels.shape[-1]:
        raise ValueError("logits and labels disagree in length")
    return np.mean(np.argmax(logits, axis=-1) == labels, axis=-1)
