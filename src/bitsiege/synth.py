"""Desk-scale victims: synthetic prototype datasets, cross-entropy loss and a small SGD trainer."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Architecture, Conv2D, Dataset, Dense, Flatten, FloatModel, MaxPool, ReLU,
                    Workspace, backward_layers, filter_count, forward_layers, weight_shape)


class TrainingDiverged(Exception):
    """Loss, or a trained weight, became non-finite; message carries the epoch index."""


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 4
    per_class: int = 200       # training samples per class
    test_per_class: int = 50
    input_shape: tuple = (1, 8, 8)
    noise: float = 0.5
    seed: int = 7

    def __post_init__(self):
        if self.classes < 4 or self.per_class < 1 or self.test_per_class < 1:
            raise ValueError("need >= 4 classes and positive sample counts")
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr: float = 0.1
    batch_size: int = 32
    seed: int = 2

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs/batch_size must be positive")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def desk_architecture(classes: int, input_shape) -> Architecture:
    """The frozen desk victim: two small conv blocks feeding one dense head."""
    if len(input_shape) != 3:
        raise ValueError(f"the desk architecture needs a (C, H, W) input shape, got {input_shape}")
    c, h, w = input_shape
    h2, w2 = (h - 2) // 2 - 2, (w - 2) // 2 - 2
    return Architecture((Conv2D(c, 8, 3), ReLU(), MaxPool(2), Conv2D(8, 16, 3), ReLU(),
                         Flatten(), Dense(16 * h2 * w2, classes)), input_shape, classes)


def class_prototypes(spec: SynthSpec) -> np.ndarray:
    """Orthonormal-ish seeded patterns, one per class, scaled to unit per-pixel RMS."""
    dim = int(np.prod(spec.input_shape))
    if spec.classes > dim:
        raise ValueError("more classes than input dimensions")
    rng = np.random.default_rng(spec.seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, spec.classes)))
    return (q.T * np.sqrt(dim)).reshape((spec.classes,) + spec.input_shape)


def gen_synthetic(spec: SynthSpec):
    """(train, test) datasets: prototype + Gaussian noise, disjoint seeded draws. Raises
    ValueError if an input does not fit float32, as a `.data` file stores it."""
    protos = class_prototypes(spec)
    rng = np.random.default_rng(spec.seed + 1)

    def draw(per_class):
        labels = np.repeat(np.arange(spec.classes), per_class)
        # in place, one temporary fewer: addition commutes exactly, so the bits of
        # `protos[labels] + noise * spec.noise`
        x = rng.standard_normal((len(labels),) + spec.input_shape)
        x *= spec.noise
        x += protos[labels]
        with np.errstate(over="ignore"):  # the largest magnitude rounds to inf, or none does
            if not np.isfinite(np.float32(max(-x.min(), x.max()))):
                raise ValueError(f"noise {spec.noise!r} draws inputs beyond float32 range")
        x.flags.writeable = labels.flags.writeable = False  # handed to the Dataset uncopied
        return Dataset(x, labels)

    return draw(spec.per_class), draw(spec.test_per_class)


# ------------------------------------------------------------ loss and SGD

def _softmax_ce(logits, labels, out=None):
    """Mean cross-entropy and its gradient w.r.t. logits, written into `out`, an array of
    the logits' shape, if given (else a new one). The shifted logits are computed twice,
    before and after the exponentials' row sums, so that one array holds every step;
    `np.add.reduce(...) / n` gives `np.mean`'s bits."""
    n = len(labels)
    rows = np.arange(n)
    top = logits.max(axis=1, keepdims=True)
    out = np.subtract(logits, top, out=out)
    lse = np.add.reduce(np.exp(out, out=out), axis=1, keepdims=True)
    np.log(lse, out=lse)
    np.subtract(logits, top, out=out)
    out -= lse  # the log-probabilities
    loss = -float(np.add.reduce(out[rows, labels]) / n)
    np.exp(out, out=out)
    out[rows, labels] -= 1.0
    out /= n
    return loss, out


def backprop(ws: Workspace, labels):
    """(loss, weight grads, bias grads) of mean cross-entropy on `labels`, at the pass
    the Workspace `ws` holds: its constructor's, or one re-run in place after its
    weights changed (`Workspace.restart`), which has a fresh pass's bits. The backward
    reads the architecture and the weights from `ws` (`backward_layers`). The loss
    gradient goes into the Workspace's `dlogits`, once its first backward has made it;
    the gradients returned are the Workspace's own arrays, which its next backward
    rewrites, as `restart` does the logits."""
    loss, dlogits = _softmax_ce(ws.acts[-1], np.asarray(labels), ws.dlogits)
    dws, dbs = backward_layers(ws, dlogits)
    return loss, dws, dbs


def _grads(held, arch, weights, biases, inputs, labels):
    """`backprop` of the batch `inputs` through the Workspace that the dict `held` keeps
    for the batch's length: built there on the first batch of that length, which it then
    owns and overwrites, and re-run on each later one (`Workspace.run`) with the weights
    and biases as they are then."""
    ws = held.get(len(inputs))
    if ws is None:
        ws = held[len(inputs)] = Workspace(arch, weights, biases,
                                           np.asarray(inputs, dtype=np.float64))
    else:
        ws.run(inputs)
    return backprop(ws, labels)


def gradient(model: FloatModel, inputs, labels):
    """Backprop gradients of mean cross-entropy: (weight grads, bias grads)."""
    _, dws, dbs = _grads({}, model.architecture, model.weights, model.biases, inputs, labels)
    return dws, dbs


def batch_loss(model: FloatModel, inputs, labels) -> float:
    """Mean cross-entropy of `model` on the batch: one forward pass over the whole batch,
    not `forward_batch`'s chunks, as `backprop`'s is, and the loss, with the bits of
    `backprop`'s loss; no backward runs."""
    logits = forward_layers(model.architecture, model.weights, model.biases,
                            np.asarray(inputs, dtype=np.float64))
    return _softmax_ce(logits, np.asarray(labels))[0]


def train(architecture: Architecture, data: Dataset, cfg: TrainConfig,
          loss_log: list | None = None) -> FloatModel:
    """Plain minibatch SGD on cross-entropy; deterministic given cfg.seed.

    Each batch shape (the batch size, and a short last batch) has one Workspace for the
    call, and each step re-runs it in place on its batch (`_grads`); SGD updates in
    place the weight and bias arrays it reads, scaling the gradient arrays the step's
    backward wrote (`backprop`) in place. A step gives the bits of a fresh pass, a fresh
    backward and `w - lr * dw`."""
    rng = np.random.default_rng(cfg.seed)
    weights, biases = [], []
    for _, layer in architecture.parametric_layers():
        shape = weight_shape(layer)
        fan_in = int(np.prod(shape[1:]))
        weights.append(rng.standard_normal(shape) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(filter_count(layer)))
    n = len(data)
    held = {}  # batch length -> its Workspace, over `weights` and `biases`
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, dws, dbs = _grads(held, architecture, weights, biases,
                                    data.inputs[idx], data.labels[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss {loss} at epoch {epoch}")
            epoch_losses.append(loss)
            for w, b, dw, db in zip(weights, biases, dws, dbs):  # the step's own arrays
                dw *= cfg.lr
                w -= dw
                db *= cfg.lr
                b -= db
        if loss_log is not None:
            loss_log.append(float(np.mean(epoch_losses)))
    try:  # the last step's update, which no loss follows, may overflow a weight
        return FloatModel(architecture, weights, biases)
    except ValueError as e:
        raise TrainingDiverged(f"{e} at epoch {epoch}") from None
