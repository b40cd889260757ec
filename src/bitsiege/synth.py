"""Desk-scale victims: synthetic prototype datasets, cross-entropy loss and a small SGD trainer."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Architecture, Conv2D, Dataset, Dense, Flatten, FloatModel, MaxPool, ReLU,
                    Workspace, backward_layers, filter_count, forward_layers, weight_shape)


class TrainingDiverged(Exception):
    """Loss became non-finite; message carries the epoch index."""


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
    """(train, test) datasets: prototype + Gaussian noise, disjoint seeded draws."""
    protos = class_prototypes(spec)
    rng = np.random.default_rng(spec.seed + 1)

    def draw(per_class):
        labels = np.repeat(np.arange(spec.classes), per_class)
        # in place, one temporary fewer: addition commutes exactly, so the bits of
        # `protos[labels] + noise * spec.noise`
        x = rng.standard_normal((len(labels),) + spec.input_shape)
        x *= spec.noise
        x += protos[labels]
        return Dataset(x, labels)

    return draw(spec.per_class), draw(spec.test_per_class)


# ------------------------------------------------------------ loss and SGD

def _softmax_ce(logits, labels):
    """Mean cross-entropy and its gradient w.r.t. logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(labels)
    loss = -float(logp[np.arange(n), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _grads(arch, weights, biases, inputs, labels):
    ws = Workspace(arch, weights, biases)
    logits = forward_layers(arch, weights, biases, np.asarray(inputs, dtype=np.float64), ws)
    loss, dlogits = _softmax_ce(logits, np.asarray(labels))
    dws, dbs = backward_layers(arch, weights, ws, dlogits)
    return loss, dws, dbs


def gradient(model: FloatModel, inputs, labels):
    """Backprop gradients of mean cross-entropy: (weight grads, bias grads)."""
    _, dws, dbs = _grads(model.architecture, model.weights, model.biases, inputs, labels)
    return dws, dbs


def batch_loss(model: FloatModel, inputs, labels) -> float:
    loss, _, _ = _grads(model.architecture, model.weights, model.biases, inputs, labels)
    return loss


def train(architecture: Architecture, data: Dataset, cfg: TrainConfig,
          loss_log: list | None = None) -> FloatModel:
    """Plain minibatch SGD on cross-entropy; deterministic given cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    weights, biases = [], []
    for _, layer in architecture.parametric_layers():
        shape = weight_shape(layer)
        fan_in = int(np.prod(shape[1:]))
        weights.append(rng.standard_normal(shape) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(filter_count(layer)))
    n = len(data)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, dws, dbs = _grads(architecture, weights, biases,
                                    data.inputs[idx], data.labels[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss {loss} at epoch {epoch}")
            epoch_losses.append(loss)
            for p in range(len(weights)):
                weights[p] = weights[p] - cfg.lr * dws[p]
                biases[p] = biases[p] - cfg.lr * dbs[p]
        if loss_log is not None:
            loss_log.append(float(np.mean(epoch_losses)))
    return FloatModel(architecture, weights, biases)
