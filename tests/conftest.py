import math

import numpy as np
import pytest
from hypothesis import assume, strategies as st

import bitsiege as bs
from bitsiege import attack, model


@pytest.fixture(scope="session")
def desk():
    """Frozen desk victim: synthetic data, trained float model, 8-bit quant model."""
    spec = bs.SynthSpec()
    train_ds, test_ds = bs.gen_synthetic(spec)
    model = bs.train(bs.desk_architecture(spec.classes, spec.input_shape), train_ds, bs.TrainConfig())
    return {"spec": spec, "train": train_ds, "test": test_ds, "model": model,
            "qmodel": bs.quantize_model(model, 8)}


@pytest.fixture()
def tiny_arch():
    return bs.Architecture((bs.Dense(3, 3),), (3,), 3)


def make_tiny_dense(weights, biases=None):
    """Single dense-layer model from a 2-D weight matrix."""
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(w.shape[0]) if biases is None else np.asarray(biases, dtype=np.float64)
    arch = bs.Architecture((bs.Dense(w.shape[1], w.shape[0]),), (w.shape[1],), w.shape[0])
    return bs.FloatModel(arch, [w], [b])


def random_qmodel(rng, nq=8, arch=None):
    """Small random quantized model for fuzzing, by default conv -> ReLU -> dense."""
    arch = arch or bs.Architecture(
        (bs.Conv2D(1, 2, 3), bs.ReLU(), bs.Flatten(), bs.Dense(2 * 4 * 4, 3)), (1, 6, 6), 3)
    lo, hi = -(1 << (nq - 1)), (1 << (nq - 1)) - 1
    params, codes, biases = [], [], []
    from bitsiege.model import weight_shape, filter_count
    for _, layer in arch.parametric_layers():
        params.append(bs.QuantParams(nq, float(rng.uniform(0.005, 0.05))))
        codes.append(rng.integers(lo, hi + 1, size=weight_shape(layer), dtype=np.int64).astype(np.int16))
        biases.append(rng.standard_normal(filter_count(layer)) * 0.1)
    return bs.QuantModel(arch, params, codes, biases)


def stored_arrays(ws):
    """Every array a Workspace holds: its activations, then each conv's padded input
    and patch matrix."""
    return ws.acts + [a for pair in ws.patches if pair is not None for a in pair]


@pytest.fixture()
def no_held_pass(monkeypatch):
    """This thread holds no pass of `attack`'s during the test; the ones from before are
    back afterwards."""
    for slot in ("victim_pass", "batch_pass"):
        monkeypatch.setattr(attack._held, slot, None, raising=False)


def draw_architecture(data):
    """conv -> ReLU -> MaxPool -> conv, conv -> MaxPool -> conv (a pool with no ReLU under
    it), conv -> conv with no pool, or conv alone, under a head of Flatten -> Dense,
    Flatten -> ReLU -> Dense, or Flatten -> Dense -> ReLU -> Dense (a hidden dense layer);
    conv stride 1-2, padding 0-1, pool window 1-3."""
    kind = data.draw(st.sampled_from(["conv-relu-pool-conv", "conv-pool-conv", "conv-conv",
                                      "conv"]))
    head = data.draw(st.sampled_from(["dense", "relu-dense", "hidden-dense"]))
    c_in = data.draw(st.integers(1, 2))
    size = data.draw(st.integers(3, 9))

    def conv(c):
        return bs.Conv2D(c, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)),
                         data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1)))

    first = conv(c_in)
    if kind == "conv-relu-pool-conv":
        body = [first, bs.ReLU(), bs.MaxPool(data.draw(st.integers(1, 3))), conv(first.c_out),
                bs.ReLU()]
    elif kind == "conv-pool-conv":
        body = [first, bs.MaxPool(data.draw(st.integers(1, 3))), conv(first.c_out)]
    elif kind == "conv-conv":
        body = [first, conv(first.c_out)]
    else:
        body = [first]
    shape = (c_in, size, size)
    try:
        for layer in body:
            shape = model._layer_out_shape(layer, shape)
    except ValueError:  # a kernel or pool window that does not fit
        assume(False)
    classes, features = data.draw(st.integers(2, 4)), math.prod(shape)
    if head == "dense":
        head = [bs.Flatten(), bs.Dense(features, classes)]
    elif head == "relu-dense":
        head = [bs.Flatten(), bs.ReLU(), bs.Dense(features, classes)]
    else:
        hidden = data.draw(st.integers(1, 6))
        head = [bs.Flatten(), bs.Dense(features, hidden), bs.ReLU(), bs.Dense(hidden, classes)]
    return bs.Architecture(tuple(body + head), (c_in, size, size), classes)
