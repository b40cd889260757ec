import tracemalloc

import numpy as np
import pytest

import bitsiege as bs
from bitsiege import synth
from bitsiege.model import CHUNK, Workspace, weight_shape
from bitsiege.synth import class_prototypes


def test_noise_free_samples_equal_prototypes():
    spec = bs.SynthSpec(per_class=3, test_per_class=2, noise=0.0)
    protos = class_prototypes(spec)
    train, test = bs.gen_synthetic(spec)
    for ds in (train, test):
        for x, y in zip(ds.inputs, ds.labels):
            assert np.array_equal(x, protos[y])


def test_nearest_prototype_perfect_at_zero_noise():
    spec = bs.SynthSpec(per_class=5, test_per_class=5, noise=0.0)
    protos = class_prototypes(spec).reshape(spec.classes, -1)
    _, test = bs.gen_synthetic(spec)
    flat = test.inputs.reshape(len(test), -1)
    dists = np.linalg.norm(flat[:, None, :] - protos[None], axis=2)
    assert np.array_equal(np.argmin(dists, axis=1), test.labels)


def two_temporary_draw(spec):
    """`gen_synthetic`'s draw with two temporaries, a scaled noise array and then
    `protos[labels] + noise`: the bytes the in-place draw must give."""
    protos = class_prototypes(spec)
    rng = np.random.default_rng(spec.seed + 1)

    def draw(per_class):
        labels = np.repeat(np.arange(spec.classes), per_class)
        noise = rng.standard_normal((len(labels),) + spec.input_shape) * spec.noise
        return bs.Dataset(protos[labels] + noise, labels)

    return draw(spec.per_class), draw(spec.test_per_class)


@pytest.mark.parametrize("noise", [0.0, 0.5])
@pytest.mark.parametrize("shape", [(1, 8, 8), (1, 16, 16)])
def test_in_place_draw_gives_the_two_temporary_draws_bytes(noise, shape):
    spec = bs.SynthSpec(input_shape=shape, noise=noise)
    for got, ref in zip(bs.gen_synthetic(spec), two_temporary_draw(spec)):
        assert got.inputs.tobytes() == ref.inputs.tobytes()
        assert got.labels.tobytes() == ref.labels.tobytes()


def test_gen_synthetic_hands_its_draws_to_the_datasets_uncopied(monkeypatch):
    handed = []

    def dataset(x, labels):
        handed.append((x, labels))
        return bs.Dataset(x, labels)
    monkeypatch.setattr(synth, "Dataset", dataset)
    sets = bs.gen_synthetic(bs.SynthSpec(per_class=5, test_per_class=3))
    assert len(handed) == len(sets) == 2
    assert all(d.inputs is x and d.labels is labels for d, (x, labels) in zip(sets, handed))


def test_prototypes_orthogonal():
    protos = class_prototypes(bs.SynthSpec()).reshape(4, -1)
    gram = protos @ protos.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-9


def test_generation_deterministic():
    a_train, a_test = bs.gen_synthetic(bs.SynthSpec(seed=3))
    b_train, b_test = bs.gen_synthetic(bs.SynthSpec(seed=3))
    assert np.array_equal(a_train.inputs, b_train.inputs)
    assert np.array_equal(a_test.inputs, b_test.inputs)
    c_train, _ = bs.gen_synthetic(bs.SynthSpec(seed=4))
    assert not np.array_equal(a_train.inputs, c_train.inputs)


def test_train_test_disjoint_draws():
    train, test = bs.gen_synthetic(bs.SynthSpec(per_class=5, test_per_class=5))
    flat_tr = {x.tobytes() for x in train.inputs}
    assert all(x.tobytes() not in flat_tr for x in test.inputs)


def test_training_deterministic():
    spec = bs.SynthSpec(per_class=10, test_per_class=2)
    train_ds, _ = bs.gen_synthetic(spec)
    cfg = bs.TrainConfig(epochs=2)
    arch = bs.desk_architecture(spec.classes, spec.input_shape)
    m1 = bs.train(arch, train_ds, cfg)
    m2 = bs.train(arch, train_ds, cfg)
    for a, b in zip(m1.weights, m2.weights):
        assert np.array_equal(a, b)


def reference_train(arch, data, cfg):
    """Minibatch SGD with a fresh Workspace per step and out-of-place updates: (weights,
    biases, loss log) with the bits `train` must give."""
    rng = np.random.default_rng(cfg.seed)
    weights, biases = [], []
    for _, layer in arch.parametric_layers():
        shape = weight_shape(layer)
        weights.append(rng.standard_normal(shape) * np.sqrt(2.0 / int(np.prod(shape[1:]))))
        biases.append(np.zeros(shape[0]))
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        epoch = []
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, dws, dbs = synth.backprop(Workspace(arch, weights, biases, data.inputs[idx]),
                                            data.labels[idx])
            epoch.append(loss)
            weights = [w - cfg.lr * dw for w, dw in zip(weights, dws)]
            biases = [b - cfg.lr * db for b, db in zip(biases, dbs)]
        losses.append(float(np.mean(epoch)))
    return weights, biases, losses


TRAIN_CASES = {
    # 800 samples, 25 full batches a step
    "desk": (bs.SynthSpec(), None, bs.TrainConfig()),
    # 180 samples: 5 batches of 32 and one of 20, two held shapes
    "16x16-short-last-batch": (bs.SynthSpec(per_class=45, input_shape=(1, 16, 16)), None,
                               bs.TrainConfig(epochs=3)),
    "padded-strided-first-conv": (
        bs.SynthSpec(per_class=25),
        bs.Architecture((bs.Conv2D(1, 4, 3, stride=2, padding=1), bs.ReLU(), bs.MaxPool(2),
                         bs.Conv2D(4, 6, 2), bs.ReLU(), bs.Flatten(), bs.Dense(6, 4)),
                        (1, 8, 8), 4),
        bs.TrainConfig(epochs=4)),
    # col2im through held buffers: the second conv, padded and strided, has an input
    # gradient; 100 samples, so a short last batch of 4 has a Workspace of its own
    "padded-strided-second-conv": (
        bs.SynthSpec(per_class=25),
        bs.Architecture((bs.Conv2D(1, 4, 3), bs.ReLU(), bs.MaxPool(2),
                         bs.Conv2D(4, 6, 3, stride=2, padding=1), bs.ReLU(), bs.Flatten(),
                         bs.Dense(24, 4)), (1, 8, 8), 4),
        bs.TrainConfig(epochs=4)),
    "mlp": (bs.SynthSpec(per_class=25),
            bs.Architecture((bs.Flatten(), bs.Dense(64, 16), bs.ReLU(), bs.Dense(16, 4)),
                            (1, 8, 8), 4),
            bs.TrainConfig(epochs=4)),
}


@pytest.mark.parametrize("case", list(TRAIN_CASES))
def test_training_through_held_passes_gives_a_fresh_pass_per_steps_bytes(case):
    spec, arch, cfg = TRAIN_CASES[case]
    arch = arch or bs.desk_architecture(spec.classes, spec.input_shape)
    data, _ = bs.gen_synthetic(spec)
    losses = []
    model = bs.train(arch, data, cfg, loss_log=losses)
    weights, biases, ref_losses = reference_train(arch, data, cfg)
    for got, want in zip(model.weights + model.biases, weights + biases):
        assert got.tobytes() == want.tobytes()
    assert losses == ref_losses


def test_a_second_backprop_rewrites_the_first_ones_arrays_and_makes_none(desk):
    model, test = desk["model"], desk["test"]
    xs, labels = test.inputs[:32].copy(), test.labels[:32]
    ws = Workspace(model.architecture, model.weights, model.biases, xs)
    _, dws, dbs = synth.backprop(ws, labels)
    dlogits, other = ws.dlogits, labels[::-1].copy()  # another loss gradient, same arrays
    tracemalloc.start()
    try:
        loss, again_dws, again_dbs = synth.backprop(ws, other)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(a is b for a, b in zip(again_dws + again_dbs, dws + dbs))
    assert ws.dlogits is dlogits
    fresh = synth.backprop(Workspace(model.architecture, model.weights, model.biases, xs), other)
    assert loss == fresh[0]
    assert [g.tobytes() for g in dws + dbs] == [g.tobytes() for g in fresh[1] + fresh[2]]
    # what is left is numpy's iterator scratch, ~39 kB, for the pool's ufuncs over strided
    # window views: two buffers of the pooled grid's 2304 entries. The first call's arrays
    # for conv1's output gradient and the pool's input gradient are 74 kB each.
    assert kept < 1024
    assert peak < 64 * 1024


def test_batch_loss_on_more_than_a_chunk_is_backprops_loss():
    # one pass over the whole batch, as backprop's, not forward_batch's chunks, whose
    # logits may differ in the last bits (on OpenBLAS 0.3.31's default x86 kernels they do)
    rng = np.random.default_rng(0)
    arch = bs.desk_architecture(4, (1, 16, 16))
    shapes = [weight_shape(l) for _, l in arch.parametric_layers()]
    model = bs.FloatModel(arch, [rng.standard_normal(s) * 0.3 for s in shapes],
                          [rng.standard_normal(s[0]) for s in shapes])
    n = 2 * CHUNK + 37
    xs, labels = rng.standard_normal((n, 1, 16, 16)), rng.integers(0, 4, n)
    ws = Workspace(arch, model.weights, model.biases, xs)
    assert synth.batch_loss(model, xs, labels) == synth.backprop(ws, labels)[0]


def test_loss_non_increasing_noise_free():
    spec = bs.SynthSpec(per_class=20, test_per_class=2, noise=0.0)
    train_ds, _ = bs.gen_synthetic(spec)
    losses = []
    bs.train(bs.desk_architecture(spec.classes, spec.input_shape), train_ds,
             bs.TrainConfig(epochs=8, lr=0.05), loss_log=losses)
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_desk_victim_reaches_target_accuracy(desk):
    assert bs.accuracy(desk["model"], desk["test"]) >= 0.90


def test_training_diverges_raises():
    # the stable log-sum-exp keeps moderate blow-ups finite, so the loss only
    # goes non-finite once the logits overflow float64
    spec = bs.SynthSpec(per_class=10, test_per_class=2)
    train_ds, _ = bs.gen_synthetic(spec)
    with pytest.raises(bs.TrainingDiverged), np.errstate(over="ignore", invalid="ignore"):
        bs.train(bs.desk_architecture(spec.classes, spec.input_shape), train_ds,
                 bs.TrainConfig(epochs=5, lr=1e120))


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        bs.SynthSpec(classes=2)
    with pytest.raises(ValueError):
        bs.SynthSpec(noise=-0.1)
    with pytest.raises(ValueError):
        bs.TrainConfig(lr=0.0)
    for bad in (dict(noise=float("nan")), dict(noise=float("inf")), dict(seed=-1)):
        with pytest.raises(ValueError):
            bs.SynthSpec(**bad)
    for bad in (dict(lr=float("nan")), dict(lr=float("inf")), dict(seed=-1)):
        with pytest.raises(ValueError):
            bs.TrainConfig(**bad)
    with pytest.raises(ValueError):
        bs.desk_architecture(4, (8, 8))
