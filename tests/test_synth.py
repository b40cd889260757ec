import numpy as np
import pytest

import bitsiege as bs
from bitsiege.synth import batch_loss, class_prototypes


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


def test_loss_non_increasing_noise_free():
    spec = bs.SynthSpec(per_class=20, test_per_class=2, noise=0.0)
    train_ds, _ = bs.gen_synthetic(spec)
    losses = []
    bs.train(bs.desk_architecture(spec.classes, spec.input_shape), train_ds,
             bs.TrainConfig(epochs=8, lr=0.05), loss_log=losses)
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_desk_victim_reaches_target_accuracy(desk):
    assert bs.accuracy(desk["model"], desk["test"]) >= 0.90


@pytest.mark.parametrize("layer_set", ["conv", "dense", "strided-padded-conv"])
def test_gradient_matches_finite_differences(layer_set):
    rng = np.random.default_rng(0)
    if layer_set == "conv":
        arch = bs.Architecture((bs.Conv2D(1, 2, 3), bs.ReLU(), bs.MaxPool(2),
                                bs.Flatten(), bs.Dense(2, 3)), (1, 4, 4), 3)
    elif layer_set == "strided-padded-conv":
        arch = bs.Architecture((bs.Conv2D(1, 2, 3, stride=2, padding=1), bs.ReLU(), bs.MaxPool(2),
                                bs.Flatten(), bs.Dense(8, 3)), (1, 8, 8), 3)
    else:
        arch = bs.Architecture((bs.Flatten(), bs.Dense(16, 5), bs.ReLU(), bs.Dense(5, 3)),
                               (1, 4, 4), 3)
    from bitsiege.model import weight_shape, filter_count
    ws = [rng.standard_normal(weight_shape(l)) * 0.5 for _, l in arch.parametric_layers()]
    bsz = [rng.standard_normal(filter_count(l)) * 0.1 for _, l in arch.parametric_layers()]
    model = bs.FloatModel(arch, ws, bsz)
    inputs = rng.standard_normal((4,) + arch.input_shape)
    labels = np.array([0, 1, 2, 0])
    dws, dbs = bs.gradient(model, inputs, labels)
    step = 1e-3
    for p in range(len(ws)):
        for arrs, grads in ((ws, dws), (bsz, dbs)):
            flat = arrs[p].reshape(-1)
            for i in range(flat.size):
                def loss_at(v):
                    mod = [a.copy() for a in arrs]
                    mod[p] = mod[p].copy()
                    mod[p].reshape(-1)[i] = v
                    w2 = mod if arrs is ws else ws
                    b2 = mod if arrs is bsz else bsz
                    return batch_loss(bs.FloatModel(arch, w2, b2), inputs, labels)
                fd = (loss_at(flat[i] + step) - loss_at(flat[i] - step)) / (2 * step)
                g = grads[p].reshape(-1)[i]
                assert abs(g - fd) <= 1e-4 * max(1.0, abs(fd)), (p, i, g, fd)


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
