import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitsiege as bs
from bitsiege.model import ModelFormatError, _maxpool, forward_layers

from conftest import make_tiny_dense


def test_dense_identity():
    model = make_tiny_dense(np.eye(3))
    x = np.array([0.5, -2.0, 3.0])
    assert np.array_equal(bs.forward(model, x), x)


def test_relu_clamps_negatives():
    arch = bs.Architecture((bs.ReLU(), bs.Dense(3, 3)), (3,), 3)
    model = bs.FloatModel(arch, [np.eye(3)], [np.zeros(3)])
    assert np.array_equal(bs.forward(model, [-1.0, 2.0, 0.0]), [0.0, 2.0, 0.0])


def test_1x1_conv_scales_constant_image():
    arch = bs.Architecture((bs.Conv2D(1, 1, 1), bs.Flatten(), bs.Dense(4, 2)), (1, 2, 2), 2)
    model = bs.FloatModel(arch, [np.full((1, 1, 1, 1), 2.0), np.eye(2, 4)],
                          [np.zeros(1), np.zeros(2)])
    x = np.full((1, 2, 2), 3.0)
    logits = bs.forward(model, x)
    assert np.allclose(logits, [6.0, 6.0])


def test_forward_rejects_bad_shape():
    model = make_tiny_dense(np.eye(3))
    with pytest.raises(ValueError):
        bs.forward(model, np.zeros(4))


def test_forward_pure():
    rng = np.random.default_rng(0)
    model = make_tiny_dense(rng.standard_normal((3, 3)))
    x = rng.standard_normal(3)
    a = bs.forward(model, x)
    b = bs.forward(model, x)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        model.weights[0][0, 0] = 99.0  # frozen storage


def test_conv_matches_six_loop_reference():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    arch = bs.Architecture((bs.Conv2D(2, 3, 3), bs.Flatten(), bs.Dense(27, 2)), (2, 5, 5), 2)
    model = bs.FloatModel(arch, [w, np.eye(2, 27)], [b, np.zeros(2)])

    ref = np.zeros((3, 3, 3))
    for o in range(3):
        for h in range(3):
            for wi in range(3):
                for c in range(2):
                    for k1 in range(3):
                        for k2 in range(3):
                            ref[o, h, wi] += x[c, h + k1, wi + k2] * w[o, c, k1, k2]
                ref[o, h, wi] += b[o]
    from bitsiege.model import _conv2d
    got = _conv2d(x[None], w, b, 1, 0)[0]
    assert np.allclose(got, ref, atol=1e-12)
    # and the composed forward sees the same feature map
    assert np.allclose(bs.forward(model, x)[0], ref.reshape(-1)[0])


def test_conv_stride_padding():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 1, 5, 5))
    w = rng.standard_normal((1, 1, 3, 3))
    from bitsiege.model import _conv2d
    out = _conv2d(x, w, np.zeros(1), 2, 1)
    assert out.shape == (1, 1, 3, 3)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = sum(xp[0, 0, i:i + 5:2, j:j + 5:2] * w[0, 0, i, j] for i in range(3) for j in range(3))
    assert np.allclose(out[0, 0], ref)


def always_first_class_model():
    w = np.zeros((2, 3))
    return make_tiny_dense(w, biases=[1.0, 0.0])


def test_accuracy_all_correct():
    model = always_first_class_model()
    data = bs.Dataset(np.zeros((4, 3)), np.zeros(4, dtype=int))
    assert bs.accuracy(model, data) == 1.0


def test_accuracy_all_wrong():
    model = always_first_class_model()
    data = bs.Dataset(np.zeros((4, 3)), np.ones(4, dtype=int))
    assert bs.accuracy(model, data) == 0.0


def test_accuracy_half():
    # hand count on a 4-sample fixture: labels 0,0,1,1 against constant class-0 output
    model = always_first_class_model()
    data = bs.Dataset(np.zeros((4, 3)), np.array([0, 0, 1, 1]))
    assert bs.accuracy(model, data) == 0.5


def test_accuracy_argmax_tie_breaks_low():
    model = make_tiny_dense(np.zeros((3, 3)))  # all logits equal
    data = bs.Dataset(np.zeros((2, 3)), np.array([0, 1]))
    assert bs.accuracy(model, data) == 0.5


def test_accuracy_empty_dataset_rejected():
    with pytest.raises(ValueError):
        bs.accuracy(make_tiny_dense(np.eye(3)), bs.Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int)))


def test_accuracy_on_own_argmax_labels(desk):
    from bitsiege.model import forward_batch
    preds = np.argmax(forward_batch(desk["model"], desk["test"].inputs), axis=1)
    relabeled = bs.Dataset(desk["test"].inputs, preds)
    assert bs.accuracy(desk["model"], relabeled) == 1.0


def test_architecture_rejects_mismatched_layers():
    with pytest.raises(ValueError):
        bs.Architecture((bs.Dense(3, 2), bs.Dense(3, 3)), (3,), 3)
    with pytest.raises(ValueError):
        bs.Architecture((bs.ReLU(),), (3,), 3)  # no parametric layer


def test_model_roundtrip_byte_identical(tmp_path, desk):
    p1 = tmp_path / "a.model"
    p2 = tmp_path / "b.model"
    bs.save_model(desk["model"], p1)
    loaded = bs.load_model(p1)
    bs.save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    again = bs.load_model(p2)
    for a, b in zip(loaded.weights, again.weights):
        assert np.array_equal(a, b)


def test_load_model_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"not a model\n")
    with pytest.raises(ModelFormatError):
        bs.load_model(bad)
    bad.write_bytes(b"bitsiege-model-v1\nlayer dense 3 3\nend-header\n")
    with pytest.raises(ModelFormatError):
        bs.load_model(bad)
    bad.write_bytes(b"bitsiege-model-v1\nclasses \xff\nend-header\n")
    with pytest.raises(ModelFormatError, match="UTF-8"):
        bs.load_model(bad)
    bad_data = tmp_path / "bad.data"
    bad_data.write_bytes(b"bitsiege-data-v1\nshape 1 x 8\nclasses 4\nsamples 0\nend-header\n")
    with pytest.raises(ModelFormatError, match="line 2"):
        bs.load_dataset(bad_data)


def test_load_model_truncated_payload(tmp_path, desk):
    p = tmp_path / "v.model"
    bs.save_model(desk["model"], p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(ModelFormatError):
        bs.load_model(p)


def test_dataset_roundtrip(tmp_path, desk):
    p = tmp_path / "d.data"
    bs.save_dataset(desk["test"], p)
    loaded = bs.load_dataset(p)
    assert np.array_equal(loaded.labels, desk["test"].labels)
    assert np.allclose(loaded.inputs, desk["test"].inputs, atol=1e-6)
    p2 = tmp_path / "d2.data"
    bs.save_dataset(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("label", [-1, 256])
def test_save_dataset_rejects_labels_beyond_uint8(tmp_path, label):
    p = tmp_path / "d.data"
    with pytest.raises(ValueError, match="uint8"):
        bs.save_dataset(bs.Dataset(np.zeros((2, 3)), [0, label]), p)
    assert not p.exists()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 4), oh=st.integers(1, 5), ow=st.integers(1, 5),
       w=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_maxpool_equals_reshape_max(n, c, oh, ow, w, seed):
    # small integer values make ties inside a window common
    x = np.random.default_rng(seed).integers(-3, 4, size=(n, c, oh * w, ow * w)).astype(np.float64)
    ref = x.reshape(n, c, oh, w, ow, w).max(axis=(3, 5))
    got = _maxpool(x, w)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


def test_forward_layers_restart_from_cache_is_exact(desk):
    model, xs = desk["model"], desk["test"].inputs
    arch = model.architecture
    positions = range(len(arch.layers))
    cache = dict.fromkeys(positions)
    full = bs.forward_batch(model, xs, cache)
    for pos in positions:
        again = forward_layers(arch, model.weights, model.biases, cache[pos], pos)
        assert np.array_equal(again, full)
    parametric = {pos for pos, _ in arch.parametric_layers()}
    keyed = dict.fromkeys(parametric)
    bs.forward_batch(model, xs, keyed)  # stores only the keyed positions
    assert keyed.keys() == parametric
    assert all(np.array_equal(keyed[pos], cache[pos]) for pos in parametric)
