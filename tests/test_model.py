import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bitsiege as bs
from bitsiege import model as model_module
from bitsiege.model import (CHUNK, ModelFormatError, Workspace, _conv2d, _conv_bwd, _maxpool,
                            _patches, filter_count, forward_layers, weight_shape)

from conftest import make_tiny_dense, stored_arrays


def test_dense_identity():
    model = make_tiny_dense(np.eye(3))
    x = np.array([0.5, -2.0, 3.0])
    assert np.array_equal(bs.forward_batch(model, x[None])[0], x)


def test_relu_clamps_negatives():
    arch = bs.Architecture((bs.ReLU(), bs.Dense(3, 3)), (3,), 3)
    model = bs.FloatModel(arch, [np.eye(3)], [np.zeros(3)])
    assert np.array_equal(bs.forward_batch(model, [[-1.0, 2.0, 0.0]])[0], [0.0, 2.0, 0.0])


def test_1x1_conv_scales_constant_image():
    arch = bs.Architecture((bs.Conv2D(1, 1, 1), bs.Flatten(), bs.Dense(4, 2)), (1, 2, 2), 2)
    model = bs.FloatModel(arch, [np.full((1, 1, 1, 1), 2.0), np.eye(2, 4)],
                          [np.zeros(1), np.zeros(2)])
    x = np.full((1, 2, 2), 3.0)
    logits = bs.forward_batch(model, x[None])[0]
    assert np.allclose(logits, [6.0, 6.0])


def test_forward_rejects_bad_shape():
    model = make_tiny_dense(np.eye(3))
    with pytest.raises(ValueError):
        bs.forward_batch(model, np.zeros((1, 4)))


def test_forward_pure():
    rng = np.random.default_rng(0)
    model = make_tiny_dense(rng.standard_normal((3, 3)))
    x = rng.standard_normal(3)
    a = bs.forward_batch(model, x[None])
    b = bs.forward_batch(model, x[None])
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        model.weights[0][0, 0] = 99.0  # frozen storage


def test_a_dataset_takes_a_frozen_fresh_array_without_a_copy():
    x = np.random.default_rng(0).standard_normal((3200, 1, 8, 8))  # 1.64 MB
    labels = np.arange(3200) % 4
    x.flags.writeable = labels.flags.writeable = False
    tracemalloc.start()
    try:
        ds = bs.Dataset(x, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.inputs is x and ds.labels is labels and peak < 64 * 1024


def test_a_dataset_copies_an_array_that_could_change_under_it():
    base = np.arange(24.0).reshape(6, 4)
    frozen_view = base[:3]
    frozen_view.flags.writeable = False
    strided = np.arange(48.0).reshape(6, 8)[:, ::2]
    strided.flags.writeable = False
    # writable; a read-only view of writable memory; not C-ordered; another dtype
    for x in (base.copy(), frozen_view, strided, np.ones((6, 4), dtype=np.float32)):
        ds = bs.Dataset(x, np.zeros(len(x), dtype=np.int64))
        assert not np.may_share_memory(ds.inputs, x) and np.array_equal(ds.inputs, x)
        assert not ds.inputs.flags.writeable and ds.inputs.flags.c_contiguous


def conv_output(cols, w, b, out_hw):
    """The (N, O, Ho, Wo) output that `forward_layers` makes of `_conv2d`'s product."""
    o = len(w)
    return _conv2d(cols, w.reshape(o, -1), b).reshape((o, -1) + out_hw).transpose(1, 0, 2, 3)


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
    got = conv_output(_patches(x[None], 3, 1, 0)[1], w, b, (3, 3))[0]
    assert np.allclose(got, ref, atol=1e-12)
    # and the composed forward sees the same feature map
    assert np.allclose(bs.forward_batch(model, x[None])[0, 0], ref.reshape(-1)[0])


def test_conv_stride_padding():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 1, 5, 5))
    w = rng.standard_normal((1, 1, 3, 3))
    out = conv_output(_patches(x, 3, 2, 1)[1], w, np.zeros(1), (3, 3))
    assert out.shape == (1, 1, 3, 3)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = sum(xp[0, 0, i:i + 5:2, j:j + 5:2] * w[0, 0, i, j] for i in range(3) for j in range(3))
    assert np.allclose(out[0, 0], ref)


def _conv_reference(x, w, b, stride, padding, dout):
    """Forward output and (dw, db, dx) by explicit loops over o, c, k1, k2, h, w."""
    n, c_in, _, _ = x.shape
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = dout.shape[2:]
    out = np.zeros((n, c_out, ho, wo))
    dw, dxp = np.zeros_like(w), np.zeros_like(xp)
    for o in range(c_out):
        for c in range(c_in):
            for k1 in range(k):
                for k2 in range(k):
                    for h in range(ho):
                        for wi in range(wo):
                            xv = xp[:, c, h * stride + k1, wi * stride + k2]
                            out[:, o, h, wi] += xv * w[o, c, k1, k2]
                            dw[o, c, k1, k2] += xv @ dout[:, o, h, wi]
                            dxp[:, c, h * stride + k1, wi * stride + k2] += \
                                w[o, c, k1, k2] * dout[:, o, h, wi]
    out += b[None, :, None, None]
    dx = dxp[:, :, padding:padding + x.shape[2], padding:padding + x.shape[3]]
    return out, dw, dout.sum(axis=(0, 2, 3)), dx


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), c_in=st.integers(1, 8), c_out=st.integers(1, 8),
       k=st.integers(1, 3), stride=st.integers(1, 2), padding=st.integers(0, 1),
       extra_h=st.integers(0, 3), extra_w=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(n=5, c_in=1, c_out=3, k=3, stride=1, padding=0, extra_h=0, extra_w=0, seed=0)  # 1x1 out
@example(n=7, c_in=4, c_out=2, k=1, stride=2, padding=1, extra_h=2, extra_w=1, seed=1)  # k = 1
@example(n=40, c_in=8, c_out=8, k=3, stride=2, padding=1, extra_h=3, extra_w=0, seed=2)
def test_conv_engine_matches_six_loop_reference(n, c_in, c_out, k, stride, padding,
                                                extra_h, extra_w, seed):
    # the smallest input that fits the kernel, plus extra rows/cols (strides may leave some unused)
    h, wd = max(1, k - 2 * padding) + extra_h, max(1, k - 2 * padding) + extra_w
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c_in, h, wd))
    w = rng.standard_normal((c_out, c_in, k, k))
    b = rng.standard_normal(c_out)
    dout = rng.standard_normal((n, c_out, ho, wo))
    ref_out, ref_dw, ref_db, ref_dx = _conv_reference(x, w, b, stride, padding, dout)

    cols = _patches(x, k, stride, padding)[1]
    assert cols.shape == (c_in * k * k, n * ho * wo)
    out = conv_output(cols, w, b, (ho, wo))
    assert out.shape == ref_out.shape
    assert np.allclose(out, ref_out, rtol=0, atol=1e-12)
    dw, db, dx = _conv_bwd(cols, w, stride, padding, x.shape, dout)
    assert dw.shape == w.shape and db.shape == b.shape and dx.shape == x.shape
    assert np.allclose(dw, ref_dw, rtol=0, atol=1e-12)
    assert np.allclose(db, ref_db, rtol=0, atol=1e-12)
    assert np.allclose(dx, ref_dx, rtol=0, atol=1e-12)


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
    preds = np.argmax(bs.forward_batch(desk["model"], desk["test"].inputs), axis=1)
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


# The documented layout, written out with `struct` rather than the codec under test:
# a magic line, UTF-8 header lines, "end-header", then little-endian records.
TINY_HEADER = (b"input_shape 1 3 3\nclasses 2\nlayer conv2d 1 1 2 1 0\nlayer flatten\n"
               b"layer dense 4 2\nend-header\n")


def qmodel_bytes(layers):
    """`.qmodel` bytes of TINY_HEADER's model; `layers`: (nq, scale, codes, bias) per layer."""
    out = b"bitsiege-qmodel-v1\n" + TINY_HEADER
    for nq, scale, codes, bias in layers:
        out += struct.pack("<Bd", nq, scale)
        out += struct.pack(f"<{len(codes)}b", *codes) + struct.pack(f"<{len(bias)}f", *bias)
    return out


TINY_QLAYERS = [(4, 0.25, [-8, 7, 0, -1], [0.75]),
                (8, 0.125, [-128, -30, 0, 1, 2, 30, 90, 127], [-0.5, 1.5])]


def test_artifact_bytes_follow_documented_layout(tmp_path):
    arch = bs.Architecture((bs.Conv2D(1, 1, 2), bs.Flatten(), bs.Dense(4, 2)), (1, 3, 3), 2)
    shapes = [(1, 1, 2, 2), (2, 4)]
    w0, b0 = np.reshape([0.5, -1.25, 2.0, 0.0], shapes[0]), np.array([0.75])
    w1, b1 = np.arange(-4, 4).reshape(shapes[1]) / 8, np.array([-0.5, 1.5])

    def tensor(a):  # .model record: <I ndim, <I per dim, then <f4 values
        return (struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
                + struct.pack(f"<{a.size}f", *a.ravel()))

    bs.save_model(bs.FloatModel(arch, [w0, w1], [b0, b1]), tmp_path / "t.model")
    assert (tmp_path / "t.model").read_bytes() == (
        b"bitsiege-model-v1\n" + TINY_HEADER + tensor(w0) + tensor(b0) + tensor(w1) + tensor(b1))

    q = bs.QuantModel(arch, [bs.QuantParams(nq, s) for nq, s, _, _ in TINY_QLAYERS],
                      [np.reshape(c, shape) for (_, _, c, _), shape in zip(TINY_QLAYERS, shapes)],
                      [b for *_, b in TINY_QLAYERS])
    bs.save_qmodel(q, tmp_path / "t.qmodel")
    assert (tmp_path / "t.qmodel").read_bytes() == qmodel_bytes(TINY_QLAYERS)

    bs.save_dataset(bs.Dataset(np.array([[[0.5, -2.0]], [[1.0, 3.25]]]), [1, 0]),
                    tmp_path / "t.data")
    assert (tmp_path / "t.data").read_bytes() == (
        b"bitsiege-data-v1\nshape 1 2\nclasses 2\nsamples 2\nend-header\n"
        + struct.pack("<4f", 0.5, -2.0, 1.0, 3.25) + bytes([1, 0]))


def test_save_model_refuses_weights_beyond_float32(tmp_path, desk):
    m = desk["model"]
    huge = bs.FloatModel(m.architecture, [w * 1e39 for w in m.weights], m.biases)
    with pytest.raises(ValueError, match="float32"):
        bs.save_model(huge, tmp_path / "huge.model")
    assert not (tmp_path / "huge.model").exists()


QMODEL = qmodel_bytes(TINY_QLAYERS)
(NQ, SCALE, CODES, BIAS), SECOND = TINY_QLAYERS
# No command reads a .qmodel, so its refusals are this table's rows: an edit of QMODEL,
# whose first layer's bitwidth is at byte 111, its scale at 112, its codes at 120 and its
# bias at 124, and the line or byte and the message that refuse it
QMODEL_REFUSALS = [pytest.param(blob, where, id=id) for id, blob, where in [
    ("relu-field", QMODEL.replace(b"layer flatten\n", b"layer flatten\nlayer relu 5\n"),
     "line 6: malformed line 'layer relu 5': unknown layer kind, or a wrong number of fields"),
    ("classes-twice", QMODEL.replace(b"layer flatten\n", b"layer flatten\nclasses 2\n"),
     "line 6: 'classes' already set on line 3"),
    ("negative-layer-field", QMODEL.replace(b"dense 4 2", b"dense 4 -2"),
     "line 6: malformed line 'layer dense 4 -2': negative value"),
    ("bitwidth-5", qmodel_bytes([(5, SCALE, CODES, BIAS), SECOND]),
     "byte 111: bitwidth must be one of (4, 6, 8)"),
    *[(f"scale-{scale}", qmodel_bytes([(NQ, scale, CODES, BIAS), SECOND]), where)
      for scale, where in [(0.0, "byte 112: scale must be finite and positive"),
                           (-0.25, "byte 112: scale must be finite and positive"),
                           (float("nan"), "byte 112: non-finite value in a float64 record")]],
    ("code-100", qmodel_bytes([(NQ, SCALE, [100] + CODES[1:], BIAS), SECOND]),
     "byte 120: code outside 4-bit range"),
    ("bias-inf", qmodel_bytes([(NQ, SCALE, CODES, [float("inf")]), SECOND]),
     "byte 124: non-finite value in a float32 record")]]


@pytest.mark.parametrize("blob, where", QMODEL_REFUSALS)
def test_qmodel_refusal(tmp_path, request, blob, where):
    # pytest would suffix a repeated id, and a row named elsewhere by its id be missed
    assert [row.id for row in QMODEL_REFUSALS].count(request.node.callspec.id) == 1
    path = tmp_path / "t.qmodel"
    path.write_bytes(blob)
    with pytest.raises(ModelFormatError) as e:
        bs.load_qmodel(path)
    assert str(e.value).startswith(f"{path} {where}"), e.value


@pytest.mark.parametrize("line, edit, where", [
    (b"classes 2\n", b"classes 2 7\n", "line 3: malformed line 'classes 2 7': takes 1 value(s), got 2"),
], ids=["model-classes-surplus"])
def test_header_fields_are_known_single_and_well_formed(tmp_path, line, edit, where):
    # load_model itself, not only the command that calls it, refuses the edit at its line
    arch = bs.Architecture((bs.Conv2D(1, 1, 2), bs.Flatten(), bs.Dense(4, 2)), (1, 3, 3), 2)
    path = tmp_path / "t.model"
    bs.save_model(bs.FloatModel(arch, [np.ones((1, 1, 2, 2)), np.ones((2, 4))],
                                [np.zeros(1), np.zeros(2)]), path)
    bs.load_model(path)
    blob = path.read_bytes()
    assert blob.count(line) == 1
    path.write_bytes(blob.replace(line, edit))
    with pytest.raises(ModelFormatError) as e:
        bs.load_model(path)
    assert str(e.value).startswith(f"{path} {where}"), e.value


def test_a_relu_after_flatten_is_a_valid_layer(tmp_path):
    path = tmp_path / "t.qmodel"
    path.write_bytes(QMODEL.replace(b"layer flatten\n", b"layer flatten\nlayer relu\n"))
    assert bs.load_qmodel(path).architecture.layers[1:3] == (bs.Flatten(), bs.ReLU())


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, desk):
    """A directory, and the valid bytes of one file per format with the loader that reads it."""
    d = tmp_path_factory.mktemp("artifacts")
    small = bs.Dataset(desk["test"].inputs[:4], desk["test"].labels[:4])
    trace = bs.run_attack(desk["qmodel"], 0.8, 0, bs.FL2R(), bs.ReconstructionMethod.CZR, 20,
                          desk["test"])
    formats = {
        "model": (lambda p: bs.save_model(desk["model"], p), bs.load_model),
        "qmodel4": (lambda p: bs.save_qmodel(bs.quantize_model(desk["model"], 4), p), bs.load_qmodel),
        "qmodel8": (lambda p: bs.save_qmodel(desk["qmodel"], p), bs.load_qmodel),
        "data": (lambda p: bs.save_dataset(small, p), bs.load_dataset),
        "trace": (lambda p: bs.save_trace(trace, p), bs.load_trace),
    }
    table = {}
    for name, (save, load) in formats.items():
        save(d / name)
        table[name] = ((d / name).read_bytes(), load)
    return d, table


@settings(max_examples=400, deadline=None)
@given(fmt=st.sampled_from(["model", "qmodel4", "qmodel8", "data", "trace"]), cut=st.booleans(),
       bit=st.integers(0, 7), data=st.data())
def test_loaders_survive_truncation_and_bit_flips(artifacts, fmt, cut, bit, data):
    d, table = artifacts
    blob, load = table[fmt]
    i = data.draw(st.integers(0, len(blob) - 1), label="offset")
    path = d / f"mutated.{fmt}"
    path.write_bytes(blob[:i] if cut else blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:])
    try:  # a mutated file either still loads or is refused with its location
        load(path)
    except ModelFormatError as e:
        assert re.match(rf"{re.escape(str(path))} (line|byte) \d+: ", str(e)), e


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
    # a restart pools one channel into the stored output
    again = _maxpool(x, w)
    again[...] = 0.0
    for ch in range(c):
        _maxpool(x[:, ch:ch + 1], w, again[:, ch:ch + 1])
    assert again.tobytes() == got.tobytes()


def test_forward_layers_restart_from_cache_is_exact(desk):
    model, xs = desk["model"], desk["test"].inputs
    arch = model.architecture
    weights = [w.copy() for w in model.weights]
    ws = Workspace(arch, weights, model.biases, xs)
    full = ws.acts[-1].copy()
    assert full.tobytes() == bs.forward_batch(model, xs).tobytes()
    for pos, layer in enumerate(arch.layers):  # a conv position stores its input's patch matrix
        if isinstance(layer, bs.Conv2D):
            c, (_, ho, wo) = arch.shapes[pos][0], arch.shapes[pos + 1]
            assert ws.input(pos).shape == (c * layer.kernel ** 2, len(xs) * ho * wo)
    data = [a.__array_interface__["data"][0] for a in ws.acts]
    for p in range(len(weights)):
        # a changed filter: the restart equals a fresh pass of the changed model
        weights[p][1].flat[0] += 0.5
        again = ws.restart(p, 1)
        assert again is ws.acts[-1]
        assert again.tobytes() == bs.forward_batch(
            bs.FloatModel(arch, weights, model.biases), xs).tobytes()
        weights[p][1].flat[0] -= 0.5
        # the same restart again allocates no activation: what is left is numpy's ufunc
        # scratch and one pooled channel (the first built its calls and the row-bias buffer)
        ws.restart(p, 1)
        tracemalloc.start()
        again = ws.restart(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.array_equal(again, full)
        assert peak < ws.acts[1].nbytes / 4  # the first conv's output: 460 KB
    # every restart rewrote the workspace's arrays in place
    assert [a.__array_interface__["data"][0] for a in ws.acts] == data


def test_every_filter_restarts_and_runs_read_biases_changed_in_place(desk):
    # a filter restart's Dense bias is fixed at its first call; every other re-run adds
    # the biases as they are now, so its calls may be built before they change
    model, xs = desk["model"], desk["test"].inputs
    arch = model.architecture
    biases = [b.copy() for b in model.biases]
    ws = Workspace(arch, model.weights, biases, xs.copy())
    data = [a.__array_interface__["data"][0] for a in stored_arrays(ws)]
    for p in range(len(biases)):
        ws.restart(p)
    ws.run(xs)
    biases[0][1] += 0.25   # conv1
    biases[-1][2] -= 0.5   # the Dense head
    want = forward_layers(arch, model.weights, biases, xs).tobytes()
    for p in range(len(biases)):
        assert ws.restart(p).tobytes() == want, p
    # a new batch of the same shape runs in place, to a fresh pass's bits
    other = desk["train"].inputs[:len(xs)]
    assert ws.run(other).tobytes() == forward_layers(arch, model.weights, biases, other).tobytes()
    assert [a.__array_interface__["data"][0] for a in stored_arrays(ws)] == data


def random_model(arch, rng):
    """A FloatModel of `arch` with standard normal weights and biases."""
    shapes = [weight_shape(l) for _, l in arch.parametric_layers()]
    return bs.FloatModel(arch, [rng.standard_normal(s) for s in shapes],
                         [rng.standard_normal(s[0]) for s in shapes])


@pytest.mark.parametrize("shape", [(1, 8, 8), (1, 16, 16)], ids=["1x8x8", "1x16x16"])
def test_forward_batch_gives_the_chunk_passes_stacked(shape):
    # two full chunks and a short one: a sample's logits are summed in its chunk's GEMMs,
    # which every scorer runs, whatever the set's length
    rng = np.random.default_rng(8)
    model = random_model(bs.desk_architecture(4, shape), rng)
    xs = rng.standard_normal((2 * CHUNK + 37, *shape))
    passes = [forward_layers(model.architecture, model.weights, model.biases, xs[i:i + CHUNK])
              for i in (0, CHUNK, 2 * CHUNK)]
    assert [len(p) for p in passes] == [CHUNK, CHUNK, 37]
    assert bs.forward_batch(model, xs).tobytes() == np.concatenate(passes).tobytes()


# convs of 3 and 5 filters, whose last rows are blocks of their own; the second is
# strided and padded, so that its patch matrix is a copy
ODD_FILTERS = bs.Architecture((bs.Conv2D(1, 3, 3, 1, 1), bs.ReLU(), bs.MaxPool(2),
                               bs.Conv2D(3, 5, 3, 2, 1), bs.ReLU(), bs.Flatten(),
                               bs.Dense(20, 3)), (1, 8, 8), 3)


@pytest.mark.parametrize("o, conv", [*[(o, "odd-conv2") for o in (1, 2, 3, 5, 8, 16)],
                                     (8, "desk-conv1"), (16, "desk-conv2")])
def test_conv2d_gives_each_row_block_the_bits_of_its_own_call(o, conv):
    # the one BLAS assumption left under restarts, checked on whatever BLAS is loaded: the
    # product of all o rows gives each fixed block (rows 2i and 2i + 1, or the last row
    # alone) the bits of `_conv2d` on that block's rows, run into them as a restart does.
    # The patch matrices are a pass's over a chunk: the desk victim's two, or ODD_FILTERS's
    # strided, padded conv2 with o filters
    arch = bs.desk_architecture(4, (1, 8, 8)) if conv.startswith("desk") else ODD_FILTERS
    rng = np.random.default_rng(o)
    model = random_model(arch, rng)
    ws = Workspace(arch, model.weights, model.biases, rng.standard_normal((CHUNK, 1, 8, 8)))
    cols = ws.patches[0 if conv == "desk-conv1" else 3][1]
    w, b = rng.standard_normal((o, len(cols))), rng.standard_normal(o)
    full = _conv2d(cols, w, b)
    for lo in range(0, o, 2):
        rows, out = slice(lo, lo + 2), full.copy()
        out[rows] = np.nan
        _conv2d(cols, w[rows], b[rows], out[rows])
        assert out.tobytes() == full.tobytes(), (o, conv, lo)


@pytest.mark.parametrize("odd", [False, True], ids=["block", "odd-block"])
def test_conv_restarts_of_every_filter_equal_a_fresh_pass(desk, monkeypatch, odd):
    model, xs = desk["model"], desk["test"].inputs
    if odd:
        model = random_model(ODD_FILTERS, np.random.default_rng(5))
    arch = model.architecture
    rows = []  # the rows of each GEMM a restart runs

    def counted(*args):
        out = _conv2d(*args)
        rows.append(len(out))
        return out
    weights = [w.copy() for w in model.weights]
    ws = Workspace(arch, weights, model.biases, xs)
    base = [a.tobytes() for a in stored_arrays(ws)]
    monkeypatch.setattr(model_module, "_conv2d", counted)
    for p, (pos, layer) in enumerate(arch.parametric_layers()):
        if not isinstance(layer, bs.Conv2D):
            continue
        for f in range(layer.c_out):
            kept = weights[p][f].flat[-1]
            weights[p][f].flat[-1] -= 0.25
            rows.clear()
            ws.restart(p, f)
            # f's block: two rows, or the last row of an odd count alone
            assert rows[0] == min(2, layer.c_out - f + f % 2)
            # every stored array equals a fresh pass's, the logits and the other row of
            # f's block included: a later restart reads that row as it is
            fresh = Workspace(arch, weights, model.biases, xs)
            assert [a.tobytes() for a in stored_arrays(ws)] == [
                a.tobytes() for a in stored_arrays(fresh)], (p, f)
            weights[p][f].flat[-1] = kept
            ws.restart(p, f)
            assert [a.tobytes() for a in stored_arrays(ws)] == base


@pytest.mark.parametrize("n", [1, 5])
def test_workspace_restore_returns_every_array_to_the_first_pass(n, monkeypatch):
    # padded convs after the first, one strided with a copied patch matrix and one 1x1
    # over a single channel whose patch matrix is a read-only view of its padded input
    arch = bs.Architecture((bs.Conv2D(1, 2, 3, 1, 1), bs.ReLU(), bs.MaxPool(2),
                            bs.Conv2D(2, 1, 3, 2, 1), bs.ReLU(), bs.Conv2D(1, 2, 1, 1, 1),
                            bs.Flatten(), bs.Dense(32, 3)), (1, 8, 8), 3)
    rng = np.random.default_rng(n)
    model = random_model(arch, rng)
    weights = [w.copy() for w in model.weights]
    ws = Workspace(arch, weights, model.biases, rng.standard_normal((n, 1, 8, 8)))
    arrays = stored_arrays(ws)
    before = [a.tobytes() for a in arrays]
    calls = []  # the names of the conv and pool calls made

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call
    for name in ("_conv2d", "_maxpool"):
        monkeypatch.setattr(model_module, name, counted(name, getattr(model_module, name)))
    for start in range(len(weights)):  # change and restart every filter from layer start on
        for w in weights[start:]:
            w += 1.0
        for p, (_, layer) in enumerate(arch.parametric_layers()):
            for f in range(filter_count(layer)):
                if p >= start:
                    ws.restart(p, f)
        assert [a.tobytes() for a in arrays] != before
        for w, orig in zip(weights, model.weights):
            np.copyto(w, orig)
        calls.clear()
        ws.restart(start)  # every filter of layer start, with the weights back
        assert [a.tobytes() for a in arrays] == before, start
        assert calls.count("_conv2d") == 3 - start and calls.count("_maxpool") == (start == 0)
