"""Layer graph description, float-precision CNN/MLP inference, and model/dataset files."""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MODEL_MAGIC = "bitsiege-model-v1"
DATA_MAGIC = "bitsiege-data-v1"
DATA_MAX_CLASSES = 256  # `.data` files store labels as uint8
_END_HEADER = b"end-header\n"


class ModelFormatError(Exception):
    """A model/dataset file could not be parsed; message carries the location."""


@dataclass(frozen=True)
class Conv2D:
    c_in: int
    c_out: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class MaxPool:
    window: int


@dataclass(frozen=True)
class Flatten:
    pass


def _layer_out_shape(layer, shape):
    """Shape of one layer's output given its input shape (no batch dim)."""
    if isinstance(layer, Conv2D):
        if len(shape) != 3 or shape[0] != layer.c_in:
            raise ValueError(f"conv2d expects ({layer.c_in},H,W) input, got {shape}")
        if min(layer.c_in, layer.c_out, layer.kernel, layer.stride) < 1 or layer.padding < 0:
            raise ValueError("conv2d dimensions must be positive")
        h = (shape[1] + 2 * layer.padding - layer.kernel) // layer.stride + 1
        w = (shape[2] + 2 * layer.padding - layer.kernel) // layer.stride + 1
        if h < 1 or w < 1:
            raise ValueError(f"conv2d kernel {layer.kernel} too large for input {shape}")
        return (layer.c_out, h, w)
    if isinstance(layer, Dense):
        if min(layer.in_features, layer.out_features) < 1:
            raise ValueError("dense dimensions must be positive")
        if shape != (layer.in_features,):
            raise ValueError(f"dense expects ({layer.in_features},) input, got {shape}")
        return (layer.out_features,)
    if isinstance(layer, ReLU):
        return shape
    if isinstance(layer, MaxPool):
        if len(shape) != 3:
            raise ValueError(f"maxpool expects (C,H,W) input, got {shape}")
        if layer.window < 1 or shape[1] % layer.window or shape[2] % layer.window:
            raise ValueError(f"maxpool window {layer.window} does not divide {shape}")
        return (shape[0], shape[1] // layer.window, shape[2] // layer.window)
    if isinstance(layer, Flatten):
        return (int(np.prod(shape)),)
    raise TypeError(f"unknown layer {layer!r}")


def weight_shape(layer):
    if isinstance(layer, Conv2D):
        return (layer.c_out, layer.c_in, layer.kernel, layer.kernel)
    if isinstance(layer, Dense):
        return (layer.out_features, layer.in_features)
    raise TypeError(f"{layer!r} has no weights")


def filter_count(layer):
    return layer.c_out if isinstance(layer, Conv2D) else layer.out_features


def filter_size(layer):
    """Elements per filter: C_in*K*K for conv, in_features for a dense row."""
    if isinstance(layer, Conv2D):
        return layer.c_in * layer.kernel * layer.kernel
    return layer.in_features


@dataclass(frozen=True)
class Architecture:
    layers: tuple
    input_shape: tuple
    num_classes: int
    # shapes[pos]: the input shape of layer `pos` (no batch dim); shapes[-1]: the logits
    shapes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        if any(d < 1 for d in self.input_shape):
            raise ValueError("input dimensions must be positive")
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(_layer_out_shape(layer, shapes[-1]))
        object.__setattr__(self, "shapes", tuple(shapes))
        if shapes[-1] != (self.num_classes,):
            raise ValueError(f"final output shape {shapes[-1]} != ({self.num_classes},)")
        if not self.parametric_layers():
            raise ValueError("architecture needs at least one parametric layer")

    def parametric_layers(self):
        """(position-in-network, layer) for every Conv2D/Dense, in order."""
        return [(i, l) for i, l in enumerate(self.layers) if isinstance(l, (Conv2D, Dense))]


def _frozen(a, dtype):
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FloatModel:
    architecture: Architecture
    weights: list = field(default_factory=list)  # per parametric layer
    biases: list = field(default_factory=list)

    def __post_init__(self):
        params = self.architecture.parametric_layers()
        if len(self.weights) != len(params) or len(self.biases) != len(params):
            raise ValueError("one weight tensor and one bias vector per parametric layer")
        ws, bs = [], []
        for (_, layer), w, b in zip(params, self.weights, self.biases):
            w = _frozen(w, np.float64)
            b = _frozen(b, np.float64)
            if w.shape != weight_shape(layer):
                raise ValueError(f"weight shape {w.shape} != {weight_shape(layer)}")
            if b.shape != (filter_count(layer),):
                raise ValueError(f"bias shape {b.shape} != ({filter_count(layer)},)")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("non-finite parameter")
            ws.append(w)
            bs.append(b)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (N, *input_shape)
    labels: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "inputs", _frozen(self.inputs, np.float64))
        object.__setattr__(self, "labels", _frozen(self.labels, np.int64))
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs/labels length mismatch")

    def __len__(self):
        return len(self.inputs)


def _patches(x, kernel, stride, padding):
    """Patch matrix (C*k*k, N*Ho*Wo) of the batch `x` (N, C, H, W): column (n, h, w)
    holds the k x k window of sample n under output pixel (h, w).

    A strided (C, k, k, N, Ho, Wo) view of the (padded) input, reshaped; numpy
    copies only where the reshape cannot be a view."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = x.shape
    ho, wo = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    win = np.lib.stride_tricks.as_strided(x, (c, kernel, kernel, n, ho, wo),
                                          (sc, sh, sw, sn, sh * stride, sw * stride),
                                          writeable=False)
    return win.reshape(c * kernel * kernel, n * ho * wo)


def _conv2d(cols, w, b, out_hw):
    """Convolution as one GEMM over the patch matrix `cols` of `_patches`:
    the (N, O, Ho, Wo) transpose of the (O, N*Ho*Wo) product, `out_hw` = (Ho, Wo)."""
    o = len(w)
    out = w.reshape(o, -1) @ cols + b[:, None]
    return out.reshape((o, -1) + out_hw).transpose(1, 0, 2, 3)


def _maxpool(x, w):
    """Non-overlapping w x w max pool: elementwise max over the w*w strided window offsets."""
    out = x[:, :, ::w, ::w].copy()
    for i in range(w):
        for j in range(w):
            if i or j:
                np.maximum(out, x[:, :, i::w, j::w], out=out)
    return out


def forward_layers(arch: Architecture, weights, biases, x, start=0, cache=None) -> np.ndarray:
    """Run `arch.layers[start:]` on the batch `x`, the input of layer `start`; returns logits.

    A Conv2D turns a 4-D input into its patch matrix (`_patches`) first, and also
    accepts that patch matrix as `x`. If `cache` is given (a dict keyed by layer
    position), the input of every layer that runs and has a key in it is stored
    under that key (a Conv2D's as its patch matrix), so a later call can restart
    from that position with the stored activation, or backprop through it.
    """
    p = sum(isinstance(l, (Conv2D, Dense)) for l in arch.layers[:start])
    for pos in range(start, len(arch.layers)):
        layer = arch.layers[pos]
        if isinstance(layer, Conv2D) and x.ndim == 4:
            x = _patches(x, layer.kernel, layer.stride, layer.padding)
        if cache is not None and pos in cache:
            cache[pos] = x
        if isinstance(layer, Conv2D):
            x = _conv2d(x, weights[p], biases[p], arch.shapes[pos + 1][1:])
            p += 1
        elif isinstance(layer, Dense):
            x = x @ weights[p].T + biases[p]
            p += 1
        elif isinstance(layer, ReLU):
            x = np.maximum(x, 0.0)
        elif isinstance(layer, MaxPool):
            x = _maxpool(x, layer.window)
        else:  # Flatten
            x = x.reshape(len(x), -1)
    return x


def _conv_bwd(cols, w, stride, padding, x_shape, dout):
    """(dw, db, dx) of `_conv2d` at the patch matrix `cols` of an input shaped
    `x_shape` (N, C, H, W), given the output gradient `dout` (N, O, Ho, Wo)."""
    n, c, h, wd = x_shape
    o, _, k, _ = w.shape
    ho, wo = dout.shape[2], dout.shape[3]
    d2 = dout.transpose(1, 0, 2, 3).reshape(o, -1)
    dw = (d2 @ cols.T).reshape(w.shape)
    dcols = (w.reshape(o, -1).T @ d2).reshape(c, k, k, n, ho, wo)
    dxp = np.zeros((c, n, h + 2 * padding, wd + 2 * padding))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, i, j]
    db = dout.sum(axis=(0, 2, 3))
    dx = dxp[:, :, padding:padding + h, padding:padding + wd].transpose(1, 0, 2, 3)
    return dw, db, dx


def _pool_bwd(x, w, dout):
    """Input gradient of `_maxpool` at `x`: each window's gradient goes to its first maximum."""
    n, c, h, wd = x.shape
    xr = x.reshape(n, c, h // w, w, wd // w, w).transpose(0, 1, 2, 4, 3, 5) \
          .reshape(n, c, h // w, wd // w, w * w)
    idx = xr.argmax(axis=-1)
    dxr = np.zeros((n, c, h // w, wd // w, w * w))
    np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
    return dxr.reshape(n, c, h // w, wd // w, w, w).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, wd)


def backward_layers(arch: Architecture, weights, cache, dlogits):
    """Backprop the loss gradient `dlogits` through every layer: (weight grads, bias grads).

    `cache` holds every layer's input (a Conv2D's as its patch matrix), as a
    `forward_layers` call from position 0 stores it."""
    dws, dbs = [None] * len(weights), [None] * len(weights)
    p = len(weights)
    d = dlogits
    for pos in reversed(range(len(arch.layers))):
        layer, x = arch.layers[pos], cache[pos]
        if isinstance(layer, Conv2D):
            p -= 1
            dws[p], dbs[p], d = _conv_bwd(x, weights[p], layer.stride, layer.padding,
                                          (len(d),) + arch.shapes[pos], d)
        elif isinstance(layer, Dense):
            p -= 1
            dws[p] = d.T @ x
            dbs[p] = d.sum(axis=0)
            d = d @ weights[p]
        elif isinstance(layer, ReLU):
            d = d * (x > 0)
        elif isinstance(layer, MaxPool):
            d = _pool_bwd(x, layer.window, d)
        else:  # Flatten
            d = d.reshape(x.shape)
    return dws, dbs


def forward_batch(model: FloatModel, xs, cache=None) -> np.ndarray:
    """Logits for a batch shaped (N, *input_shape); `cache` (a dict keyed by layer
    position) receives the input of each keyed layer, as in `forward_layers`."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.shape[1:] != model.architecture.input_shape:
        raise ValueError(f"input shape {xs.shape[1:]} != {model.architecture.input_shape}")
    return forward_layers(model.architecture, model.weights, model.biases, xs, 0, cache)


def forward(model: FloatModel, x) -> np.ndarray:
    """Logits for a single input."""
    return forward_batch(model, np.asarray(x, dtype=np.float64)[None])[0]


def accuracy(model: FloatModel, data: Dataset, cache=None) -> float:
    """Top-1 accuracy; argmax ties break to the lowest class index.

    `cache`: a dict keyed by layer position, filled as in `forward_layers`."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    return top1_accuracy(forward_batch(model, data.inputs, cache), data.labels)


def top1_accuracy(logits, labels) -> float:
    """Share of rows whose argmax (ties to the lowest class index) equals the label."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


# ---------------------------------------------------------------- file formats

_LAYER_NAMES = {Conv2D: "conv2d", Dense: "dense", ReLU: "relu", MaxPool: "maxpool", Flatten: "flatten"}


def arch_header_lines(arch: Architecture):
    lines = ["input_shape " + " ".join(str(d) for d in arch.input_shape),
             f"classes {arch.num_classes}"]
    for layer in arch.layers:
        name = _LAYER_NAMES[type(layer)]
        if isinstance(layer, Conv2D):
            lines.append(f"layer {name} {layer.c_in} {layer.c_out} {layer.kernel} {layer.stride} {layer.padding}")
        elif isinstance(layer, Dense):
            lines.append(f"layer {name} {layer.in_features} {layer.out_features}")
        elif isinstance(layer, MaxPool):
            lines.append(f"layer {name} {layer.window}")
        else:
            lines.append(f"layer {name}")
    return lines


def parse_arch_header(lines) -> Architecture:
    input_shape = None
    classes = None
    layers = []
    for i, line in enumerate(lines, start=2):  # header body starts at file line 2
        tok = line.split()
        try:
            if tok[0] == "input_shape":
                input_shape = tuple(int(t) for t in tok[1:])
            elif tok[0] == "classes":
                classes = int(tok[1])
            elif tok[0] == "layer":
                kind = tok[1]
                args = [int(t) for t in tok[2:]]
                if kind == "conv2d":
                    layers.append(Conv2D(*args))
                elif kind == "dense":
                    layers.append(Dense(*args))
                elif kind == "relu":
                    layers.append(ReLU())
                elif kind == "maxpool":
                    layers.append(MaxPool(*args))
                elif kind == "flatten":
                    layers.append(Flatten())
                else:
                    raise ModelFormatError(f"line {i}: unknown layer kind {kind!r}")
            else:
                raise ModelFormatError(f"line {i}: unknown header field {tok[0]!r}")
        except (ValueError, TypeError, IndexError) as e:
            raise ModelFormatError(f"line {i}: malformed header line {line!r}") from e
    if input_shape is None or classes is None:
        raise ModelFormatError("header missing input_shape or classes")
    try:
        return Architecture(tuple(layers), input_shape, classes)
    except ValueError as e:
        raise ModelFormatError(f"header: inconsistent architecture: {e}") from e


def _split_header(blob, path, magic):
    end = blob.find(_END_HEADER)
    if end < 0:
        raise ModelFormatError(f"{path}: missing end-header marker")
    try:
        lines = blob[:end].decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"{path} byte {e.start}: header is not UTF-8 text") from None
    if not lines or lines[0] != magic:
        raise ModelFormatError(f"{path} line 1: expected magic {magic!r}")
    return lines[1:], blob[end + len(_END_HEADER):]


def _pack_tensor(a, dtype):
    out = struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
    return out + np.ascontiguousarray(a, dtype=dtype).tobytes()


class _Reader:
    def __init__(self, buf, path):
        self.buf, self.pos, self.path = buf, 0, path

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise ModelFormatError(f"{self.path}: truncated payload at byte {self.pos}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def tensor(self, dtype, expect_shape=None):
        ndim, = struct.unpack("<I", self.take(4))
        shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        if expect_shape is not None and shape != expect_shape:
            raise ModelFormatError(f"{self.path} byte {self.pos}: tensor shape {shape} != expected {expect_shape}")
        n = int(np.prod(shape)) if shape else 1
        a = np.frombuffer(self.take(n * np.dtype(dtype).itemsize), dtype=dtype)
        return a.reshape(shape).astype(np.float64) if np.issubdtype(dtype, np.floating) else a.reshape(shape)

    def done(self):
        if self.pos != len(self.buf):
            raise ModelFormatError(f"{self.path}: {len(self.buf) - self.pos} trailing bytes")


def save_model(model: FloatModel, path):
    header = "\n".join([MODEL_MAGIC] + arch_header_lines(model.architecture)) + "\n"
    payload = b""
    for w, b in zip(model.weights, model.biases):
        payload += _pack_tensor(w, "<f4") + _pack_tensor(b, "<f4")
    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + _END_HEADER + payload)


def load_model(path) -> FloatModel:
    with open(path, "rb") as f:
        blob = f.read()
    lines, payload = _split_header(blob, path, MODEL_MAGIC)
    arch = parse_arch_header(lines)
    r = _Reader(payload, path)
    ws, bs = [], []
    for p, (_, layer) in enumerate(arch.parametric_layers()):
        start = r.pos
        ws.append(r.tensor("<f4", weight_shape(layer)))
        bs.append(r.tensor("<f4", (filter_count(layer),)))
        if not (np.isfinite(ws[-1]).all() and np.isfinite(bs[-1]).all()):
            raise ModelFormatError(f"{path} byte {start}: non-finite parameter in parametric layer {p}")
    r.done()
    return FloatModel(arch, ws, bs)


def save_dataset(data: Dataset, path):
    if len(data) and not 0 <= data.labels.min() <= data.labels.max() < DATA_MAX_CLASSES:
        raise ValueError(f"labels must be in [0, {DATA_MAX_CLASSES - 1}] to be stored as uint8")
    shape = data.inputs.shape[1:]
    classes = int(data.labels.max()) + 1 if len(data) else 0
    header = "\n".join([DATA_MAGIC,
                        "shape " + " ".join(str(d) for d in shape),
                        f"classes {classes}",
                        f"samples {len(data)}"]) + "\n"
    with open(path, "wb") as f:
        f.write(header.encode("utf-8") + _END_HEADER)
        f.write(np.ascontiguousarray(data.inputs, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(data.labels, dtype=np.uint8).tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        blob = f.read()
    lines, payload = _split_header(blob, path, DATA_MAGIC)
    fields = {}
    for i, line in enumerate(lines, start=2):
        tok = line.split()
        if not tok or tok[0] not in ("shape", "classes", "samples"):
            raise ModelFormatError(f"{path} line {i}: unknown field {line!r}")
        try:
            fields[tok[0]] = [int(t) for t in tok[1:]]
        except ValueError:
            raise ModelFormatError(f"{path} line {i}: malformed header line {line!r}") from None
    try:
        shape = tuple(fields["shape"])
        n = fields["samples"][0]
    except (KeyError, IndexError):
        raise ModelFormatError(f"{path}: header needs a 'shape' and a 'samples <n>' line") from None
    r = _Reader(payload, path)
    size = int(np.prod(shape))
    inputs = np.frombuffer(r.take(4 * n * size), dtype="<f4").reshape((n,) + shape)
    labels = np.frombuffer(r.take(n), dtype=np.uint8)
    r.done()
    return Dataset(inputs, labels)
