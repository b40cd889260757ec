"""Layer graph description, float-precision CNN/MLP inference, and model/dataset files."""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import partial

import numpy as np

MODEL_MAGIC = "bitsiege-model-v1"
DATA_MAGIC = "bitsiege-data-v1"
DATA_MAX_CLASSES = 256  # `.data` files store labels as uint8


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


def bias_shape(layer):
    return weight_shape(layer)[:1]


def filter_count(layer):
    return weight_shape(layer)[0]


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


def frozen_array(a, dtype, what):
    """A read-only, C-ordered copy of `a` as `dtype`; raises ValueError naming `what` if
    the cast changes a value (wraps an integer, drops a fraction). NaN stays NaN. An
    array that is all of these already and owns its data is returned as it is: no view
    of other memory can reach it (a caller freezes a fresh array to hand it over)."""
    a = np.asarray(a)
    if (a.dtype == dtype and a.flags.c_contiguous and a.flags.owndata
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=dtype, order="C", copy=True)
    if out.dtype != a.dtype and not np.array_equal(out, a, equal_nan=True):
        raise ValueError(f"{what}: values that do not fit {out.dtype.name}")
    out.flags.writeable = False
    return out


def layer_arrays(arch: Architecture, arrays, dtype, shape_of):
    """Read-only `dtype` copies (`frozen_array`) of `arrays`, which must hold one array
    per parametric layer of `arch`, of `shape_of(layer)`; raises ValueError otherwise."""
    layers = [layer for _, layer in arch.parametric_layers()]
    if len(arrays) != len(layers):
        raise ValueError(f"{len(arrays)} arrays for {len(layers)} parametric layers")
    out = [frozen_array(a, dtype, f"parametric layer {p}") for p, a in enumerate(arrays)]
    for p, (layer, a) in enumerate(zip(layers, out)):
        if a.shape != shape_of(layer):
            raise ValueError(f"parametric layer {p}: shape {a.shape} != {shape_of(layer)}")
    return out


@dataclass(frozen=True)
class FloatModel:
    architecture: Architecture
    weights: list = field(default_factory=list)  # per parametric layer
    biases: list = field(default_factory=list)

    def __post_init__(self):
        ws = layer_arrays(self.architecture, self.weights, np.float64, weight_shape)
        bs = layer_arrays(self.architecture, self.biases, np.float64, bias_shape)
        if not all(np.isfinite(a).all() for a in ws + bs):
            raise ValueError("non-finite parameter")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (N, *input_shape)
    labels: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "inputs", frozen_array(self.inputs, np.float64, "inputs"))
        object.__setattr__(self, "labels", frozen_array(self.labels, np.int64, "labels"))
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs/labels length mismatch")

    def __len__(self):
        return len(self.inputs)


class Workspace:
    """The arrays of the batch `x`'s pass through `forward_layers`, which the constructor
    runs, and the re-runs that rewrite them in place: after a filter of its weights
    changed (`restart`), or on a new batch of x's shape (`run`).

    `acts[pos]` is the input of layer `pos` as the layer before returned it (`acts[0]`
    the batch, `acts[-1]` the logits); `patches[pos]` is a Conv2D's [padded input,
    patch matrix]. The pass fills them with the arrays the layers return, so every
    re-run writes into the memory layout a fresh pass gives its result, and the GEMMs
    take the same BLAS path. A workspace belongs to one caller, which keeps the record
    of what it restarted (`attack._FlipPass`); the workspace keeps none.

    `weights` and `biases`, one array per parametric layer, equal those of the pass;
    re-runs and `backward_layers` read them as the caller then changes them in place,
    but for the Dense biases of a filter restart, which are fixed at its first call.
    `restart(p, f)` re-runs the network after filter f of parametric layer p changed,
    with only the numpy calls whose outputs change; `restart(p)` re-runs every filter
    of p, and so gives back the first pass once the caller has put the weights back, or
    another model's pass once it has copied that model's weights in. Those calls are
    built once per (p, f), on its first restart, over the arrays they write in their
    final form: a conv's (O, N*Ho*Wo) product, its weight matrix, a Dense's `W.T`; so a
    re-run does no layer dispatch, reshape or index arithmetic. Each call writes a
    stored array, or rows of one; a conv's is the same `_conv2d` call as the first
    pass's, on a block of rows or on all of them.

    The backward is held the same way. `dlogits` and `backward` are None until the first
    `backward_layers` call, which builds the list of calls once over arrays the workspace
    then owns: the loss gradient it reads (`dlogits`), the weight and bias gradients it
    returns, and each layer's own (`_backward_calls`). Every later call re-runs that list
    in place. A workspace that never backpropagates, as the victim pass of incremental
    evaluation, makes none of them.
    """

    def __init__(self, arch: Architecture, weights, biases, x):
        self.arch = arch
        self.acts = [None] * (len(arch.layers) + 1)
        self.patches = [None] * len(arch.layers)
        self.weights, self.biases = weights, biases
        self.index = {pos: p for p, (pos, _) in enumerate(arch.parametric_layers())}
        self.positions = list(self.index)
        # (p, f) -> the calls of that restart, f None for every filter; None -> `run`'s
        self.steps = {}
        self.dlogits = self.backward = None  # made by the first `backward_layers`
        forward_layers(arch, weights, biases, x, self)

    def input(self, pos):
        """What layer `pos` consumes: a Conv2D's patch matrix, any other layer's input."""
        return self.patches[pos][1] if isinstance(self.arch.layers[pos], Conv2D) else self.acts[pos]

    def restart(self, p, f=None):
        """Re-run the network after filter `f` of parametric layer `p` changed in the
        weights, or after any of p's filters did with `f` None (every row and channel
        then runs); returns the logits, the stored array rewritten in place.

        A Conv2D runs one GEMM, plus the bias, straight into rows of its stored
        product: those of the two-row block of its weight matrix that holds row f.
        numpy hands a one-row product `W[f:f+1] @ cols` to gemv, whose sums need not
        give the full GEMM's bits; so the block runs only where `two_row_blocks` has
        shown that every block gives them, and elsewhere the GEMM of every row does.
        Either way the rows other than f come out as stored. The layers after it run
        on channel f only (ReLU, MaxPool and Flatten are elementwise or copies), and
        the next Conv2D rewrites only channel f's rows of its patch matrix. From the
        next parametric layer on, and after a Dense, every layer runs in full. So the
        logits equal a fresh full pass bit for bit.
        """
        calls = self.steps.get((p, f))
        if calls is None:
            calls = self.steps[p, f] = self._restart_calls(p, f)
        for call in calls:
            call()
        return self.acts[-1]

    def run(self, x):
        """Re-run the pass on the batch `x`, of the first batch's shape, in place: x is
        copied into `acts[0]`, the array the constructor was handed, and every layer
        re-runs in full on the weights and biases as they are now, through calls built on
        the first run as a restart's are. Returns the logits: a fresh pass's bits."""
        calls = self.steps.get(None)
        if calls is None:
            calls = self.steps[None] = self._calls(0, slice(None))
        np.copyto(self.acts[0], x)
        for call in calls:
            call()
        return self.acts[-1]

    def _restart_calls(self, p, f):
        pos, tiled = self.positions[p], f is not None
        if isinstance(self.arch.layers[pos], Dense):
            return self._calls(pos, slice(None), tiled)
        ch = slice(None) if f is None else slice(f, f + 1)
        return [self._gemm(pos, f)] + self._calls(pos + 1, ch, tiled)

    def _calls(self, pos, ch, tiled=False):
        """The calls that bring layers `pos` on up to date after channels `ch` of layer
        pos's stored input changed. `tiled`: a Dense adds its bias as it is now, tiled to
        its output's shape (a filter restart's, under which nothing changes a bias): the
        same sums as the broadcast over rows of a few features that it adds otherwise,
        which costs about three times as much."""
        if pos == len(self.arch.layers):
            return []
        layer, x, out = self.arch.layers[pos], self.acts[pos], self.acts[pos + 1]
        if isinstance(layer, Conv2D):
            calls, ch = self._feed(pos, ch) + [self._gemm(pos)], slice(None)
        elif isinstance(layer, Dense):
            p = self.index[pos]
            b = np.tile(self.biases[p], (len(out), 1)) if tiled else self.biases[p]
            calls, ch = [partial(np.matmul, x, self.weights[p].T, out=out),
                         partial(np.add, out, b, out=out)], slice(None)
        elif isinstance(layer, Flatten):
            # a view of the input follows it; past it, a channel is no longer an axis
            calls = [] if np.may_share_memory(out, x) else [
                partial(np.copyto, out.reshape(x.shape)[:, ch], x[:, ch])]
            ch = slice(None)
        elif isinstance(layer, ReLU):
            calls = [partial(np.maximum, x[:, ch], 0.0, out=out[:, ch])]
        else:  # MaxPool
            src, dst, w = x[:, ch], out[:, ch], layer.window
            calls = [lambda: _maxpool(src, w, dst)]
        return calls + self._calls(pos + 1, ch, tiled)

    def _feed(self, pos, ch):
        """The calls that copy channels `ch` of a Conv2D's stored input into its padded
        input and patch matrix; a patch matrix that is a view of its (padded) input
        already follows it."""
        layer, x = self.arch.layers[pos], self.acts[pos]
        xp, cols = self.patches[pos]
        calls = []
        if layer.padding:
            pd, (h, w) = layer.padding, x.shape[2:]
            calls.append(partial(np.copyto, xp[:, ch, pd:pd + h, pd:pd + w], x[:, ch]))
        if not np.may_share_memory(cols, xp):
            win = _windows(xp, layer.kernel, layer.stride)
            calls.append(partial(np.copyto, cols.reshape(win.shape)[ch], win[ch]))
        return calls

    def two_row_blocks(self, pos):
        """Whether restarts of the Conv2D at `pos` run the two-row GEMM block of a
        changed row (else the full GEMM): where its weight matrix has two or more rows
        and `_blocks_exact` holds, on this BLAS, for its shape and its patch matrix's
        shape and strides. The verdict is probed once per process for each of those.
        `bitsiege verify` names each conv's path; OpenBLAS 0.3.31's Nehalem kernels
        (`OPENBLAS_CORETYPE=Nehalem`) take the full GEMM on the desk shapes."""
        w, cols = self._operands(pos)
        if len(w) < 2:
            return False
        key = (w.shape, cols.shape, cols.strides)
        if key not in _BLOCKS_EXACT:
            _BLOCKS_EXACT[key] = _blocks_exact(w, cols)
        return _BLOCKS_EXACT[key]

    def _operands(self, pos):
        """A Conv2D's (O, C*k*k) weight matrix, a view, and its stored patch matrix."""
        w = self.weights[self.index[pos]]
        return w.reshape(len(w), -1), self.patches[pos][1]

    def _gemm(self, pos, row=None):
        """The call that re-runs a Conv2D's GEMM over its stored patch matrix into rows
        of its stored (O, N*Ho*Wo) product, in place: with `row`, the rows of the two-row
        block of weight rows that holds it, where `two_row_blocks` holds; else every row."""
        (w, cols), b = self._operands(pos), self.biases[self.index[pos]]
        out = self.acts[pos + 1].transpose(1, 0, 2, 3).reshape(len(w), -1)  # a view, by layout
        rows = slice(None)
        if row is not None and self.two_row_blocks(pos):
            lo = _block_start(row, len(w))
            rows = slice(lo, lo + 2)
        w, b, out = w[rows], b[rows], out[rows]
        return lambda: _conv2d(cols, w, b, out)  # looked up at each call, for tracers


# (weight matrix shape, patch matrix shape, patch matrix strides) -> `_blocks_exact`
_BLOCKS_EXACT = {}


def _block_start(row, o):
    """The first row of the two-row block of an o-row weight matrix that holds `row`."""
    return min(row - row % 2, o - 2)


def _blocks_exact(w, cols):
    """Whether each two-row block GEMM that a restart can run, `w[lo:lo + 2] @ cols`,
    gives rows lo and lo + 1 of the full GEMM `w @ cols` bit for bit, for the live
    operands and for 32 random weight matrices of w's shape: a sample, not a proof (with
    two draws, OpenBLAS's Nehalem kernels passed blocks that other weights showed unsound).
    A BLAS may block two rows' GEMM otherwise than all rows', and sum in another order."""
    blocks = sorted({_block_start(f, len(w)) for f in range(len(w))})
    full, part = np.empty((len(w), cols.shape[1])), np.empty((2, cols.shape[1]))
    rng = np.random.default_rng(0)
    for a in [w, *(rng.standard_normal(w.shape) for _ in range(32))]:
        np.matmul(a, cols, out=full)
        for lo in blocks:
            if np.matmul(a[lo:lo + 2], cols, out=part).tobytes() != full[lo:lo + 2].tobytes():
                return False
    return True


def _windows(x, kernel, stride):
    """The strided (C, k, k, N, Ho, Wo) view of the batch `x` (N, C, H, W) whose
    [c, i, j, n, h, w] is x[n, c, h*stride + i, w*stride + j]."""
    n, c, h, w = x.shape
    ho, wo = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(x, (c, kernel, kernel, n, ho, wo),
                                           (sc, sh, sw, sn, sh * stride, sw * stride),
                                           writeable=False)


def _patches(x, kernel, stride, padding):
    """[padded input, patch matrix] of the batch `x` (N, C, H, W): the padded input is x
    itself without padding, and column (n, h, w) of the (C*k*k, N*Ho*Wo) patch matrix
    holds the k x k window of sample n under output pixel (h, w).

    The patch matrix is `_windows` of the padded input, reshaped; numpy copies only
    where the reshape cannot be a view. A Workspace keeps both arrays for its restarts.
    """
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    win = _windows(xp, kernel, stride)
    return [xp, win.reshape(-1, math.prod(win.shape[3:]))]


def _conv2d(cols, w, b, out=None):
    """Convolution as one GEMM of the (O, C*k*k) weight matrix `w` over the patch
    matrix `cols` of `_patches`, plus the bias: the (O, N*Ho*Wo) product, whose
    (N, O, Ho, Wo) transpose is the layer's output.

    `out`: a product this function returned for the same shapes (or a block of its
    rows, for the same block of `w` and `b`), rewritten in place. The bias is added
    in place: a fresh `product + bias` array cost far more than the GEMM (page faults
    on every call), for the same bits."""
    out = np.matmul(w, cols, out=out)
    out += b[:, None]
    return out


def _maxpool(x, w, out=None):
    """Non-overlapping w x w max pool of the batch `x` (N, C, H, W): the maximum over the
    column offsets of each window, into one temporary half x's size, then over its row
    offsets, on (C, H, W, N) views, so that numpy's loops run along the batch and not
    along a w-long window row.

    Returns the (N, C, H/w, W/w) transpose of a fresh (C, H/w, W/w, N) array, or writes
    into `out`, an array this function returned for a batch of x's shape (a channel slice
    of one, for a channel slice of x). The first pass and every restart pool through this
    one routine: `np.maximum` of 0.0 and -0.0 depends on the operand order, so another
    order of the same maxima could give other bits. The fresh array starts on a 64-byte
    line: restarts rewrite it and read it as the next conv's patch matrix, and off a line,
    where malloc may put it, desk conv1 restarts ran ~12% slower (2-vCPU x86 VM, OpenBLAS
    0.3.31)."""
    n, c, h, wd = x.shape
    if out is None:
        size = c * (h // w) * (wd // w) * n
        buf = np.empty(size + 7)
        start = -buf.ctypes.data % 64 // 8
        out = buf[start:start + size].reshape(c, h // w, wd // w, n).transpose(3, 0, 1, 2)
    t, o = x.transpose(1, 2, 3, 0), out.transpose(1, 2, 3, 0)
    if w == 1:
        np.copyto(o, t)
        return out
    colmax = np.maximum(t[:, :, 0::w], t[:, :, 1::w])
    for j in range(2, w):
        np.maximum(colmax, t[:, :, j::w], out=colmax)
    np.maximum(colmax[:, 0::w], colmax[:, 1::w], out=o)
    for i in range(2, w):
        np.maximum(o, colmax[:, i::w], out=o)
    return out


def forward_layers(arch: Architecture, weights, biases, x, ws=None) -> np.ndarray:
    """Run every layer of `arch` on the batch `x`; returns logits.

    A Conv2D turns its 4-D input into its patch matrix (`_patches`) first. `ws`: the
    Workspace whose constructor runs this pass; it receives every layer's result and
    each Conv2D's [padded input, patch matrix], so that `backward_layers` can backprop
    through the pass and `Workspace.restart` can rewrite it in place.
    """
    if ws is not None:
        ws.acts[0] = x
    p = 0
    for pos, layer in enumerate(arch.layers):
        if isinstance(layer, Conv2D):
            x = _patches(x, layer.kernel, layer.stride, layer.padding)
            if ws is not None:
                ws.patches[pos] = x
            x = x[1]  # without a Workspace, an input the patch matrix copies is freed here
            o = layer.c_out
            x = _conv2d(x, weights[p].reshape(o, -1), biases[p])
            x = x.reshape((o, -1) + arch.shapes[pos + 1][1:]).transpose(1, 0, 2, 3)
            p += 1
        elif isinstance(layer, Dense):
            x = np.matmul(x, weights[p].T)
            x += biases[p]
            p += 1
        elif isinstance(layer, ReLU):
            x = np.maximum(x, 0.0)
        elif isinstance(layer, MaxPool):
            x = _maxpool(x, layer.window)
        else:  # Flatten
            x = x.reshape(len(x), -1)
        if ws is not None:
            ws.acts[pos + 1] = x
    return x


def _conv_bwd_arrays(w_shape, x_shape, out_hw, stride, padding, input_grad):
    """The arrays `_conv_bwd` writes for these shapes: [the (N, O, Ho, Wo) view of the
    C-ordered (O, N * Ho * Wo) output-gradient copy, that copy, dw, db, col2im's arrays
    or None unless `input_grad`]. col2im's are [the patch gradient, the (k, k, Ho, W', C,
    N) buffer's first Wo columns and the patch gradient's view in that order, the
    accumulator, its (slice, buffer slice) pair per kernel offset, dx]. The buffer's gap
    columns are written once, here."""
    n, c, h, wd = x_shape
    o, _, k, _ = w_shape
    ho, wo = out_hw
    d2 = np.empty((o, n * ho * wo))
    arrays = [d2.reshape(o, n, ho, wo).transpose(1, 0, 2, 3), d2, np.empty(w_shape), np.empty(o)]
    if not input_grad:
        return arrays + [None]
    hp, wp = h + 2 * padding, wd + 2 * padding
    dcols = np.empty((c * k * k, n * ho * wo))
    src = np.empty((k, k, ho, wp, c, n))
    src[:, :, :, wo:] = -0.0
    flat = src.reshape(k, k, ho * wp, c, n)
    span = stride * (ho * wp - 1) + 1  # the positions one offset's slice spans
    acc = np.empty((max(hp * wp, (k - 1) * (wp + 1) + span), c, n))
    adds = [(acc[i * wp + j:i * wp + j + span:stride], flat[i, j])
            for i in range(k) for j in range(k)]
    dx = acc[:hp * wp].reshape(hp, wp, c, n)[padding:padding + h, padding:padding + wd]
    return arrays + [[dcols, src[:, :, :, :wo],
                      dcols.reshape(c, k, k, n, ho, wo).transpose(1, 2, 4, 5, 0, 3), acc, adds,
                      dx.transpose(3, 2, 0, 1)]]


def _conv_bwd(cols, w, stride, padding, x_shape, dout, input_grad=True, out=None):
    """(dw, db, dx) of `_conv2d` at the patch matrix `cols` of an input shaped
    `x_shape` (N, C, H, W), given the output gradient `dout` (N, O, Ho, Wo); dx is
    None unless `input_grad`.

    Both GEMMs and db's row sums read one C-ordered (O, N * Ho * Wo) copy of dout, so
    dw, db and dx depend on dout's values only, not on its strides. col2im is one add
    per kernel offset (i, j), in row-major order, of contiguous (C, N) rows. The patch
    gradient is copied once into a (k, k, Ho, W', C, N) buffer, W' the padded input
    width, whose W' - Wo gap columns hold -0.0. Flattened over (Ho, W'), offset (i, j)'s
    slice is added into a zeroed (positions, C, N) accumulator of the padded grid from
    position i*W' + j, at every `stride`-th position: a gap entry adds -0.0 to some
    position, and x + -0.0 is x for every x. So each entry of dx gets the same adds in
    the same order as in a zeros padded (C, N, H', W') buffer, and the same bits, for
    every stride and padding; but for a NaN's sign, which numpy's add loops take from
    one operand or the other by the loop a layout selects, here as in any col2im. dx is
    the (N, C, H, W) transpose of the accumulator's unpadded (H, W, C, N) part.

    `out`: the arrays of `_conv_bwd_arrays` for these shapes, which the call rewrites and
    returns (the accumulator is zeroed first); without it, the call makes them. A `dout`
    that is their copy's (N, O, Ho, Wo) view is not copied again: a ReLU above the conv
    writes its product there (`backward_layers`)."""
    if out is None:
        out = _conv_bwd_arrays(w.shape, x_shape, dout.shape[2:], stride, padding, input_grad)
    d4, d2, dw, db, col2im = out
    if dout is not d4:
        np.copyto(d4, dout)
    w = w.reshape(len(w), -1)
    np.matmul(d2, cols.T, out=dw.reshape(w.shape))
    np.add.reduce(d2, axis=1, out=db)
    if col2im is None:
        return dw, db, None
    dcols, src, dsrc, acc, adds, dx = col2im
    np.matmul(w.T, d2, out=dcols)
    np.copyto(src, dsrc)
    acc.fill(0.0)
    for a, b in adds:
        np.add(a, b, out=a)
    return dw, db, dx


def _pool_bwd_arrays(x_shape, w, relu):
    """The arrays `_pool_bwd` writes for an input shaped `x_shape`: [dx, two (C, H/w,
    W/w, N) masks, the folded ReLU's product or None unless `relu`]."""
    n, c, h, wd = x_shape
    pooled = (c, h // w, wd // w, n)
    return [np.empty((c, h, wd, n)).transpose(3, 0, 1, 2), np.empty(pooled, dtype=bool),
            np.empty(pooled, dtype=bool), np.empty(pooled) if relu else None]


def _pool_bwd(x, w, pooled, dout, relu=False, out=None):
    """Input gradient of `_maxpool` at `x`, whose result was `pooled`, given the output
    gradient `dout`. Each window's gradient goes to its first entry, in row-major
    order, equal to the window's maximum in `pooled` (its first NaN, if the maximum is
    NaN): the entry `argmax` picks. Every other entry gets 0.0.

    `relu`: x is a ReLU's output, and the result is the gradient at that ReLU's input,
    the ReLU's `d * (x > 0)` step folded in on the pooled grid, 1/w^2 of x's size, as
    `dout * (pooled > 0)`. This is exact: at the entry a window's gradient goes to, the
    ReLU's input is > 0 exactly when `pooled` is (a NaN or ±0 maximum included), and
    every other entry is 0.0 either way.

    One pass per window offset, in row-major order, on (C, H, W, N) views as in
    `_maxpool`: the entries at that offset that equal `pooled`, in windows not yet
    taken, get `dout`. dout is read only elementwise, in any layout, and dx is the
    (N, C, H, W) transpose of a (C, H, W, N) array. `out`: the arrays of
    `_pool_bwd_arrays` for x's shape, which the call rewrites; without it, the call
    makes them."""
    if out is None:
        out = _pool_bwd_arrays(x.shape, w, relu)
    dx, free, hit, product = out  # each entry of dx: one offset of one window
    t, o, g, d = (a.transpose(1, 2, 3, 0) for a in (x, pooled, dout, dx))
    if relu:
        np.greater(o, 0, out=hit)
        g = np.multiply(g, hit, out=product)
    g, d = g.view(np.int64), d.view(np.int64)  # bits: dout's times 1, or 0 (+0.0's)
    offsets = [(slice(i, None, w), slice(j, None, w)) for i in range(w) for j in range(w)]
    free.fill(True)  # the windows not yet taken
    for k, (i, j) in enumerate(offsets):
        np.equal(t[:, i, j], o, out=hit)
        if k:  # at the first offset, every window is free
            hit &= free
        if k < len(offsets) - 1:  # after the last, no offset reads free
            free ^= hit
        np.multiply(g, hit, out=d[:, i, j])
    np.isnan(o, out=free)  # the windows left: a NaN maximum equals no entry
    if free.any():
        for i, j in offsets:
            np.isnan(t[:, i, j], out=hit)
            hit &= free
            free ^= hit
            np.copyto(d[:, i, j], g, where=hit)
    return dx


def backward_layers(ws: Workspace, dlogits):
    """Backprop the loss gradient `dlogits` through the pass the Workspace `ws` holds,
    down to its first parametric layer: (weight grads, bias grads). The input gradient
    of that layer is never built, as nothing before it has parameters.

    Everything but `dlogits` is read from `ws`: the architecture, the weights as they
    are now (a restart after an in-place change has the changed model's pass), each
    layer's stored input, and the maxima a MaxPool stored. The gradients are those of
    a plain backward, bit for bit: a pool window's gradient goes to its first entry,
    in row-major order, equal to the window's maximum, as `argmax` picks it; col2im
    adds the patch gradient's (i, j) slices in row-major order, one add of contiguous
    (C, N) rows per slice; and a conv copies its output gradient into one fixed order
    before it sums it (`_conv_bwd`), so no layer hands it a chosen layout. A ReLU under
    a MaxPool is folded into the pool's backward (`_pool_bwd`'s `relu`).

    The first call on `ws` builds the backward once, as a list of calls over arrays
    the Workspace then owns (`_backward_calls`), and every call re-runs that list: it
    copies `dlogits` into `ws.dlogits`, unless it is that array, and returns the same
    gradient arrays, rewritten in place."""
    if ws.backward is None:
        ws.dlogits, ws.backward = _backward_calls(ws)
    if dlogits is not ws.dlogits:
        np.copyto(ws.dlogits, dlogits)
    dws, dbs, calls = ws.backward
    for call in calls:
        call()
    return dws, dbs


def _backward_calls(ws: Workspace):
    """(the loss gradient array, (weight grads, bias grads, calls)) of `backward_layers`
    on `ws`: the calls read the Workspace's stored pass and weights, and write arrays
    made here. Each layer's gradient is C-ordered, or is a conv's or pool's input
    gradient, so a Flatten's backward is a view. A ReLU right above a conv writes its
    product into the conv's output-gradient copy; any other ReLU, into an array of its
    own."""
    arch, weights = ws.arch, ws.weights
    layers = arch.layers
    below, above = (None,) + layers, layers[1:] + (None,)  # the layers under and over pos
    dws, dbs = [None] * len(weights), [None] * len(weights)
    convs = {}  # pos -> a Conv2D's `_conv_bwd_arrays`, once the layer above needs them
    n = len(ws.acts[0])

    def conv_arrays(pos):
        if pos not in convs:
            layer = layers[pos]
            convs[pos] = _conv_bwd_arrays(
                weights[ws.index[pos]].shape, (n,) + arch.shapes[pos],
                arch.shapes[pos + 1][1:], layer.stride, layer.padding, ws.index[pos] > 0)
        return convs[pos]

    p = len(weights)
    dlogits = d = np.empty(ws.acts[-1].shape)
    calls = []
    for pos in reversed(range(len(layers))):
        if not p:
            break
        layer, x = layers[pos], ws.input(pos)
        if isinstance(layer, Conv2D):
            p -= 1
            out = conv_arrays(pos)
            calls.append(partial(_conv_bwd, x, weights[p], layer.stride, layer.padding,
                                 (n,) + arch.shapes[pos], d, p > 0, out))
            _, _, dws[p], dbs[p], col2im = out
            d = col2im and col2im[-1]  # dx, or None below the first parametric layer
        elif isinstance(layer, Dense):
            p -= 1
            dws[p], dbs[p] = np.empty(weights[p].shape), np.empty(len(weights[p]))
            calls += [partial(np.matmul, d.T, x, out=dws[p]),
                      partial(np.add.reduce, d, axis=0, out=dbs[p])]
            if p:
                dx = np.empty(x.shape)
                calls.append(partial(np.matmul, d, weights[p], out=dx))
                d = dx
        elif isinstance(layer, ReLU):
            if not isinstance(above[pos], MaxPool):
                mask = np.empty_like(x, dtype=bool)
                dx = (conv_arrays(pos - 1)[0] if isinstance(below[pos], Conv2D)
                      else np.empty(x.shape))
                calls += [partial(np.greater, x, 0, out=mask),
                          partial(np.multiply, d, mask, out=dx)]
                d = dx
        elif isinstance(layer, MaxPool):
            relu = isinstance(below[pos], ReLU)
            out = _pool_bwd_arrays(x.shape, layer.window, relu)
            calls.append(partial(_pool_bwd, x, layer.window, ws.acts[pos + 1], d, relu, out))
            d = out[0]
        else:  # Flatten: a view of a C-ordered gradient
            d = d.reshape(x.shape)
    return dlogits, (dws, dbs, calls)


# The batch shape every pass that only scores runs in: `forward_batch`, and so `accuracy`
# and `quantize.accuracy_quant`, and each Workspace of `attack._FlipPass`. A sample's logits
# depend on the GEMM shapes it was summed in, so scoring in one fixed chunk size makes
# every scorer give the same bits on any set. Passes that backpropagate run one batch.
CHUNK = 200


def chunks(x, size=CHUNK):
    """The batch `x` itself if it has at most `size` samples, else its runs of `size`
    samples in order (views), the last one shorter if `size` does not divide its length."""
    return [x] if len(x) <= size else [x[i:i + size] for i in range(0, len(x), size)]


def forward_batch(model: FloatModel, xs) -> np.ndarray:
    """Logits for a batch shaped (N, *input_shape): those of `forward_layers` on each of
    its `chunks`, stacked; a batch of one chunk gets that pass's own array. Only one
    chunk's pass is held at a time."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.shape[1:] != model.architecture.input_shape:
        raise ValueError(f"input shape {xs.shape[1:]} != {model.architecture.input_shape}")
    logits = [forward_layers(model.architecture, model.weights, model.biases, x)
              for x in chunks(xs)]
    return logits[0] if len(logits) == 1 else np.concatenate(logits)


def check_dataset(arch: Architecture, data: Dataset):
    """Raise ValueError unless `arch` can be scored on `data`: one or more samples, of
    `arch.input_shape`, with every label in [0, arch.num_classes)."""
    shape = data.inputs.shape[1:]
    if len(data) == 0 or shape != arch.input_shape:
        raise ValueError(f"needs one or more {arch.input_shape} inputs, got {len(data)} "
                         f"of shape {shape}")
    lo, hi = data.labels.min(), data.labels.max()
    if lo < 0 or hi >= arch.num_classes:
        raise ValueError(f"labels must be in [0, {arch.num_classes}), got {lo} to {hi}")


def accuracy(model: FloatModel, data: Dataset) -> float:
    """Top-1 accuracy; argmax ties break to the lowest class index."""
    check_dataset(model.architecture, data)
    return top1_hits(forward_batch(model, data.inputs), data.labels) / len(data)


def top1_hits(logits, labels, pred=None, hits=None) -> int:
    """How many rows' argmax (ties to the lowest class index) equals the label; the argmax
    and the hits go into `pred` (intp) and `hits` (bool), if given, one entry per row."""
    return int(np.count_nonzero(np.equal(logits.argmax(axis=1, out=pred), labels, out=hits)))


# ---------------------------------------------------------------- file formats
#
# Every binary artifact (`.model`, `.qmodel`, `.data`) is a magic line, UTF-8
# header lines and an `end-header` line, then little-endian records back to
# back: each a numpy array of one dtype. Float records are finite.

_LAYER_NAMES = {Conv2D: "conv2d", Dense: "dense", ReLU: "relu", MaxPool: "maxpool", Flatten: "flatten"}
_LAYER_KINDS = {name: kind for kind, name in _LAYER_NAMES.items()}
_END_HEADER = b"end-header\n"


def artifact_bytes(path, magic, header_lines, records):
    """The bytes of the artifact at `path`: `magic`, the header lines and `end-header`,
    then each (values, dtype) record's bytes. Raises ValueError, naming `path`, if a
    float record is not finite once cast to its dtype (a value beyond float32 range)."""
    payload = []
    for values, dtype in records:
        with np.errstate(over="ignore"):
            a = np.ascontiguousarray(values, dtype=dtype)
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            raise ValueError(f"{path}: a non-finite value, or one beyond {a.dtype.name} range")
        payload.append(a.tobytes())
    header = "\n".join([magic, *header_lines, ""]).encode("utf-8") + _END_HEADER
    return b"".join([header, *payload])


def write_file(path, data):
    with open(path, "wb") as f:
        f.write(data)


class _Reader:
    """Bounds-checked reads of the records in `payload`, which starts at file byte `start`;
    `at` is the file offset of the last record read."""

    def __init__(self, payload, start):
        self.payload, self.start, self.pos, self.at = payload, start, 0, start

    def read(self, dtype, shape=()):
        """The next record: an array of `shape` (a scalar for `()`) as `dtype`."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        if self.pos + size > len(self.payload):
            raise ModelFormatError(f"byte {self.byte()}: truncated payload")
        a = np.frombuffer(self.payload[self.pos:self.pos + size], dtype).reshape(shape)
        if dtype.kind == "f" and not np.isfinite(a).all():
            raise ModelFormatError(f"byte {self.byte()}: non-finite value in a {dtype.name} record")
        self.at = self.byte()
        self.pos += size
        return a

    def byte(self):
        """The file offset of the next record."""
        return self.start + self.pos


def read_artifact(path, magic, parse):
    """Open the artifact at `path` and return `parse(header_lines, reader)`.

    `header_lines` are the lines after the magic (file line 2 on) and `reader.read`
    returns the records. Every failure is a ModelFormatError naming `path` and the line,
    or the byte where the record at fault starts: `parse` raises ModelFormatError("line
    N: ...") or ("byte N: ..."), a ValueError it raises is placed at the record last
    read, so `parse` checks each record as it reads it, and unread bytes are an error.
    """
    with open(path, "rb") as f:
        blob = f.read()
    end = blob.find(_END_HEADER)
    # A payload copy read by slices, not views into `blob`: views left a heap layout in
    # which attack-long's per-flip activations page-faulted up to twice as often (~13% slower).
    r = _Reader(blob[end + len(_END_HEADER):], end + len(_END_HEADER))
    try:
        if end < 0:
            raise ModelFormatError(f"byte {len(blob)}: missing end-header marker")
        out = parse(magic_lines(blob[:end], magic), r)
        if r.byte() != len(blob):
            raise ModelFormatError(f"byte {r.byte()}: {len(blob) - r.byte()} trailing bytes")
        return out
    except ModelFormatError as e:
        raise ModelFormatError(f"{path} {e}") from None
    except ValueError as e:
        raise ModelFormatError(f"{path} byte {r.at}: {e}") from e


def magic_lines(text, magic):
    """The lines of the UTF-8 `text` after its first, which must be `magic`."""
    try:
        lines = text.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"byte {e.start}: not UTF-8 text") from None
    if not lines or lines[0] != magic:
        raise ModelFormatError(f"line 1: expected magic {magic!r}")
    return lines[1:]


def read_fields(lines, grammar):
    """The fields of the header or trace `lines`, file lines 2 on: per line, a name and
    its value words. `grammar` maps each name to (cast, count, repeats): a type `cast`
    reads each of `count` words (None: any number), no int may be negative, and a field
    of count 1 is its value, any other the tuple of its values; any other `cast`, here
    `_layer`, reads the words itself. A repeating name maps to its fields in line order;
    any other is given once. An unknown, malformed, repeated or missing field raises
    ModelFormatError("line N: ..."), a missing one at the line after the last."""
    fields = {name: [] for name, (_, _, repeats) in grammar.items() if repeats}
    where = {}  # the line of each field given once
    for i, line in enumerate(lines, start=2):
        name, *words = line.split() or [""]
        if name not in grammar:
            raise ModelFormatError(f"line {i}: unknown field {name!r}")
        if name in where:
            raise ModelFormatError(f"line {i}: {name!r} already set on line {where[name]}")
        cast, count, repeats = grammar[name]
        try:
            if count is not None and len(words) != count:
                raise ValueError(f"takes {count} value(s), got {len(words)}")
            value = _cast_words(cast, words) if isinstance(cast, type) else cast(words)
        except ValueError as e:
            raise ModelFormatError(f"line {i}: malformed line {line!r}: {e}") from None
        value = value[0] if count == 1 else value
        if repeats:
            fields[name].append(value)
        else:
            fields[name], where[name] = value, i
    missing = [name for name in grammar if name not in fields]
    if missing:
        raise ModelFormatError(f"line {len(lines) + 2}: missing field(s) {', '.join(missing)}")
    return fields


def _cast_words(cast, words):
    """`cast(word)` per word, as a tuple; a negative int is refused."""
    values = tuple(map(cast, words))
    if any(isinstance(v, int) and v < 0 for v in values):
        raise ValueError("negative value")
    return values


def _layer(words):
    """`layer <kind> <field> ...`: a layer of that kind, from its fields' values."""
    try:
        return _LAYER_KINDS[words[0]](*_cast_words(int, words[1:]))
    except (IndexError, KeyError, TypeError):  # no kind, an unknown one, or not its fields
        raise ValueError("unknown layer kind, or a wrong number of fields") from None


def arch_header_lines(arch: Architecture):
    """`input_shape`, `classes`, then `layer <name>` and the layer's field values, in
    field order, per layer."""
    lines = ["input_shape " + " ".join(str(d) for d in arch.input_shape),
             f"classes {arch.num_classes}"]
    for layer in arch.layers:
        lines.append(" ".join(["layer", _LAYER_NAMES[type(layer)], *map(str, astuple(layer))]))
    return lines


def parse_arch_header(lines) -> Architecture:
    f = read_fields(lines, {"input_shape": (int, None, False), "classes": (int, 1, False),
                            "layer": (_layer, None, True)})
    try:
        return Architecture(tuple(f["layer"]), f["input_shape"], f["classes"])
    except ValueError as e:
        raise ModelFormatError(f"line {len(lines) + 2}: inconsistent architecture: {e}") from e


def model_bytes(model: FloatModel, path):
    """The `.model` file at `path`: per parametric layer, the weights then the bias, each
    as <u4 ndim, <u4 per dimension and the <f4 values."""
    records = []
    for w, b in zip(model.weights, model.biases):
        for a in (w, b):
            records += [([a.ndim, *a.shape], "<u4"), (a, "<f4")]
    return artifact_bytes(path, MODEL_MAGIC, arch_header_lines(model.architecture), records)


def save_model(model: FloatModel, path):
    write_file(path, model_bytes(model, path))


def load_model(path) -> FloatModel:
    def tensor(r, shape):
        ndim = int(r.read("<u4"))
        got = tuple(int(d) for d in r.read("<u4", (ndim,)))
        if got != shape:
            raise ModelFormatError(f"byte {r.byte()}: tensor shape {got} != expected {shape}")
        return r.read("<f4", shape)

    def parse(lines, r):
        arch = parse_arch_header(lines)
        ws, bs = [], []
        for _, layer in arch.parametric_layers():
            ws.append(tensor(r, weight_shape(layer)))
            bs.append(tensor(r, bias_shape(layer)))
        return FloatModel(arch, ws, bs)
    return read_artifact(path, MODEL_MAGIC, parse)


def dataset_bytes(data: Dataset, path):
    """The `.data` file at `path`: the inputs as <f4, then the labels as uint8."""
    if len(data) and not 0 <= data.labels.min() <= data.labels.max() < DATA_MAX_CLASSES:
        raise ValueError(f"labels must be in [0, {DATA_MAX_CLASSES - 1}] to be stored as uint8")
    classes = int(data.labels.max()) + 1 if len(data) else 0
    header = ["shape " + " ".join(str(d) for d in data.inputs.shape[1:]),
              f"classes {classes}", f"samples {len(data)}"]
    return artifact_bytes(path, DATA_MAGIC, header, [(data.inputs, "<f4"), (data.labels, "<u1")])


def save_dataset(data: Dataset, path):
    write_file(path, dataset_bytes(data, path))


def load_dataset(path) -> Dataset:
    def parse(lines, r):
        f = read_fields(lines, {"shape": (int, None, False), "classes": (int, 1, False),
                                "samples": (int, 1, False)})
        shape, classes, n = f["shape"], f["classes"], f["samples"]
        data = Dataset(r.read("<f4", (n, *shape)), r.read("<u1", (n,)))
        if n and data.labels.max() >= classes:
            raise ModelFormatError(f"byte {r.byte() - n}: label {data.labels.max()} is not "
                                   f"below the header's classes {classes}")
        return data
    return read_artifact(path, DATA_MAGIC, parse)
