"""Layer-wise symmetric uniform quantization and two's-complement bit algebra."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Architecture, FloatModel, accuracy, arch_header_lines, artifact_bytes,
                    bias_shape, layer_arrays, parse_arch_header, read_artifact, weight_shape,
                    write_file)

QMODEL_MAGIC = "bitsiege-qmodel-v1"
BITWIDTHS = (4, 6, 8)


def code_range(nq):
    return -(1 << (nq - 1)), (1 << (nq - 1)) - 1


def compute_scale(weights, nq) -> float:
    """Symmetric scale: max|w| / (2^(nq-1)-1), or 1.0 for an all-zero layer."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight tensor")
    if np.isnan(w).any():
        raise ValueError("NaN in weights")
    top = float(np.max(np.abs(w)))
    return top / ((1 << (nq - 1)) - 1) if top > 0 else 1.0


def _round_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize(w, s, nq):
    """Real weight(s) -> nq-bit two's-complement code(s), clamped to range."""
    if s <= 0:
        raise ValueError("scale must be positive")
    lo, hi = code_range(nq)
    return np.clip(_round_away(np.asarray(w, dtype=np.float64) / s), lo, hi).astype(np.int16)


def dequantize(c, s):
    return np.asarray(c, dtype=np.float64) * s


def flip_bit(c: int, p: int, nq: int) -> int:
    """Toggle bit p (0 = LSB, nq-1 = sign) of an nq-bit two's-complement code."""
    if not 0 <= p < nq:
        raise ValueError(f"bit position {p} out of range for {nq}-bit code")
    lo, hi = code_range(nq)
    if not lo <= c <= hi:
        raise ValueError(f"code {c} out of {nq}-bit range")
    u = (c & ((1 << nq) - 1)) ^ (1 << p)
    return u - (1 << nq) if u >= 1 << (nq - 1) else u


def codes_to_bits(codes, nq):
    """Signed code array -> raw unsigned nq-bit patterns (uint8)."""
    return (np.asarray(codes, dtype=np.int16) & ((1 << nq) - 1)).astype(np.uint8)


def bits_to_codes(bits, nq):
    """Raw unsigned nq-bit patterns -> signed code array (int16)."""
    u = np.asarray(bits, dtype=np.int16) & ((1 << nq) - 1)
    return np.where(u >= 1 << (nq - 1), u - (1 << nq), u).astype(np.int16)


@dataclass(frozen=True)
class QuantParams:
    bitwidth: int
    scale: float

    def __post_init__(self):
        if self.bitwidth not in BITWIDTHS:
            raise ValueError(f"bitwidth must be one of {BITWIDTHS}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")

    def check_codes(self, codes):
        """`codes`; raises ValueError if one is outside this bitwidth's range."""
        lo, hi = code_range(self.bitwidth)
        if codes.min(initial=0) < lo or codes.max(initial=0) > hi:
            raise ValueError(f"code outside {self.bitwidth}-bit range")
        return codes


@dataclass(frozen=True)
class QuantModel:
    architecture: Architecture
    params: list  # QuantParams per parametric layer
    codes: list   # int16 array per parametric layer, same shape as float weights
    biases: list  # float biases carried through, never quantized

    def __post_init__(self):
        cs = layer_arrays(self.architecture, self.codes, np.int16, weight_shape)
        for p, (qp, c) in enumerate(zip(self.params, cs, strict=True)):
            try:
                qp.check_codes(c)
            except ValueError as e:
                raise ValueError(f"parametric layer {p}: {e}") from None
        object.__setattr__(self, "codes", cs)
        object.__setattr__(self, "biases",
                           layer_arrays(self.architecture, self.biases, np.float64, bias_shape))


def quantize_model(m: FloatModel, nq: int) -> QuantModel:
    params, codes = [], []
    for w in m.weights:
        s = compute_scale(w, nq)
        params.append(QuantParams(nq, s))
        codes.append(quantize(w, s, nq))
    return QuantModel(m.architecture, params, codes, m.biases)


def dequantize_model(q: QuantModel) -> FloatModel:
    ws = [dequantize(c, qp.scale) for c, qp in zip(q.codes, q.params)]
    return FloatModel(q.architecture, ws, q.biases)


def accuracy_quant(q: QuantModel, data) -> float:
    return accuracy(dequantize_model(q), data)


def qmodel_bytes(q: QuantModel, path):
    """The `.qmodel` file at `path`: per parametric layer, the bitwidth as <B, the scale
    as <d, the codes as int8 (one sign-extended code per byte), then the float bias as <f4."""
    records = []
    for qp, c, b in zip(q.params, q.codes, q.biases):
        records += [(qp.bitwidth, "<u1"), (qp.scale, "<f8"), (c, "<i1"), (b, "<f4")]
    return artifact_bytes(path, QMODEL_MAGIC, arch_header_lines(q.architecture), records)


def save_qmodel(q: QuantModel, path):
    write_file(path, qmodel_bytes(q, path))


def load_qmodel(path) -> QuantModel:
    def parse(lines, r):
        arch = parse_arch_header(lines)
        params, codes, biases = [], [], []
        for _, layer in arch.parametric_layers():
            # each record is checked as it is read (the bitwidth at a stand-in scale)
            bitwidth = QuantParams(int(r.read("<u1")), 1.0).bitwidth
            params.append(QuantParams(bitwidth, float(r.read("<f8"))))
            codes.append(params[-1].check_codes(r.read("<i1", weight_shape(layer))))
            biases.append(r.read("<f4", bias_shape(layer)))
        return QuantModel(arch, params, codes, biases)
    return read_artifact(path, QMODEL_MAGIC, parse)
