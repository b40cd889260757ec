"""Simulated partial parameter extraction: per-bit Bernoulli exposure of weight codes."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import bias_shape, layer_arrays, weight_shape
from .quantize import QuantModel, codes_to_bits


@dataclass(frozen=True)
class PartialModel:
    """Attacker's view: recovered bit patterns plus a per-bit known-mask.

    code_bits holds raw unsigned nq-bit patterns with unrecovered positions
    zeroed; they carry no information until reconstruction. masks hold the
    per-bit recovery flags in the low nq bits of each byte.
    """
    architecture: object
    params: list
    code_bits: list  # uint8 arrays, weight-tensor shaped
    masks: list      # uint8 arrays, weight-tensor shaped

    biases: list

    def __post_init__(self):
        cbs = layer_arrays(self.architecture, self.code_bits, np.uint8, weight_shape)
        mks = layer_arrays(self.architecture, self.masks, np.uint8, weight_shape)
        for qp, cb, mk in zip(self.params, cbs, mks, strict=True):
            if (mk & ~np.uint8((1 << qp.bitwidth) - 1)).any() or (cb & ~mk).any():
                raise ValueError("bits set outside the mask or the bitwidth")
        object.__setattr__(self, "code_bits", cbs)
        object.__setattr__(self, "masks", mks)
        object.__setattr__(self, "biases",
                           layer_arrays(self.architecture, self.biases, np.float64, bias_shape))


def simulate_recovery(victim: QuantModel, rp: float, seed: int) -> PartialModel:
    """Mark each weight bit recovered i.i.d. with probability rp (numpy PCG64 stream).

    Architecture and scales are copied verbatim: architecture extraction is
    assumed exact and quantization metadata known to the attacker.
    """
    if not 0.0 <= rp <= 1.0:
        raise ValueError(f"recovery rate {rp} outside [0,1]")
    rng = np.random.default_rng(seed)
    code_bits, masks = [], []
    for c, qp in zip(victim.codes, victim.params):
        # every bit plane of the layer in one draw, plane p for bit p: `random` fills in
        # order, so plane p holds the values of the p-th of one draw per plane
        planes = (rng.random((qp.bitwidth, *c.shape)) < rp).astype(np.uint8)
        shifts = np.arange(qp.bitwidth, dtype=np.uint8).reshape(-1, *(1,) * c.ndim)
        mask = np.bitwise_or.reduce(planes << shifts, axis=0)
        code_bits.append(codes_to_bits(c, qp.bitwidth) & mask)
        masks.append(mask)
    return PartialModel(victim.architecture, list(victim.params), code_bits, masks, victim.biases)
