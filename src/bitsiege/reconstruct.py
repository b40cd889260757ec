"""Fill unrecovered weight bits: closer-to-zero, all-zeros, all-ones, plus a brute-force oracle."""
from __future__ import annotations

from enum import Enum

import numpy as np

from .quantize import QuantModel, bits_to_codes
from .recovery import PartialModel


class ReconstructionMethod(Enum):
    CZR = "czr"
    ALL_ZEROS = "allzeros"
    ALL_ONES = "allones"


def _reconstruct_bits(bits, mask, nq, method):
    """Vectorized completion of raw bit patterns; returns signed code array.

    CZR is the smaller-magnitude of the all-zeros and all-ones fills, the all-zeros
    one on a tie. That is the exhaustive argmin-|value| (`oracle_min_abs`): with the
    sign 0, the all-zeros fill is the smallest value; with the sign 1, the all-ones
    fill is the largest, nearest zero; an unknown sign takes whichever is nearer.
    """
    mask = np.asarray(mask, dtype=np.uint8)
    known = np.asarray(bits, dtype=np.uint8) & mask
    zeros = bits_to_codes(known, nq)
    if method is ReconstructionMethod.ALL_ZEROS:
        return zeros
    ones = bits_to_codes(known | ~mask, nq)
    if method is ReconstructionMethod.ALL_ONES:
        return ones
    return np.where(np.abs(ones) < np.abs(zeros), ones, zeros)


def reconstruct_code(bits: int, mask: int, nq: int, method: ReconstructionMethod) -> int:
    """Complete one partial nq-bit code; recovered bits are preserved verbatim."""
    return int(_reconstruct_bits(np.uint8(bits), np.uint8(mask), nq, method))


def reconstruct_model(p: PartialModel, method: ReconstructionMethod) -> QuantModel:
    codes = [_reconstruct_bits(cb, mk, qp.bitwidth, method)
             for cb, mk, qp in zip(p.code_bits, p.masks, p.params)]
    return QuantModel(p.architecture, list(p.params), codes, p.biases)


def oracle_min_abs(bits: int, mask: int, nq: int) -> int:
    """Exhaustive argmin-|value| completion of a partial code (test oracle).

    Ties break toward the non-negative value, then the smaller bit pattern.
    """
    full = (1 << nq) - 1
    known = bits & mask & full
    free = [p for p in range(nq) if not (mask >> p) & 1]
    best = None
    for combo in range(1 << len(free)):
        pat = known
        for j, p in enumerate(free):
            if (combo >> j) & 1:
                pat |= 1 << p
        val = pat - (1 << nq) if pat >= 1 << (nq - 1) else pat
        key = (abs(val), val < 0, pat)
        if best is None or key < best[0]:
            best = (key, val)
    return best[1]
