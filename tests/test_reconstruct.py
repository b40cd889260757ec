import numpy as np
from hypothesis import given, settings, strategies as st

import bitsiege as bs
from bitsiege.reconstruct import ReconstructionMethod

CZR = ReconstructionMethod.CZR
ZEROS = ReconstructionMethod.ALL_ZEROS
ONES = ReconstructionMethod.ALL_ONES


def test_sign_recovered_positive():
    # only the sign bit known, as 0 -> 00000000
    assert bs.reconstruct_code(0b00000000, 0b10000000, 8, CZR) == 0


def test_sign_recovered_negative():
    # only the sign bit known, as 1 -> 11111111 = -1
    assert bs.reconstruct_code(0b10000000, 0b10000000, 8, CZR) == -1


def test_nothing_recovered():
    assert bs.reconstruct_code(0, 0, 8, CZR) == 0  # |0| beats |-1|
    assert bs.oracle_min_abs(0, 0, 4) == 0


def test_bit3_recovered_prefers_negative():
    # brute force over 2^7 completions puts -1 below +8
    assert bs.reconstruct_code(0b00001000, 0b00001000, 8, CZR) == -1


def test_tie_breaks_non_negative():
    # nq=4, bits 1..0 known as 10: completions are {+2, +6, -6, -2};
    # +2 ties -2 on magnitude and the non-negative candidate wins
    assert bs.reconstruct_code(0b0010, 0b0011, 4, CZR) == 2
    assert bs.oracle_min_abs(0b0010, 0b0011, 4) == 2


def test_fully_recovered_identity():
    for nq in (4, 8):
        full = (1 << nq) - 1
        for pat in range(1 << nq):
            val = pat - (1 << nq) if pat >= 1 << (nq - 1) else pat
            assert bs.oracle_min_abs(pat, full, nq) == val
            for m in ReconstructionMethod:
                assert bs.reconstruct_code(pat, full, nq, m) == val


def test_all_zeros_all_ones_on_unknown():
    assert bs.reconstruct_code(0, 0, 8, ZEROS) == 0
    assert bs.reconstruct_code(0, 0, 8, ONES) == -1
    assert bs.reconstruct_code(0, 0, 4, ONES) == -1


@settings(max_examples=300)
@given(st.integers(0, 255), st.integers(0, 255),
       st.sampled_from([CZR, ZEROS, ONES]))
def test_recovered_bits_preserved(bits, mask, method):
    known = bits & mask
    out = bs.reconstruct_code(known, mask, 8, method)
    assert (out & 0xFF) & mask == known


def test_reconstruct_model_full_recovery_identity(desk):
    q = desk["qmodel"]
    p = bs.simulate_recovery(q, 1.0, 0)
    for method in ReconstructionMethod:
        r = bs.reconstruct_model(p, method)
        for a, b in zip(r.codes, q.codes):
            assert np.array_equal(a, b)
        assert r.params == q.params


def test_reconstruct_model_elementwise(desk):
    q = desk["qmodel"]
    p = bs.simulate_recovery(q, 0.5, 9)
    r = bs.reconstruct_model(p, CZR)
    for cb, mk, out, qp in zip(p.code_bits, p.masks, r.codes, q.params):
        flat_cb, flat_mk, flat_out = cb.reshape(-1), mk.reshape(-1), out.reshape(-1)
        for i in range(0, flat_cb.size, 97):  # spot check
            assert flat_out[i] == bs.reconstruct_code(int(flat_cb[i]), int(flat_mk[i]),
                                                      qp.bitwidth, CZR)


def test_fully_unknown_weights_by_method(desk):
    q = desk["qmodel"]
    p = bs.simulate_recovery(q, 0.0, 0)
    assert not bs.reconstruct_model(p, ZEROS).codes[0].any()
    assert np.all(bs.reconstruct_model(p, ONES).codes[0] == -1)
    assert not bs.reconstruct_model(p, CZR).codes[0].any()
