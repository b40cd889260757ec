import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitsiege as bs
from bitsiege.quantize import code_range, codes_to_bits, bits_to_codes


def test_compute_scale_examples():
    assert bs.compute_scale([-1.27, 0.5], 8) == pytest.approx(1.27 / 127)
    assert bs.compute_scale(np.zeros(5), 8) == 1.0
    assert bs.compute_scale([3.0], 4) == pytest.approx(3.0 / 7)


def test_compute_scale_rejects_nan():
    with pytest.raises(ValueError):
        bs.compute_scale([0.1, np.nan], 8)


def test_quantize_examples():
    assert bs.quantize(0.0, 0.01, 8) == 0
    assert bs.dequantize(0, 0.01) == 0.0
    w = np.array([-1.27, 0.5])
    s = bs.compute_scale(w, 8)
    assert bs.quantize(1.27, s, 8) == 127  # max|w| hits the top code
    assert bs.quantize(-1.283, 0.01, 8) == -128  # clamped
    assert bs.dequantize(-128, 0.01) == pytest.approx(-1.28)


def test_quantize_round_half_away_from_zero():
    assert bs.quantize(1.5, 1.0, 8) == 2
    assert bs.quantize(-1.5, 1.0, 8) == -2


@settings(max_examples=300)
@given(st.floats(-3.0, 3.0), st.sampled_from([4, 6, 8]))
def test_roundtrip_within_half_scale(w, nq):
    s = 0.017
    lo, hi = code_range(nq)
    clamped = min(max(w, s * lo), s * hi)
    err = abs(bs.dequantize(bs.quantize(w, s, nq), s) - clamped)
    assert err <= s / 2 + 1e-9


@pytest.mark.parametrize("nq", [4, 6, 8])
def test_codes_always_in_range(nq):
    rng = np.random.default_rng(nq)
    w = rng.standard_normal(500) * 10
    s = bs.compute_scale(w, nq)
    codes = bs.quantize(w, s, nq)
    lo, hi = code_range(nq)
    assert codes.min() >= lo and codes.max() <= hi


def test_flip_bit_examples():
    assert bs.flip_bit(127, 7, 8) == -1  # 01111111 -> 11111111
    assert bs.flip_bit(0, 0, 8) == 1
    assert bs.flip_bit(-8, 3, 4) == 0  # 1000 -> 0000


def test_flip_bit_rejects_bad_position():
    with pytest.raises(ValueError):
        bs.flip_bit(0, 8, 8)
    with pytest.raises(ValueError):
        bs.flip_bit(0, -1, 8)


@pytest.mark.parametrize("nq", [4, 6, 8])
def test_flip_involution_all_bits(nq):
    lo, hi = code_range(nq)
    for c in range(lo, hi + 1):
        for p in range(nq):
            assert bs.flip_bit(bs.flip_bit(c, p, nq), p, nq) == c


@pytest.mark.parametrize("nq", [4, 8])
def test_bits_codes_roundtrip(nq):
    lo, hi = code_range(nq)
    codes = np.arange(lo, hi + 1, dtype=np.int16)
    assert np.array_equal(bits_to_codes(codes_to_bits(codes, nq), nq), codes)


@pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_quant_params_reject_a_scale_that_is_not_finite_and_positive(scale):
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        bs.QuantParams(8, scale)


def test_quantize_model_and_forward_quant(desk):
    q = desk["qmodel"]
    deq = bs.dequantize_model(q)
    for w, c, qp in zip(deq.weights, q.codes, q.params):
        assert np.array_equal(w, c * qp.scale)  # the quantized model runs as code * scale
    for qp in q.params:
        assert qp.bitwidth == 8 and qp.scale > 0
    for b_q, b_f in zip(q.biases, desk["model"].biases):
        assert np.array_equal(b_q, b_f)  # biases carried through unquantized


def test_total_weight_bits(desk):
    n_weights = sum(w.size for w in desk["model"].weights)
    for nq in (4, 8):
        q = bs.quantize_model(desk["model"], nq)
        assert sum(c.size * qp.bitwidth for c, qp in zip(q.codes, q.params)) == n_weights * nq


def test_qmodel_roundtrip(tmp_path, desk):
    for nq in (4, 6, 8):
        q = bs.quantize_model(desk["model"], nq)
        p1 = tmp_path / f"v{nq}.qmodel"
        p2 = tmp_path / f"v{nq}b.qmodel"
        bs.save_qmodel(q, p1)
        loaded = bs.load_qmodel(p1)
        for a, b in zip(q.codes, loaded.codes):
            assert np.array_equal(a, b)
        for a, b in zip(q.params, loaded.params):
            assert a.bitwidth == b.bitwidth and a.scale == b.scale
        bs.save_qmodel(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_quantized_accuracy_close_to_float(desk):
    base = bs.accuracy(desk["model"], desk["test"])
    assert bs.accuracy_quant(desk["qmodel"], desk["test"]) >= base - 0.05
