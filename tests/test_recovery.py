import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitsiege as bs
from bitsiege.quantize import BITWIDTHS, codes_to_bits

from conftest import draw_architecture, random_qmodel

DENSE_1X1 = bs.Architecture((bs.Dense(1, 1),), (1,), 1)


def recovery_rate(p):
    """Share of the partial model's weight bits that are recovered (mask bits set)."""
    recovered = sum(int(np.unpackbits(m).sum()) for m in p.masks)
    return recovered / sum(m.size * qp.bitwidth for m, qp in zip(p.masks, p.params))


def test_full_recovery_copies_victim(desk):
    q = desk["qmodel"]
    p = bs.simulate_recovery(q, 1.0, 0)
    for cb, mk, c, qp in zip(p.code_bits, p.masks, q.codes, q.params):
        full = (1 << qp.bitwidth) - 1
        assert np.all(mk == full)
        assert np.array_equal(cb, codes_to_bits(c, qp.bitwidth))
    assert recovery_rate(p) == 1.0


def test_zero_recovery_blank_masks(desk):
    p = bs.simulate_recovery(desk["qmodel"], 0.0, 0)
    for cb, mk in zip(p.code_bits, p.masks):
        assert not mk.any()
        assert not cb.any()
    assert recovery_rate(p) == 0.0


def test_recovered_count_binomial_bound(desk):
    # 10304 weight bits at rp=0.7; [0.66, 0.74] is a ~6-sigma band
    q = desk["qmodel"]
    p = bs.simulate_recovery(q, 0.7, seed=42)
    rate = recovery_rate(p)
    assert 0.66 <= rate <= 0.74


def test_recovery_deterministic(desk):
    a = bs.simulate_recovery(desk["qmodel"], 0.5, 7)
    b = bs.simulate_recovery(desk["qmodel"], 0.5, 7)
    for ma, mb in zip(a.masks, b.masks):
        assert np.array_equal(ma, mb)
    for ca, cb in zip(a.code_bits, b.code_bits):
        assert np.array_equal(ca, cb)


def test_different_seeds_differ(desk):
    a = bs.simulate_recovery(desk["qmodel"], 0.5, 1)
    b = bs.simulate_recovery(desk["qmodel"], 0.5, 2)
    assert any(not np.array_equal(ma, mb) for ma, mb in zip(a.masks, b.masks))


def test_victim_not_mutated(desk):
    q = desk["qmodel"]
    before = [c.copy() for c in q.codes]
    bs.simulate_recovery(q, 0.3, 0)
    for b, c in zip(before, q.codes):
        assert np.array_equal(b, c)


def test_recovered_bits_match_victim(desk):
    q = desk["qmodel"]
    p = bs.simulate_recovery(q, 0.4, 3)
    for cb, mk, c, qp in zip(p.code_bits, p.masks, q.codes, q.params):
        assert np.array_equal(cb, codes_to_bits(c, qp.bitwidth) & mk)


def per_plane_recovery(victim, rp, seed):
    """The masks and code bits of one uniform draw per bit plane, LSB first, per layer."""
    rng = np.random.default_rng(seed)
    code_bits, masks = [], []
    for c, qp in zip(victim.codes, victim.params):
        mask = np.zeros(c.shape, dtype=np.uint8)
        for p in range(qp.bitwidth):
            mask |= (rng.random(c.shape) < rp).astype(np.uint8) << p
        code_bits.append(codes_to_bits(c, qp.bitwidth) & mask)
        masks.append(mask)
    return code_bits, masks


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nq=st.sampled_from(BITWIDTHS),
       rp=st.sampled_from([0.0, 1.0]) | st.floats(0, 1), seed=st.integers(0, 2**63 - 1))
def test_recovery_equals_one_draw_per_bit_plane(data, nq, rp, seed):
    q = random_qmodel(np.random.default_rng(seed), nq, draw_architecture(data))
    p = bs.simulate_recovery(q, rp, seed)
    code_bits, masks = per_plane_recovery(q, rp, seed)
    for got, ref in zip(p.code_bits + p.masks, code_bits + masks, strict=True):
        assert got.dtype == np.uint8 and got.shape == ref.shape and np.array_equal(got, ref)


def test_rate_out_of_range_rejected(desk):
    with pytest.raises(ValueError):
        bs.simulate_recovery(desk["qmodel"], 1.5, 0)
    with pytest.raises(ValueError):
        bs.simulate_recovery(desk["qmodel"], -0.1, 0)


def test_scales_and_arch_copied(desk):
    p = bs.simulate_recovery(desk["qmodel"], 0.2, 0)
    assert p.architecture == desk["qmodel"].architecture
    assert p.params == desk["qmodel"].params


@pytest.mark.parametrize("build", [
    lambda q, p: bs.PartialModel(p.architecture, p.params[:1], p.code_bits[:1], p.masks[:1],
                                 p.biases[:1]),
    lambda q, p: bs.QuantModel(q.architecture, q.params, q.codes, [b[:-1] for b in q.biases]),
    lambda q, p: bs.PartialModel(p.architecture, p.params, p.code_bits, p.masks,
                                 [b[:-1] for b in p.biases]),
    # values the record's dtype cannot hold: int16 codes, uint8 bits and masks
    lambda q, p: bs.QuantModel(DENSE_1X1, [bs.QuantParams(8, 1.0)], [np.array([[65541]])],
                               [np.zeros(1)]),
    lambda q, p: bs.QuantModel(DENSE_1X1, [bs.QuantParams(8, 1.0)], [np.array([[1.7]])],
                               [np.zeros(1)]),
    lambda q, p: bs.PartialModel(DENSE_1X1, [bs.QuantParams(8, 1.0)], [np.array([[256]])],
                                 [np.array([[255]])], [np.zeros(1)]),
    lambda q, p: bs.PartialModel(DENSE_1X1, [bs.QuantParams(8, 1.0)], [np.array([[0]])],
                                 [np.array([[256]])], [np.zeros(1)])],
    ids=["partial-one-of-three-layers", "quant-short-bias", "partial-short-bias",
         "quant-code-65541", "quant-code-1.7", "partial-code-bits-256", "partial-mask-256"])
def test_records_reject_arrays_that_do_not_fit_the_layers(desk, build):
    q = desk["qmodel"]
    with pytest.raises(ValueError, match="parametric layer"):
        build(q, bs.simulate_recovery(q, 0.5, 0))


def test_nan_weight_is_a_non_finite_parameter():
    # a float32 NaN is cast, and compared, on its way into the float64 record
    with pytest.raises(ValueError, match="non-finite"):
        bs.FloatModel(DENSE_1X1, [np.array([[np.nan]], dtype=np.float32)], [np.zeros(1)])
