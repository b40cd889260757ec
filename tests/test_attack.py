import contextlib
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bitsiege as bs
from bitsiege import attack
from bitsiege import model as model_module
from bitsiege import synth as synth_module
from bitsiege.attack import RANKINGS, RECONS, RUN_CONFIG, FlipRecord, _flip_logits
from bitsiege.cli import _cfg_hash
from bitsiege.model import ModelFormatError, Workspace, backward_layers, forward_layers
from bitsiege.model import _conv_bwd, _maxpool, _pool_bwd, filter_count, filter_size
from bitsiege.synth import _softmax_ce
from bitsiege.quantize import BITWIDTHS

from conftest import draw_architecture, full_gemm_restarts, random_qmodel, stored_arrays


def two_filter_model(w0=5.0, w1=1.0):
    """One conv layer with two 1x1x1 filters; flatten output doubles as logits."""
    arch = bs.Architecture((bs.Conv2D(1, 2, 1), bs.Flatten()), (1, 1, 1), 2)
    fm = bs.FloatModel(arch, [np.array([[[[w0]]], [[[w1]]]]), ], [np.zeros(2)])
    return bs.quantize_model(fm, 8)


def test_select_picks_larger_filter():
    q = two_filter_model()
    records = bs.select_vulnerable_bits(q, 1)
    assert records == [FlipRecord(0, 0, 0, 7)]


def test_select_second_pick_moves_on():
    # after the sign flip, filter 0 collapses to |code| = 1 and filter 1 wins
    q = two_filter_model()
    records = bs.select_vulnerable_bits(q, 2)
    assert records == [FlipRecord(0, 0, 0, 7), FlipRecord(0, 1, 0, 7)]


def test_select_all_zero_model_tie_break():
    arch = bs.Architecture((bs.Conv2D(1, 2, 1), bs.Flatten()), (1, 1, 1), 2)
    q = bs.QuantModel(arch, [bs.QuantParams(8, 1.0)], [np.zeros((2, 1, 1, 1), dtype=np.int16)],
                      [np.zeros(2)])
    assert bs.select_vulnerable_bits(q, 1) == [FlipRecord(0, 0, 0, 7)]


def test_select_rejects_bad_nbf():
    q = two_filter_model()
    with pytest.raises(ValueError):
        bs.select_vulnerable_bits(q, 0)
    with pytest.raises(ValueError):
        bs.select_vulnerable_bits(q, 3)  # only two weights


def test_select_every_weight_once():
    # n_bf = every weight: each filter is drained in turn, none is picked after its last weight
    q = random_qmodel(np.random.default_rng(3))
    total = sum(c.size for c in q.codes)
    picks = [(r.layer, r.filt, r.weight) for r in bs.select_vulnerable_bits(q, total)]
    assert sorted(picks) == [(l, f, w) for l, c in enumerate(q.codes)
                             for f in range(len(c)) for w in range(c[0].size)]


def test_selection_order_scale_invariant(desk):
    q = desk["qmodel"]
    scaled = bs.QuantModel(q.architecture,
                           [bs.QuantParams(p.bitwidth, p.scale * 7.5) for p in q.params],
                           [c.copy() for c in q.codes], [b.copy() for b in q.biases])
    assert bs.select_vulnerable_bits(q, 30) == bs.select_vulnerable_bits(scaled, 30)


def test_no_duplicates_fuzz():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        q = random_qmodel(rng)
        n_bf = int(rng.integers(1, 20))
        records = bs.select_vulnerable_bits(q, n_bf)
        assert len(set(records)) == len(records) == n_bf


def fl2r_reference(q, n_bf):
    """Literal FL2R: on every pick, rescore every filter of the working copy from scratch
    (L2 norm over size; a filter with every weight taken is out), take the top filter's
    largest untaken weight, record its sign bit and flip it in the working copy. Ties go
    to the lowest layer, then the lowest filter, then the lowest weight."""
    codes = [c.reshape(len(c), -1).astype(np.int64) for c in q.codes]
    taken = [np.zeros(c.shape, dtype=bool) for c in codes]
    records = []
    for _ in range(n_bf):
        best = None
        for l, (c, p) in enumerate(zip(codes, q.params)):
            for f in range(len(c)):
                row = c[f] * p.scale
                score = math.sqrt(float(np.sum(row * row))) / len(row)
                if not taken[l][f].all() and (best is None or score > best[0]):
                    best = (score, l, f)
        _, l, f = best
        sq = np.where(taken[l][f], -1.0, (codes[l][f] * q.params[l].scale) ** 2)
        w, nq = int(np.argmax(sq)), q.params[l].bitwidth
        records.append(FlipRecord(l, f, w, nq - 1))
        taken[l][f, w] = True
        codes[l][f, w] = bs.flip_bit(int(codes[l][f, w]), nq - 1, nq)
    return records


def draw_tied_qmodel(data, per_layer_nq=False):
    """A random_qmodel on a drawn architecture, its codes redrawn from -2..2 or all set to
    one value in -2..2 (so that importances and weights tie), or kept. The scales are
    powers of two, so every sum of squares is exact, and equal across layers or drawn
    per layer. The bitwidths are drawn per layer with `per_layer_nq`, else equal."""
    arch = draw_architecture(data)
    nq = data.draw(st.sampled_from(BITWIDTHS))
    q = random_qmodel(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), nq, arch)
    kind = data.draw(st.sampled_from(["small", "constant", "full"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "small":
        codes = [rng.integers(-2, 3, c.shape) for c in q.codes]
    elif kind == "constant":
        k = data.draw(st.integers(-2, 2))
        codes = [np.full(c.shape, k) for c in q.codes]
    else:
        codes = list(q.codes)
    power = st.integers(-8, 2).map(lambda e: 2.0 ** e)
    scales = ([data.draw(power)] * len(codes) if data.draw(st.booleans())
              else [data.draw(power) for _ in codes])
    nqs = [data.draw(st.sampled_from(BITWIDTHS)) if per_layer_nq else nq for _ in codes]
    codes = [np.clip(c, -(1 << (n - 1)), (1 << (n - 1)) - 1) for c, n in zip(codes, nqs)]
    return bs.QuantModel(arch, [bs.QuantParams(n, s) for n, s in zip(nqs, scales)], codes,
                         q.biases)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fl2r_matches_literal_reference_with_ties(data):
    q = draw_tied_qmodel(data)
    total = sum(c.size for c in q.codes)
    n_bf = data.draw(st.integers(1, total) | st.just(total))
    assert bs.select_vulnerable_bits(q, n_bf) == fl2r_reference(q, n_bf)


def test_apply_flips_involution(desk):
    q = desk["qmodel"]
    record = FlipRecord(1, 3, 10, 7)
    twice = bs.apply_flips(bs.apply_flips(q, [record]), [record])
    for a, b in zip(twice.codes, q.codes):
        assert np.array_equal(a, b)


def test_apply_flips_targets_named_bit(desk):
    q = desk["qmodel"]
    r = FlipRecord(0, 2, 4, 3)
    flipped = bs.apply_flips(q, [r])
    fs = filter_size(q.architecture.parametric_layers()[0][1])
    idx = r.filt * fs + r.weight
    before = int(q.codes[0].reshape(-1)[idx])
    after = int(flipped.codes[0].reshape(-1)[idx])
    assert after == bs.flip_bit(before, 3, 8)
    assert np.array_equal(flipped.codes[1], q.codes[1])


def test_apply_flips_rejects_bad_indices(desk):
    with pytest.raises(ValueError):
        bs.apply_flips(desk["qmodel"], [FlipRecord(9, 0, 0, 7)])
    with pytest.raises(ValueError):
        bs.apply_flips(desk["qmodel"], [FlipRecord(0, 999, 0, 7)])


@pytest.mark.parametrize("nq", BITWIDTHS)
def test_flip_table_equals_flip_bit_for_every_bit_and_code(nq):
    table = attack.flip_table(nq)
    assert len(table) == nq and attack.flip_table(nq) is table  # one per bitwidth, shared
    for p in range(nq):
        assert len(table[p]) == 1 << nq
        for c in range(-(1 << (nq - 1)), 1 << (nq - 1)):
            assert table[p][c] == bs.flip_bit(c, p, nq), (p, c)


def test_random_bits_deterministic_and_distinct(desk):
    a = bs.select_random_bits(desk["qmodel"], 100, seed=5)
    b = bs.select_random_bits(desk["qmodel"], 100, seed=5)
    assert a == b
    assert len(set(a)) == 100
    c = bs.select_random_bits(desk["qmodel"], 100, seed=6)
    assert a != c


def test_random_bits_layer_coverage(desk):
    # expected layer shares follow (weights x bits) mass, not layer order
    q = desk["qmodel"]
    sizes = np.array([c.size for c in q.codes], dtype=float)
    share = sizes / sizes.sum()
    counts = np.zeros(len(sizes))
    for seed in range(200):
        for r in bs.select_random_bits(q, 10, seed):
            counts[r.layer] += 1
    frac = counts / counts.sum()
    assert np.all(np.abs(frac - share) < 0.1)
    assert counts.min() > 0


def test_random_bits_valid_positions(desk):
    q = desk["qmodel"]
    layers = q.architecture.parametric_layers()
    for r in bs.select_random_bits(q, 200, seed=0):
        _, layer = layers[r.layer]
        assert 0 <= r.filt < filter_count(layer)
        assert 0 <= r.weight < filter_size(layer)
        assert 0 <= r.bit < 8


def random_bits_reference(q, n_bf, seed):
    """The same RNG call as select_random_bits, then each pick's layer found by walking
    the layers in order, subtracting each one's bit count."""
    sizes = [(c.size, p.bitwidth) for c, p in zip(q.codes, q.params)]
    rng = np.random.default_rng(seed)
    picks = rng.choice(sum(n * nq for n, nq in sizes), size=n_bf, replace=False)
    records = []
    for idx in picks.tolist():
        for l, (n, nq) in enumerate(sizes):
            if idx < n * nq:
                fs = q.codes[l][0].size
                records.append(FlipRecord(l, (idx // nq) // fs, (idx // nq) % fs, idx % nq))
                break
            idx -= n * nq
    return records


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_bits_match_layer_walk(data):
    q = draw_tied_qmodel(data, per_layer_nq=True)
    n_bf = data.draw(st.integers(1, sum(c.size for c in q.codes)))
    seed = data.draw(st.integers(0, 2**63 - 1))
    assert bs.select_random_bits(q, n_bf, seed) == random_bits_reference(q, n_bf, seed)


def test_gradient_bits_ascend_loss(desk):
    from bitsiege.synth import batch_loss
    q = desk["qmodel"]
    batch = bs.Dataset(desk["test"].inputs[:32], desk["test"].labels[:32])
    records = bs.select_gradient_bits(q, batch, 10)
    assert len(records) == 10
    assert all(r.bit == 7 for r in records)
    base = batch_loss(bs.dequantize_model(q), batch.inputs, batch.labels)
    hit = bs.apply_flips(q, records[:1])
    assert batch_loss(bs.dequantize_model(hit), batch.inputs, batch.labels) > base


def gradient_bits_reference(q, grads, n_bf):
    """One (|g|, layer, index, g) tuple per weight, sorted on (-|g|, layer, index), then
    the first n_bf whose sign flip raises the loss to first order."""
    ranked = sorted(((abs(float(g)), l, i, float(g)) for l, gl in enumerate(grads)
                     for i, g in enumerate(gl.reshape(-1))), key=lambda t: (-t[0], t[1], t[2]))
    records = []
    for _, l, i, g in ranked:
        nq, scale = q.params[l].bitwidth, q.params[l].scale
        c = int(q.codes[l].reshape(-1)[i])
        if ((-(1 << (nq - 1)) if c >= 0 else 1 << (nq - 1)) * scale) * g > 0:
            fs = q.codes[l][0].size
            records.append(FlipRecord(l, i // fs, i % fs, nq - 1))
    return records[:n_bf]


def test_gradient_bits_ties_match_tuple_sort(monkeypatch):
    # few distinct magnitudes, so most weights tie within and across layers
    rng = np.random.default_rng(8)
    q = random_qmodel(rng)
    grads = [rng.integers(-2, 3, c.shape) * 0.25 for c in q.codes]
    monkeypatch.setattr("bitsiege.attack.gradient", lambda fm, x, y: (grads, None))
    batch = bs.Dataset(np.zeros((1, 1, 6, 6)), np.zeros(1, dtype=int))
    n_aligned = len(gradient_bits_reference(q, grads, 10 ** 6))
    for n_bf in (1, 7, 40, n_aligned):
        assert bs.select_gradient_bits(q, batch, n_bf) == gradient_bits_reference(q, grads, n_bf)
    with pytest.raises(ValueError, match=f"only {n_aligned} gradient-aligned"):
        bs.select_gradient_bits(q, batch, n_aligned + 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gradient_bits_match_the_reference_across_bitwidths_and_scales(data):
    # per-layer bitwidths and scales, and few distinct magnitudes, so that most gradients
    # tie within and across layers
    q = draw_tied_qmodel(data, per_layer_nq=True)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grads = [rng.integers(-2, 3, c.shape) * 0.25 for c in q.codes]
    batch = bs.Dataset(np.zeros((1, *q.architecture.input_shape)), np.zeros(1, dtype=int))
    n_aligned = len(gradient_bits_reference(q, grads, 10 ** 6))
    n_bf = data.draw(st.integers(1, sum(c.size for c in q.codes)))
    with mock.patch.object(attack, "gradient", lambda fm, x, y: (grads, None)):
        if n_bf > n_aligned:
            with pytest.raises(ValueError, match=f"only {n_aligned} gradient-aligned"):
                bs.select_gradient_bits(q, batch, n_bf)
        else:
            assert bs.select_gradient_bits(q, batch, n_bf) == gradient_bits_reference(q, grads, n_bf)


def test_gradient_bits_rejects_empty_batch(desk):
    empty = bs.Dataset(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        bs.select_gradient_bits(desk["qmodel"], empty, 5)


@pytest.mark.parametrize("label", [4, -1])  # the desk victim has 4 classes
@pytest.mark.parametrize("score", [
    lambda desk, data: bs.accuracy(desk["model"], data),
    lambda desk, data: bs.evaluate_flips(desk["qmodel"], [FlipRecord(1, 3, 10, 7)], data),
    lambda desk, data: bs.select_gradient_bits(desk["qmodel"], data, 5)],
    ids=["accuracy", "evaluate_flips", "select_gradient_bits"])
def test_labels_outside_the_victims_classes_rejected(desk, score, label):
    labels = desk["test"].labels.copy()
    labels[-1] = label
    with pytest.raises(ValueError, match="labels"):
        score(desk, bs.Dataset(desk["test"].inputs, labels))


def test_run_attack_trace_shape(desk):
    tr = bs.run_attack(desk["qmodel"], 0.8, 3, bs.FL2R(), bs.ReconstructionMethod.CZR, 12,
                       desk["test"])
    assert len(tr.records) == 12
    assert len(tr.accuracies) == 13
    assert all(0.0 <= a <= 1.0 for a in tr.accuracies)
    assert tr.config == {"rp": 0.8, "seed": 3, "ranking": "fl2r", "recon": "czr",
                         "nq": 8, "nbf": 12}


def test_run_attack_full_recovery_matches_white_box(desk):
    direct = bs.select_vulnerable_bits(desk["qmodel"], 25)
    for recon in bs.ReconstructionMethod:
        tr = bs.run_attack(desk["qmodel"], 1.0, 0, bs.FL2R(), recon, 25, desk["test"])
        assert list(tr.records) == direct


def test_run_attack_zero_recovery_ignores_victim_bits(desk):
    # with nothing recovered the ranking must not depend on the victim's codes
    q = desk["qmodel"]
    other = bs.QuantModel(q.architecture, list(q.params),
                          [np.clip(c + 1, -128, 127).astype(np.int16) for c in q.codes],
                          [b.copy() for b in q.biases])
    ta = bs.run_attack(q, 0.0, 4, bs.FL2R(), bs.ReconstructionMethod.CZR, 8, desk["test"])
    tb = bs.run_attack(other, 0.0, 4, bs.FL2R(), bs.ReconstructionMethod.CZR, 8, desk["test"])
    assert ta.records == tb.records


def test_run_attack_flips_applied_to_victim(desk):
    tr = bs.run_attack(desk["qmodel"], 1.0, 0, bs.FL2R(), bs.ReconstructionMethod.CZR, 50,
                       desk["test"])
    assert min(tr.accuracies) < tr.accuracies[0]  # victim actually degrades


def test_trace_roundtrip(tmp_path, desk):
    tr = bs.run_attack(desk["qmodel"], 0.7, 1, bs.RandomBits(9), bs.ReconstructionMethod.ALL_ZEROS,
                       5, desk["test"])
    p = tmp_path / "t.trace"
    bs.save_trace(tr, p)
    loaded = bs.load_trace(p)
    assert loaded.records == tr.records
    assert loaded.accuracies == tr.accuracies
    assert loaded.config == tr.config


def _trace(config, nbf):
    records = [FlipRecord(i % 3, i, 2 * i, 7) for i in range(nbf)]
    return bs.AttackTrace(records, [1.0 - i / 8 for i in range(nbf + 1)], config)


@settings(max_examples=60, deadline=None)
@given(nq=st.sampled_from(BITWIDTHS), rp=st.floats(0, 1) | st.just(0.1 + 0.2),
       seed=st.integers(0, 2**63 - 1), ranking=st.sampled_from(list(RANKINGS)),
       recon=st.sampled_from(list(RECONS)), nbf=st.integers(1, 4), as_numpy=st.booleans())
def test_trace_roundtrip_every_config_value(tmp_path_factory, nq, rp, seed, ranking, recon, nbf,
                                            as_numpy):
    config = {"nq": nq, "rp": rp, "seed": seed, "ranking": ranking, "recon": recon, "nbf": nbf}
    scalars = {"nq": np.int64(nq), "rp": np.float64(rp), "seed": np.uint64(seed),
               "nbf": np.int32(nbf)}
    trace = _trace({**config, **scalars} if as_numpy else config, nbf)
    assert trace.config == config
    assert [type(v) for v in trace.config.values()] == [t for t, _, _ in RUN_CONFIG.values()]
    assert _cfg_hash(trace.config) == _cfg_hash(_trace(config, nbf).config)
    p = tmp_path_factory.mktemp("trace") / "t.trace"
    bs.save_trace(trace, p)
    loaded = bs.load_trace(p)
    assert loaded.config == config and loaded.records == trace.records
    assert [type(v) for v in loaded.config.values()] == [t for t, _, _ in RUN_CONFIG.values()]


def test_numpy_rp_run_writes_the_python_float_trace(tmp_path, desk):
    runs = [bs.run_attack(desk["qmodel"], rp, 1, bs.FL2R(), bs.ReconstructionMethod.CZR, 2,
                          desk["test"]) for rp in (0.5, np.float64(0.5))]
    assert type(runs[1].config["rp"]) is float
    assert _cfg_hash(runs[1].config) == _cfg_hash(runs[0].config)
    for i, tr in enumerate(runs):
        bs.save_trace(tr, tmp_path / f"{i}.trace")
    assert (tmp_path / "1.trace").read_bytes() == (tmp_path / "0.trace").read_bytes()
    assert bs.load_trace(tmp_path / "1.trace").config == runs[0].config


def reference_accuracies(victim, records, data):
    """Slow reference: rebuild the flipped victim and evaluate it from scratch after each flip."""
    accs, current = [bs.accuracy_quant(victim, data)], victim
    for r in records:
        current = bs.apply_flips(current, [r])
        accs.append(bs.accuracy_quant(current, data))
    return accs


@pytest.fixture(scope="module")
def victims(desk):
    return {8: desk["qmodel"], 4: bs.quantize_model(desk["model"], 4)}


@pytest.mark.parametrize("nq", [8, 4])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_evaluate_flips_matches_reference(desk, victims, nq, data):
    q = victims[nq]
    records = draw_flips(data, q)
    assert bs.evaluate_flips(q, records, desk["test"]) == reference_accuracies(q, records, desk["test"])


def draw_flips(data, q):
    """A sign and a non-sign bit in every parametric layer, some free picks, then one
    bit flipped a second time, in a drawn order."""
    nq = q.params[0].bitwidth
    layers = q.architecture.parametric_layers()

    def record(layer, bit):
        _, l = layers[layer]
        return FlipRecord(layer, data.draw(st.integers(0, filter_count(l) - 1)),
                          data.draw(st.integers(0, filter_size(l) - 1)), data.draw(bit))

    records = [record(p, st.just(nq - 1)) for p in range(len(layers))]
    records += [record(p, st.integers(0, nq - 2)) for p in range(len(layers))]
    records += [record(data.draw(st.integers(0, len(layers) - 1)), st.integers(0, nq - 1))
                for _ in range(data.draw(st.integers(0, 4)))]
    records.append(data.draw(st.sampled_from(records)))
    return data.draw(st.permutations(records))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_flip_logits_equal_fresh_forward_on_random_architectures(data):
    arch = draw_architecture(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q = random_qmodel(rng, data.draw(st.sampled_from([4, 8])), arch)
    n = data.draw(st.integers(1, 12))
    inputs = rng.standard_normal((n,) + arch.input_shape)
    eval_data = bs.Dataset(inputs, rng.integers(0, arch.num_classes, n))
    records = draw_flips(data, q)
    steps = 0
    for i, logits in enumerate(_flip_logits(q, [records], eval_data)):
        fresh = bs.forward_batch(bs.dequantize_model(bs.apply_flips(q, records[:i])), inputs)
        assert logits.tobytes() == fresh.tobytes(), f"after flip {i}"
        steps += 1
    assert steps == len(records) + 1


def check_flip_lists_on_a_random_architecture(data):
    """Several lists from one baseline pass: every list after the first starts from the
    restored workspace, which must hold no trace of the flips before it."""
    arch = draw_architecture(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q = random_qmodel(rng, data.draw(st.sampled_from([4, 8])), arch)
    n = data.draw(st.integers(1, 12))
    inputs = rng.standard_normal((n,) + arch.input_shape)
    eval_data = bs.Dataset(inputs, rng.integers(0, arch.num_classes, n))
    lists = [draw_flips(data, q) for _ in range(data.draw(st.integers(2, 3)))]
    assert_fresh_logits(_flip_logits(q, lists, eval_data), q, lists, eval_data)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_flip_lists_restart_from_the_baseline_on_random_architectures(data):
    check_flip_lists_on_a_random_architecture(data)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_flip_lists_through_the_full_gemm_on_random_architectures(data):
    with full_gemm_restarts():
        check_flip_lists_on_a_random_architecture(data)


@pytest.mark.parametrize("blocks", [True, False], ids=["probed", "full-gemm"])
@pytest.mark.parametrize("conv1_first", [False, True])
def test_lists_that_spare_conv1_restore_around_lists_that_flip_it(desk, blocks, conv1_first):
    # A list that flips only conv2 and dense weights leaves conv1's output, ReLU and pool
    # as the first pass left them, so the restore after it re-runs from conv2 on only.
    q, data = fresh_inputs(desk, 64)
    picks = bs.select_random_bits(q, 600, 4)
    by_layer = [[r for r in picks if r.layer == l] for l in range(3)]
    spare = by_layer[1][:6] + by_layer[2][:4]
    flip = by_layer[0][:3] + by_layer[1][6:9] + by_layer[0][3:5]
    dense = by_layer[2][4:8]
    lists = [flip, spare, dense, flip] if conv1_first else [spare, flip, dense, spare]
    with contextlib.nullcontext() if blocks else full_gemm_restarts():
        assert_fresh_logits(_flip_logits(q, lists, data), q, lists, data)


def fresh_logits(q, lists, data):
    """What `_flip_logits(q, lists, data)` yields, each from a fresh forward pass of the
    apply_flips victim."""
    for records in lists:
        for i in range(len(records) + 1):
            yield bs.forward_batch(bs.dequantize_model(bs.apply_flips(q, records[:i])), data.inputs)


def assert_fresh_logits(logits, q, lists, data):
    """Every array of the `_flip_logits(q, lists, data)` generator `logits` equals its
    `fresh_logits`, byte for byte, and there are as many."""
    for step, (got, fresh) in enumerate(itertools.zip_longest(logits, fresh_logits(q, lists, data))):
        assert got is not None and fresh is not None, f"step {step}: one ended first"
        assert got.tobytes() == fresh.tobytes(), f"step {step}"


def test_evaluate_flips_leaves_shared_state_alone(desk):
    q, test, model = desk["qmodel"], desk["test"], desk["model"]
    batch = bs.Dataset(test.inputs[:48], test.labels[:48])

    def training_bytes():
        dws, dbs = bs.gradient(model, batch.inputs, batch.labels)
        m = bs.train(model.architecture, batch, bs.TrainConfig(epochs=2, batch_size=16))
        return b"".join(a.tobytes() for a in dws + dbs + m.weights + m.biases)

    def inputs_bytes():
        return b"".join(a.tobytes() for a in q.codes + q.biases + [test.inputs, test.labels])

    before, inputs = training_bytes(), inputs_bytes()
    records = bs.select_vulnerable_bits(q, 30) + bs.select_random_bits(q, 30, 4)
    first = bs.evaluate_flips(q, records, test)
    assert bs.evaluate_flips(q, records, test) == first
    assert inputs_bytes() == inputs
    assert training_bytes() == before


@pytest.mark.parametrize("nq", [8, 4])
@pytest.mark.parametrize("ranking", [bs.FL2R(), bs.RandomBits(11)])
def test_run_attack_accuracies_match_reference(desk, victims, nq, ranking):
    q = victims[nq]
    tr = bs.run_attack(q, 0.8, 2, ranking, bs.ReconstructionMethod.CZR, 40, desk["test"])
    assert list(tr.accuracies) == reference_accuracies(q, tr.records, desk["test"])


@pytest.mark.parametrize("bad", [FlipRecord(3, 0, 0, 7), FlipRecord(-1, 0, 0, 7),
                                 FlipRecord(0, 8, 0, 7), FlipRecord(1, 0, 72, 7),
                                 FlipRecord(2, 0, 0, 8), FlipRecord(2, 0, 0, -1)])
def test_evaluate_flips_rejects_bad_record(desk, bad):
    good = FlipRecord(1, 3, 10, 7)
    with pytest.raises(ValueError):
        bs.evaluate_flips(desk["qmodel"], [good, bad], desk["test"])
    with pytest.raises(ValueError):
        bs.apply_flips(desk["qmodel"], [good, bad])


def test_load_trace_rejects_inconsistent_traces(tmp_path, desk):
    tr = bs.run_attack(desk["qmodel"], 1.0, 0, bs.FL2R(), bs.ReconstructionMethod.CZR, 3,
                       desk["test"])
    p = tmp_path / "t.trace"
    bs.save_trace(tr, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    flips = [l for l in lines if l.startswith("flip")]
    accs = [l for l in lines if l.startswith("acc")]
    header = lines[:7]
    cases = {
        "no config": [lines[0], flips[0], accs[0]],
        "missing rp": [l for l in lines if not l.startswith("rp ")],
        "one acc short": header + flips + accs[:-1],
        "one flip short": header + flips[:-1] + accs[:-1],
        "accuracy above 1": header + flips + accs[:-1] + ["acc 1.5"],
        "short flip line": header + flips[:-1] + ["flip 0 5"] + accs,
    }
    # values `bitsiege attack` would not accept
    for line in ("nq 9", "rp 7.5", "rp nan", "ranking rand0m", "recon czr2", "seed -1"):
        key = line.split()[0]
        cases[line] = [line if l.split()[0] == key else l for l in lines]
    cases["nbf 0"] = [l.replace("nbf 3", "nbf 0") for l in header] + accs[:1]
    # a config field given twice: the last value must not win
    nq = header.index("nq 8") + 1
    cases["nq twice"] = header[:nq] + ["nq 4"] + header[nq:] + flips + accs
    for name, text in cases.items():
        p.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=str(p)) as e:
            bs.load_trace(p)
        if name == "nq twice":
            assert f"line {nq + 1}:" in str(e.value) and "line 2" in str(e.value)
    p.write_bytes(b"bitsiege-trace-v1\nrecon \xff\n")
    with pytest.raises(ModelFormatError):
        bs.load_trace(p)


@pytest.fixture()
def pass_builds(monkeypatch):
    """How many baseline passes `_flip_logits` builds (`attack.forward_batch` calls)."""
    builds = []

    def counted(*a):
        builds.append(a[0])
        return bs.forward_batch(*a)
    monkeypatch.setattr(attack, "forward_batch", counted)
    return builds


def fresh_inputs(desk, n=200):
    """A new 8-bit desk victim and a new eval set of its first `n` test samples: objects
    that no earlier call has seen, so that no held pass was built from them."""
    test = desk["test"]
    return bs.quantize_model(desk["model"], 8), bs.Dataset(test.inputs[:n], test.labels[:n])


def test_victim_pass_serves_runs_on_one_victim_and_eval_set(desk, pass_builds):
    a, data = fresh_inputs(desk)
    b = bs.quantize_model(desk["model"], 4)
    runs = [(a, 0, bs.FL2R()), (a, 1, bs.RandomBits(5)), (b, 2, bs.FL2R()), (a, 3, bs.FL2R())]
    for q, seed, ranking in runs:
        tr = bs.run_attack(q, 0.8, seed, ranking, bs.ReconstructionMethod.CZR, 30, data)
        assert list(tr.accuracies) == reference_accuracies(q, tr.records, data)
    assert len(pass_builds) == 3  # a; the second run on a takes its pass; b; a again


def test_victim_pass_is_kept_per_eval_set(desk, pass_builds):
    q, data = fresh_inputs(desk)
    half = bs.Dataset(data.inputs[::2], data.labels[::2])
    lists = [bs.select_random_bits(q, 25, 1), bs.select_vulnerable_bits(q, 25)]
    for d in (data, half, half, data):
        assert_fresh_logits(_flip_logits(q, lists, d), q, lists, d)
    assert len(pass_builds) == 3


def test_live_generators_never_share_a_pass(desk, pass_builds):
    q, data = fresh_inputs(desk, 64)
    first, second = [bs.select_random_bits(q, 20, 2)], [bs.select_vulnerable_bits(q, 20)]
    assert_fresh_logits(_flip_logits(q, first, data), q, first, data)  # leaves a held pass
    g1, g2 = _flip_logits(q, first, data), _flip_logits(q, second, data)
    e1, e2 = fresh_logits(q, first, data), fresh_logits(q, second, data)
    for _ in range(21):
        assert next(g1).tobytes() == next(e1).tobytes()
        assert next(g2).tobytes() == next(e2).tobytes()
    assert len(pass_builds) == 2  # g1 took the held pass; g2 built its own


def test_abandoned_generator_hands_back_a_pass_that_restores(desk, pass_builds):
    q, data = fresh_inputs(desk, 64)
    lists = [bs.select_vulnerable_bits(q, 30)]
    g, expected = _flip_logits(q, lists, data), fresh_logits(q, lists, data)
    for _ in range(12):  # stopped mid-list, with flips applied
        assert next(g).tobytes() == next(expected).tobytes()
    del g
    other = [bs.select_random_bits(q, 30, 3)]
    assert_fresh_logits(_flip_logits(q, other, data), q, other, data)
    assert len(pass_builds) == 1


@pytest.fixture()
def pass_calls(monkeypatch):
    """The conv and pool calls made through `model`, in order: the weight rows of each
    `_conv2d` call, and "pool" for each `_maxpool` call."""
    calls = []

    def counted(real, entry):
        def call(*a):
            calls.append(entry(*a))
            return real(*a)
        return call
    monkeypatch.setattr(model_module, "_conv2d",
                        counted(model_module._conv2d, lambda cols, w, *rest: len(w)))
    monkeypatch.setattr(model_module, "_maxpool", counted(model_module._maxpool, lambda *a: "pool"))
    return calls


def stored_bytes(ws):
    return [a.tobytes() for a in stored_arrays(ws)]


def baseline_bytes(q, data):
    """`stored_bytes` of a fresh Workspace after the first pass of the victim `q`."""
    fm = bs.dequantize_model(q)
    ws = Workspace(fm.architecture, fm.weights, fm.biases)
    bs.forward_batch(fm, data.inputs, ws)
    return stored_bytes(ws)


def desk_flips(q, n=5):
    """Up to `n` random flips in each parametric layer of the desk victim `q`."""
    picks = bs.select_random_bits(q, 600, 4)
    return [[r for r in picks if r.layer == l][:n] for l in range(3)]


# the desk's convs have 8 and 16 filters; its one pool follows conv1
RESET_CALLS = {0: [8, "pool", 16], 1: [16], 2: [], None: []}


def test_a_reset_re_runs_from_the_lowest_layer_flipped_since_the_last_one(desk, pass_calls):
    # after flips in layer l only, one full GEMM per conv from l on; with nothing
    # flipped since the last reset, no conv and no pool. Either way, the baseline pass.
    q, data = fresh_inputs(desk, 64)
    by_layer, base = desk_flips(q), baseline_bytes(q, data)
    list(_flip_logits(q, [by_layer[2]], data))
    vp = attack._held.victim_pass
    for lowest, lists in ((2, []), (None, []), (1, [by_layer[1]]), (0, [by_layer[0]]),
                          (1, [by_layer[2] + by_layer[1]]), (0, [by_layer[1], by_layer[0]])):
        list(_flip_logits(q, lists, data))  # hands vp back, with the last list's flips in
        assert attack._held.victim_pass is vp
        assert vp.lowest == (3 if lowest is None else lowest)
        pass_calls.clear()
        vp.reset()
        assert pass_calls == RESET_CALLS[lowest], lowest
        assert stored_bytes(vp.ws) == base, lowest


@pytest.mark.parametrize("steps, lowest", [(4, 1), (5, 0), (8, 0)])
def test_a_pass_handed_back_mid_list_resets_from_the_lowest_layer_flipped_so_far(
        desk, pass_calls, steps, lowest):
    q, data = fresh_inputs(desk, 64)
    by_layer = desk_flips(q, 3)
    flips = by_layer[1] + by_layer[0][:1] + by_layer[2]
    g = _flip_logits(q, [flips], data)
    for _ in range(steps):  # the baseline, then steps - 1 flips: 3 in conv2, 1 in conv1, ...
        next(g)
    g.close()
    vp = attack._held.victim_pass
    assert vp.lowest == lowest
    pass_calls.clear()
    vp.reset()
    assert pass_calls == RESET_CALLS[lowest]
    assert stored_bytes(vp.ws) == baseline_bytes(q, data)


def test_a_victim_pass_holds_one_copy_of_the_baseline_pass(desk):
    # the baseline is rebuilt by re-running (`_VictimPass.reset`), not kept twice
    q, test = desk["qmodel"], desk["test"]
    tracemalloc.start()
    try:
        vp = attack._VictimPass(q, test)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept = []  # the stored arrays, one per block of memory; each view here spans its base
    for a in sorted(stored_arrays(vp.ws), key=lambda a: -a.nbytes):
        if not any(np.may_share_memory(a, b) for b in kept + [test.inputs]):
            kept.append(a)
    copies = vp.codes + vp.weights + vp.fm.weights
    assert held < sum(a.nbytes for a in kept + copies) + 64 * 1024


def test_a_call_on_another_victim_frees_the_held_pass(desk, monkeypatch):
    a, data = fresh_inputs(desk, 32)
    alive = weakref.ref(a)
    assert len(list(_flip_logits(a, [bs.select_vulnerable_bits(a, 5)], data))) == 6
    del a
    assert alive() is not None  # the held pass keeps its victim
    seen = []

    def forward(*args):  # b's pass is built only once a's is gone
        seen.append(alive())
        return bs.forward_batch(*args)
    monkeypatch.setattr(attack, "forward_batch", forward)
    b = bs.quantize_model(desk["model"], 4)
    assert len(list(_flip_logits(b, [bs.select_vulnerable_bits(b, 5)], data))) == 6
    assert seen == [None] and alive() is None


def nine_pairs(seed, recons=tuple(RECONS)):
    """Every (ranking, recon) pair of a sweep group, in sweep order."""
    return [(RANKINGS[r](seed), RECONS[c]) for r in RANKINGS for c in recons]


@pytest.mark.parametrize("rp", [0.5, 1.0])
def test_run_attacks_equals_run_attack_pair_by_pair(desk, tmp_path, rp):
    q, test = desk["qmodel"], desk["test"]
    methods = nine_pairs(3)
    traces = attack.run_attacks(q, rp, 3, methods, 20, test)
    assert len(traces) == len(methods)
    got, ref = tmp_path / "got.trace", tmp_path / "ref.trace"
    for (ranking, recon), tr in zip(methods, traces):
        alone = bs.run_attack(q, rp, 3, ranking, recon, 20, test)
        assert tr.records == alone.records and tr.accuracies == alone.accuracies
        assert tr.config == alone.config
        bs.save_trace(tr, got)
        bs.save_trace(alone, ref)
        assert got.read_bytes() == ref.read_bytes(), (ranking.name, recon.value)


@pytest.fixture()
def work_counts(monkeypatch):
    """Calls of FL2R, random and gradient ranking, and per-flip restarts, made through
    `attack`."""
    counts = {"fl2r": 0, "random": 0, "gradient": 0, "restart": 0}

    def counted(key, fn):
        def call(*a):
            counts[key] += 1
            return fn(*a)
        return call
    monkeypatch.setattr(attack, "select_vulnerable_bits",
                        counted("fl2r", attack.select_vulnerable_bits))
    monkeypatch.setattr(attack, "select_random_bits",
                        counted("random", attack.select_random_bits))
    monkeypatch.setattr(attack, "select_gradient_bits",
                        counted("gradient", attack.select_gradient_bits))
    restart = Workspace.restart

    def per_flip(ws, p, f=None):  # a reset's restart of every filter is not counted
        counts["restart"] += f is not None
        return restart(ws, p, f)
    monkeypatch.setattr(Workspace, "restart", per_flip)
    return counts


def test_a_group_at_full_recovery_ranks_once_and_evaluates_each_list_once(desk, work_counts):
    # every recon gives the victim's codes: one FL2R, one random and one gradient list
    traces = attack.run_attacks(desk["qmodel"], 1.0, 2, nine_pairs(2), 12, desk["test"])
    assert len({t.records for t in traces}) == 3
    assert work_counts == {"fl2r": 1, "random": 1, "gradient": 1, "restart": 3 * 12}


def test_a_group_below_full_recovery_evaluates_each_distinct_list_once(desk, work_counts):
    traces = attack.run_attacks(desk["qmodel"], 0.5, 2, nine_pairs(2), 12, desk["test"])
    distinct = {t.records for t in traces}
    # the random list, ranked once, repeats across the recons; the surrogates differ, and
    # so their FL2R and gradient lists
    assert len(distinct) == 7
    assert work_counts == {"fl2r": 3, "random": 1, "gradient": 3, "restart": 12 * len(distinct)}


def test_run_attacks_raises_the_gradient_error_of_the_first_pair_that_fails(desk):
    q, test = desk["qmodel"], desk["test"]
    batch = bs.Dataset(test.inputs[:32], test.labels[:32])
    partial = bs.simulate_recovery(q, 0.5, 0)

    def error(recon):  # the gradient ranking's error on recon's surrogate, or None
        try:
            bs.select_gradient_bits(bs.reconstruct_model(partial, RECONS[recon]), batch, 470)
        except ValueError as e:
            return str(e)
    errors = {recon: error(recon) for recon in ("allzeros", "allones", "czr")}
    # allzeros has enough aligned flips; allones fails first, and czr with another count
    assert errors["allzeros"] is None and errors["allones"] and errors["czr"]
    assert errors["allones"] != errors["czr"]
    with pytest.raises(ValueError) as e:
        attack.run_attacks(q, 0.5, 0, nine_pairs(0, ("allzeros", "allones", "czr")), 470, test)
    assert str(e.value) == errors["allones"]


def pool_bwd_reference(x, w, out, dout):
    """`_pool_bwd` as argmax over each window's w * w entries and `put_along_axis`;
    `out` is not used."""
    n, c, h, wd = x.shape
    xr = x.reshape(n, c, h // w, w, wd // w, w).transpose(0, 1, 2, 4, 3, 5) \
          .reshape(n, c, h // w, wd // w, w * w)
    idx = xr.argmax(axis=-1)
    dxr = np.zeros((n, c, h // w, wd // w, w * w))
    np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
    return dxr.reshape(n, c, h // w, wd // w, w, w).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, wd)


def conv_bwd_reference(cols, w, stride, padding, x_shape, dout, input_grad=True):
    """`_conv_bwd` with col2im into a padded (C, N, H', W') buffer."""
    n, c, h, wd = x_shape
    o, _, k, _ = w.shape
    ho, wo = dout.shape[2], dout.shape[3]
    d2 = dout.transpose(1, 0, 2, 3).reshape(o, -1)
    dw = (d2 @ cols.T).reshape(w.shape)
    db = dout.sum(axis=(0, 2, 3))
    if not input_grad:
        return dw, db, None
    dcols = (w.reshape(o, -1).T @ d2).reshape(c, k, k, n, ho, wo)
    dxp = np.zeros((c, n, h + 2 * padding, wd + 2 * padding))
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, i, j]
    dx = dxp[:, :, padding:padding + h, padding:padding + wd].transpose(1, 0, 2, 3)
    return dw, db, dx


def same_bits(a, b):
    """`a` and `b` hold the same bits, every NaN taken as the one NaN: numpy's add loops
    return one operand's NaN or the other's, by the loop a layout takes, so a NaN's sign
    says which loop ran, not what was summed."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(np.isnan(a), np.isnan(b)) and \
        np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_conv_backward_matches_the_reference_bit_for_bit(data):
    n, c, o = (data.draw(st.integers(1, 4)) for _ in range(3))
    k, stride, padding = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), \
        data.draw(st.integers(0, 1))
    h, wd = (max(1, k - 2 * padding) + data.draw(st.integers(0, 4)) for _ in range(2))
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, c, h, wd))
    w = {"zero": np.zeros((o, c, k, k)), "normal": rng.standard_normal((o, c, k, k)),
         "tied": rng.choice([-0.5, -0.0, 0.0, 1.0], (o, c, k, k))}[
        data.draw(st.sampled_from(["zero", "normal", "tied"]))]
    dout = rng.choice([np.nan, -np.inf, np.inf, -0.0, 0.0, 1.5, -2.25], (n, o, ho, wo)) \
        if data.draw(st.booleans()) else rng.standard_normal((n, o, ho, wo))
    cols = model_module._patches(x, k, stride, padding)
    with np.errstate(invalid="ignore"):  # inf - inf, inf * 0.0
        ref = conv_bwd_reference(cols, w, stride, padding, x.shape, dout)
        for plain in (True, False):
            got = _conv_bwd(cols, w, stride, padding, x.shape, dout, plain_layout=plain)
            assert all(same_bits(g, r) for g, r in zip(got, ref))
            # the layout a conv's db reads, where it may; the pool's, batch innermost
            assert got[2].strides == ref[2].strides if plain else \
                got[2].strides[0] == got[2].itemsize
        assert _conv_bwd(cols, w, stride, padding, x.shape, dout, input_grad=False)[2] is None


def reference_backward(arch, weights, ws, d, grads=None):
    """`backward_layers` before the ReLU fold: the ReLU step `d * (x > 0)` on the full grid,
    `pool_bwd_reference` and `conv_bwd_reference`; (weight grads, bias grads). `grads`: a
    dict that receives the input gradient of every layer, {pos: gradient}; the backward then
    runs down to the batch."""
    dws, dbs, p = [None] * len(weights), [None] * len(weights), len(weights)
    for pos in reversed(range(len(arch.layers))):
        if not p and grads is None:
            break
        layer, x = arch.layers[pos], ws.input(pos)
        if isinstance(layer, bs.Conv2D):
            p -= 1
            dws[p], dbs[p], d = conv_bwd_reference(x, weights[p], layer.stride, layer.padding,
                                                   (len(d),) + arch.shapes[pos], d,
                                                   input_grad=p > 0 or grads is not None)
        elif isinstance(layer, bs.Dense):
            p -= 1
            dws[p], dbs[p], d = d.T @ x, d.sum(axis=0), d @ weights[p]
        elif isinstance(layer, bs.ReLU):
            d = d * (x > 0)
        elif isinstance(layer, bs.MaxPool):
            d = pool_bwd_reference(x, layer.window, ws.acts[pos + 1], d)
        else:
            d = d.reshape(x.shape)
        if grads is not None:
            grads[pos] = d
    return dws, dbs


def live_input_gradients(arch, weights, ws, d):
    """The input gradients of the live `_conv_bwd` and `_pool_bwd`, called as
    `backward_layers` calls them, down to the batch: {pos: gradient at layer pos's input}.
    A ReLU under a MaxPool has the pool's, which holds the ReLU's step; the pool has none.
    Also {pos: whether the input gradient of conv pos goes to a MaxPool}."""
    layers, grads, to_pool, p = arch.layers, {}, {}, len(weights)
    for pos in reversed(range(len(layers))):
        layer, x = layers[pos], ws.input(pos)
        below = layers[pos - 1] if pos else None
        if isinstance(layer, bs.Conv2D):
            p -= 1
            to_pool[pos] = isinstance(below, bs.MaxPool)
            d = _conv_bwd(x, weights[p], layer.stride, layer.padding,
                          (len(d),) + arch.shapes[pos], d, plain_layout=not to_pool[pos])[2]
        elif isinstance(layer, bs.Dense):
            p -= 1
            d = d @ weights[p]
        elif isinstance(layer, bs.ReLU):
            if pos + 1 < len(layers) and isinstance(layers[pos + 1], bs.MaxPool):
                continue  # folded into the pool above
            d = d * (x > 0)
        elif isinstance(layer, bs.MaxPool):
            relu = isinstance(below, bs.ReLU)
            d = _pool_bwd(x, layer.window, ws.acts[pos + 1], d, relu=relu)
            pos -= relu  # the gradient at the folded ReLU's input
        else:
            d = d.reshape(x.shape)
        grads[pos] = d
    return grads, to_pool


def assert_gradients_match_reference(model, inputs, labels):
    """The gradients of `backward_layers` equal those of the unfused reference byte for
    byte, and so does the input gradient of every layer from the live `_conv_bwd` and
    `_pool_bwd`; each with the reference's strides where a conv's db may read it: all but
    a conv's input gradient that goes to a MaxPool, which reads it only elementwise."""
    arch = model.architecture
    ws = Workspace(arch, model.weights, model.biases)
    logits = forward_layers(arch, model.weights, model.biases, inputs, ws)
    _, dlogits = _softmax_ce(logits, labels)
    got = backward_layers(arch, model.weights, ws, dlogits)
    ref = reference_backward(arch, model.weights, ws, dlogits)
    for g, r in zip(got[0] + got[1], ref[0] + ref[1]):
        assert g.tobytes() == r.tobytes()
    ref_grads = {}
    reference_backward(arch, model.weights, ws, dlogits, ref_grads)
    live, to_pool = live_input_gradients(arch, model.weights, ws, dlogits)
    for pos, g in live.items():
        r = ref_grads[pos]
        assert g.tobytes() == r.tobytes()
        assert to_pool.get(pos) or g.strides == r.strides


def tied(rng, shape):
    """Inputs drawn from a few values, -0.0 among them: under weights of a few values, many
    pool windows hold equal maxima, or only ReLU zeros."""
    return rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], shape)


def test_backward_skips_only_the_first_input_gradient_on_the_desk_victim(desk):
    test = desk["test"]
    assert_gradients_match_reference(desk["model"], test.inputs[:32], test.labels[:32])


@pytest.mark.parametrize("ties", [False, True])
def test_backward_matches_the_reference_on_a_16x16_desk_architecture(ties):
    rng = np.random.default_rng(5)
    arch = bs.desk_architecture(4, (1, 16, 16))
    model = bs.dequantize_model(random_qmodel(rng, 4 if ties else 8, arch))
    _, test = bs.gen_synthetic(bs.SynthSpec(input_shape=(1, 16, 16), test_per_class=8))
    inputs = tied(rng, test.inputs.shape) if ties else test.inputs
    assert_gradients_match_reference(model, inputs, test.labels)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_backward_skips_only_the_first_input_gradient_on_random_architectures(data):
    arch = draw_architecture(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ties = data.draw(st.booleans())
    model = bs.dequantize_model(random_qmodel(rng, 4 if ties else 8, arch))
    n = data.draw(st.integers(1, 12))
    shape = (n,) + arch.input_shape
    assert_gradients_match_reference(model, tied(rng, shape) if ties else rng.standard_normal(shape),
                                     rng.integers(0, arch.num_classes, n))


def test_pool_backward_sends_each_window_to_its_first_maximum():
    # windows: a NaN maximum (its first NaN), two equal maxima, and 0.0 against -0.0
    x = np.array([[[[1.0, np.nan, 2.0, 2.0, -0.0, 0.0], [np.nan, 0.0, -0.0, 0.0, 0.0, -0.0]]]])
    out, dout = _maxpool(x, 2), np.array([[[[3.0, -4.0, -0.0]]]])
    got = _pool_bwd(x, 2, out, dout)
    assert got.tobytes() == np.array([[[[0.0, 3.0, -4.0, 0.0, -0.0, 0.0], [0.0] * 6]]]).tobytes()
    assert got.tobytes() == pool_bwd_reference(x, 2, out, dout).tobytes()


@pytest.mark.parametrize("w", [1, 2, 3])
def test_pool_backward_matches_the_reference_on_ties_signed_zeros_and_nans(w):
    rng = np.random.default_rng(w)
    for _ in range(30):
        n, c, ho, wo = rng.integers(1, 4, 4)
        values = [np.nan, -np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]
        x = rng.choice(values, (c, n, ho * w, wo * w)).transpose(1, 0, 2, 3)  # a conv's layout
        out, dout = _maxpool(x, w), rng.choice([-2.0, -0.0, 0.0, 3.0], (n, c, ho, wo))
        got, ref = _pool_bwd(x, w, out, dout), pool_bwd_reference(x, w, out, dout)
        assert got.tobytes() == ref.tobytes() and got.strides == ref.strides


@pytest.mark.parametrize("w", [1, 2, 3])
def test_pool_backward_with_the_relu_folded_in_matches_the_reference(w):
    # the ReLU's input holds NaNs, infinities and zeros of both signs; dout comes in the
    # (H, W, C, N) layout of the col2im accumulator of a conv above
    rng = np.random.default_rng(10 + w)
    values = [np.nan, -np.inf, -1.0, -0.0, 0.0, 1.0, np.inf]
    for _ in range(30):
        n, c, ho, wo = rng.integers(1, 4, 4)
        conv = rng.choice(values, (c, n, ho * w, wo * w)).transpose(1, 0, 2, 3)
        x = np.maximum(conv, 0.0)
        out = _maxpool(x, w)
        dout = rng.choice([-2.0, -0.0, 0.0, 3.0, np.inf, np.nan], (ho, wo, c, n)).transpose(3, 2, 0, 1)
        with np.errstate(invalid="ignore"):  # inf * 0.0
            got = _pool_bwd(x, w, out, dout, relu=True)
            ref = pool_bwd_reference(x, w, out, dout) * (conv > 0)
        assert got.tobytes() == ref.tobytes() and got.flags.c_contiguous


def test_training_with_the_reference_backward_gives_the_same_weights(monkeypatch):
    spec = bs.SynthSpec(input_shape=(1, 16, 16), per_class=40)
    train, _ = bs.gen_synthetic(spec)
    arch, cfg = bs.desk_architecture(spec.classes, spec.input_shape), bs.TrainConfig(epochs=2)
    live = bs.train(arch, train, cfg)
    monkeypatch.setattr(synth_module, "backward_layers", reference_backward)
    ref = bs.train(arch, train, cfg)
    for a, b in zip(live.weights + live.biases, ref.weights + ref.biases):
        assert a.tobytes() == b.tobytes()
