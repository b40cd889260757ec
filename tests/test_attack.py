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
from bitsiege.attack import RANKINGS, RECONS, RUN_CONFIG, FlipRecord, _score_flips
from bitsiege.cli import _cfg_hash
from bitsiege.model import CHUNK, Workspace, backward_layers
from bitsiege.model import _conv_bwd, _maxpool, _pool_bwd, filter_count, weight_shape
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


def test_apply_flips_targets_named_bit(desk):
    q = desk["qmodel"]
    r = FlipRecord(0, 2, 4, 3)
    flipped = bs.apply_flips(q, [r])
    fs = math.prod(weight_shape(q.architecture.parametric_layers()[0][1])[1:])
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
        assert 0 <= r.weight < math.prod(weight_shape(layer)[1:])
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
    monkeypatch.setattr("bitsiege.attack._gradient", lambda q, batch: grads)
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
    with mock.patch.object(attack, "_gradient", lambda q, batch: grads):
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


def test_evaluate_flips_matches_reference_on_several_chunks(desk, victims, no_held_pass):
    # two full chunks and a short one: each chunk's Workspace flips, and each prefix's
    # accuracy is accuracy_quant's, which scores the same chunks
    n = 2 * CHUNK + 37
    data = bs.Dataset(desk["train"].inputs[:n], desk["train"].labels[:n])
    for q in victims.values():
        records = bs.select_vulnerable_bits(q, 25) + bs.select_random_bits(q, 25, 6)
        assert bs.evaluate_flips(q, records, data) == reference_accuracies(q, records, data)
    assert [len(ws.acts[0]) for ws in attack._held.victim_pass.workspaces] == [CHUNK, CHUNK, 37]


def draw_flips(data, q):
    """A sign and a non-sign bit in every parametric layer, some free picks, then one
    bit flipped a second time, in a drawn order."""
    nq = q.params[0].bitwidth
    layers = q.architecture.parametric_layers()

    def record(layer, bit):
        _, l = layers[layer]
        size = math.prod(weight_shape(l)[1:])
        return FlipRecord(layer, data.draw(st.integers(0, filter_count(l) - 1)),
                          data.draw(st.integers(0, size - 1)), data.draw(bit))

    records = [record(p, st.just(nq - 1)) for p in range(len(layers))]
    records += [record(p, st.integers(0, nq - 2)) for p in range(len(layers))]
    records += [record(data.draw(st.integers(0, len(layers) - 1)), st.integers(0, nq - 1))
                for _ in range(data.draw(st.integers(0, 4)))]
    records.append(data.draw(st.sampled_from(records)))
    return data.draw(st.permutations(records))


def check_flip_lists_on_a_random_architecture(data):
    """One to three lists from one baseline pass: every list after the first starts from
    the restored workspace, which must hold no trace of the flips before it."""
    arch = draw_architecture(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q = random_qmodel(rng, data.draw(st.sampled_from([4, 8])), arch)
    n = data.draw(st.integers(1, 12))
    inputs = rng.standard_normal((n,) + arch.input_shape)
    eval_data = bs.Dataset(inputs, rng.integers(0, arch.num_classes, n))
    lists = [draw_flips(data, q) for _ in range(data.draw(st.integers(1, 3)))]
    assert_fresh_logits(_score_flips(q, lists, eval_data, keep_bytes), q, lists, eval_data)


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
        assert_fresh_logits(_score_flips(q, lists, data, keep_bytes), q, lists, data)


def keep_bytes(logits):
    """A `_score_flips` score that keeps the bytes of the logits it is given."""
    return logits.tobytes()


def fresh_logits(q, lists, data):
    """What `_score_flips(q, lists, data, keep_bytes)` returns, each from a fresh forward
    pass of the apply_flips victim."""
    return [[bs.forward_batch(bs.dequantize_model(bs.apply_flips(q, records[:i])),
                              data.inputs).tobytes() for i in range(len(records) + 1)]
            for records in lists]


def assert_fresh_logits(scores, q, lists, data):
    """`scores`, what `_score_flips(q, lists, data, keep_bytes)` returned, equals its
    `fresh_logits`: as many lists, as many steps in each, every one byte for byte."""
    fresh = fresh_logits(q, lists, data)
    assert [len(got) for got in scores] == [len(want) for want in fresh]
    for k, (got, want) in enumerate(zip(scores, fresh)):
        for step, (a, b) in enumerate(zip(got, want)):
            assert a == b, f"list {k}, step {step}"


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


@pytest.fixture()
def pass_builds(monkeypatch, no_held_pass):
    """The passes `attack` builds (`attack.Workspace` calls), as the batch each runs,
    from a thread that holds none."""
    builds = []

    def counted(*a):
        builds.append(a[3])
        return Workspace(*a)
    monkeypatch.setattr(attack, "Workspace", counted)
    return builds


def fresh_inputs(desk, n=200):
    """A new 8-bit desk victim and a new eval set of its first `n` test samples."""
    test = desk["test"]
    return bs.quantize_model(desk["model"], 8), bs.Dataset(test.inputs[:n], test.labels[:n])


def other_codes(q, seed):
    """A victim of q's architecture, biases and bitwidths, with other random codes and scales."""
    rng = np.random.default_rng(seed)
    params = [bs.QuantParams(qp.bitwidth, qp.scale * rng.uniform(0.5, 2)) for qp in q.params]
    codes = [rng.integers(-(1 << (qp.bitwidth - 1)), 1 << (qp.bitwidth - 1), c.shape)
             for qp, c in zip(q.params, q.codes)]
    return bs.QuantModel(q.architecture, params, codes, q.biases)


def test_victim_pass_serves_runs_on_one_victim_and_eval_set(desk, pass_builds):
    a, data = fresh_inputs(desk)
    b = bs.quantize_model(desk["model"], 4)
    runs = [(a, 0, bs.FL2R()), (a, 1, bs.RandomBits(5)), (b, 2, bs.FL2R()), (a, 3, bs.FL2R())]
    for q, seed, ranking in runs:
        tr = bs.run_attack(q, 0.8, seed, ranking, bs.ReconstructionMethod.CZR, 30, data)
        assert list(tr.accuracies) == reference_accuracies(q, tr.records, data)
    # a's pass; the second run on a takes it over, and b, then a again, re-aim it
    assert len(pass_builds) == 1


def test_a_pass_re_aimed_at_another_victim_gives_a_fresh_pass_bytes(desk, pass_builds):
    a, data = fresh_inputs(desk, 64)
    copy = bs.Dataset(data.inputs.copy(), data.labels.copy())  # the same bytes, another object
    # a's codes at other 8-bit scales: only the weight of each code changes
    rescaled = bs.QuantModel(a.architecture, [bs.QuantParams(8, qp.scale * 1.5) for qp in a.params],
                             a.codes, a.biases)
    calls = [(a, data), (rescaled, data), (bs.quantize_model(desk["model"], 4), copy),
             (other_codes(a, 1), data), (a, copy)]
    for q, d in calls:
        lists = [bs.select_vulnerable_bits(q, 20), bs.select_random_bits(q, 20, 1)]
        assert_fresh_logits(_score_flips(q, lists, d, keep_bytes), q, lists, d)
        assert attack._held.victim_pass.model is q
    assert len(pass_builds) == 1


def nudged(a):
    """A copy of the array `a` with its first entry one ulp up."""
    out = a.copy()
    out.reshape(-1)[0] = np.nextafter(out.reshape(-1)[0], np.inf)
    return out


def test_a_victim_with_other_biases_or_eval_bytes_gets_a_new_pass(desk, pass_builds):
    a, data = fresh_inputs(desk, 64)
    biased = bs.QuantModel(a.architecture, a.params, a.codes, [nudged(b) for b in a.biases])
    moved = bs.Dataset(nudged(data.inputs), data.labels)  # the same shape, other bytes
    calls = [(a, data), (biased, data), (a, data), (a, moved), (a, data)]
    for q, d in calls:
        lists = [bs.select_vulnerable_bits(q, 20)]
        assert_fresh_logits(_score_flips(q, lists, d, keep_bytes), q, lists, d)
    assert len(pass_builds) == len(calls)


def test_victim_pass_is_kept_per_eval_set(desk, pass_builds):
    q, data = fresh_inputs(desk)
    half = bs.Dataset(data.inputs[::2], data.labels[::2])
    lists = [bs.select_random_bits(q, 25, 1), bs.select_vulnerable_bits(q, 25)]
    for d in (data, half, half, data):
        assert_fresh_logits(_score_flips(q, lists, d, keep_bytes), q, lists, d)
    assert len(pass_builds) == 3


def test_the_held_gradient_pass_gives_synth_gradient_bytes(desk, pass_builds):
    q, test = desk["qmodel"], desk["test"]
    batch, other = (bs.Dataset(test.inputs[i:i + 32], test.labels[i:i + 32]) for i in (0, 32))
    partial = bs.simulate_recovery(q, 0.5, 1)
    surrogates = [bs.reconstruct_model(partial, m) for m in bs.ReconstructionMethod]
    for s, b in [(s, batch) for s in surrogates] + [(surrogates[0], other)]:
        want, _ = synth_module.gradient(bs.dequantize_model(s), b.inputs, b.labels)
        assert [g.tobytes() for g in attack._gradient(s, b)] == [g.tobytes() for g in want]
    assert len(pass_builds) == 2  # one per batch


def test_the_gradient_batch_pass_flips_and_backpropagates_a_fresh_pass_bytes(desk):
    # each flip of two lists, the second after `reset`, then backprop through the pass
    q, test = desk["qmodel"], desk["test"]
    batch = bs.Dataset(test.inputs[:32], test.labels[:32])
    s = bs.reconstruct_model(bs.simulate_recovery(q, 0.5, 1), bs.ReconstructionMethod.CZR)
    recs = [r for pair in zip(bs.select_vulnerable_bits(s, 15), bs.select_random_bits(s, 15, 2))
            for r in pair]
    held = attack._FlipPass(s, batch.inputs)
    for records in (recs, recs[::-1]):
        held.reset()
        for i, site in enumerate(attack._flip_sites(s, records), 1):
            held.flip(*site)
            got = synth_module.backprop(held.workspaces[0], batch.labels)
            flipped = bs.dequantize_model(bs.apply_flips(s, records[:i]))
            want = (synth_module.batch_loss(flipped, batch.inputs, batch.labels),
                    *synth_module.gradient(flipped, batch.inputs, batch.labels))
            assert got[0] == want[0], i
            for a, b in zip(got[1] + got[2], want[1] + want[2]):
                assert a.tobytes() == b.tobytes(), i


class ScoreRaised(Exception):
    pass


def raise_at(step):
    """A `_score_flips` score that raises ScoreRaised at its `step`th call (the baseline
    is the first), and before that keeps the logits' bytes."""
    calls = itertools.count(1)

    def raising(logits):
        if next(calls) == step:
            raise ScoreRaised
        return keep_bytes(logits)
    return raising


def test_a_pass_handed_back_by_a_score_that_raised_serves_the_next_call(desk, pass_builds):
    q, data = fresh_inputs(desk, 64)
    lists = [bs.select_vulnerable_bits(q, 30)]
    with pytest.raises(ScoreRaised):  # mid-list, with 11 flips applied
        _score_flips(q, lists, data, raise_at(12))
    other = [bs.select_random_bits(q, 30, 3)]
    assert_fresh_logits(_score_flips(q, other, data, keep_bytes), q, other, data)
    assert len(pass_builds) == 1


def test_a_batch_pass_handed_back_by_a_backward_that_raised_serves_the_next_call(
        desk, pass_builds):
    q, test = desk["qmodel"], desk["test"]
    batch = bs.Dataset(test.inputs[:32], test.labels[:32])
    labels = batch.labels.copy()
    labels[5] = q.architecture.num_classes  # past the logits' last column
    with pytest.raises(IndexError):  # `_softmax_ce` indexes the log-probabilities by label
        attack._gradient(q, bs.Dataset(batch.inputs, labels))
    held = attack._held.batch_pass
    assert held is not None and held.model is q
    want, _ = synth_module.gradient(bs.dequantize_model(q), batch.inputs, batch.labels)
    assert [g.tobytes() for g in attack._gradient(q, batch)] == [g.tobytes() for g in want]
    assert attack._held.batch_pass is held
    assert len(pass_builds) == 1


def test_a_score_that_re_enters_the_evaluator_gets_its_own_pass(desk, pass_builds):
    q, data = fresh_inputs(desk, 64)
    outer, inner = [bs.select_random_bits(q, 20, 2)], [bs.select_vulnerable_bits(q, 20)]
    steps, inner_scores = itertools.count(1), []

    def score(logits):  # at the outer list's sixth step, with five of its flips applied
        if next(steps) == 6:
            inner_scores.append(_score_flips(q, inner, data, keep_bytes))
        return keep_bytes(logits)
    assert_fresh_logits(_score_flips(q, outer, data, score), q, outer, data)
    (got,) = inner_scores
    assert_fresh_logits(got, q, inner, data)
    assert len(pass_builds) == 2  # the inner call found no held pass and built its own


def test_no_lists_build_no_pass(desk, pass_builds):
    q, data = fresh_inputs(desk, 64)
    assert _score_flips(q, [], data, keep_bytes) == []
    assert attack.run_attacks(q, 0.8, 0, [], 5, data) == []
    assert pass_builds == []


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


def desk_flips(q, n=5):
    """Up to `n` random flips in each parametric layer of the desk victim `q`."""
    picks = bs.select_random_bits(q, 600, 4)
    return [[r for r in picks if r.layer == l][:n] for l in range(3)]


# the desk's convs have 8 and 16 filters; its one pool follows conv1. The calls of a
# restart of every filter from each parametric layer on
FULL_CALLS = {0: [8, "pool", 16], 1: [16], 2: []}


def first_flip_calls(q, lists, data, pass_calls):
    """The conv and pool calls of the first flip of `_score_flips(q, lists, data, ...)`,
    whose logits are checked against fresh passes."""
    steps, seen = itertools.count(1), []

    def score(logits):  # the baseline is the first step, the first flip the second
        if next(steps) == 2:
            seen.append(list(pass_calls))
        return keep_bytes(logits)
    pass_calls.clear()
    assert_fresh_logits(_score_flips(q, lists, data, score), q, lists, data)
    return seen[0]


def test_a_list_re_runs_from_the_lowest_layer_flipped_since_the_last_one(
        desk, pass_builds, pass_calls):
    # a list's first flip at or above the lowest layer another list flipped re-runs every
    # filter from that layer on; below it, its own restart re-runs every later layer
    q, data = fresh_inputs(desk, 64)
    by_layer = desk_flips(q)
    first_flip_calls(q, [by_layer[2]], data, pass_calls)
    (ws,) = attack._held.victim_pass.workspaces
    block = [2 if ws.two_row_blocks(pos) else n for pos, n in ((0, 8), (3, 16))]
    for first, calls in ((2, []), (1, [block[1]]), (1, FULL_CALLS[1]),
                         (0, [block[0], "pool", 16]), (2, FULL_CALLS[0]), (2, [])):
        assert first_flip_calls(q, [by_layer[first]], data, pass_calls) == calls, first
    assert len(pass_builds) == 1


@pytest.mark.parametrize("before", [0, 1, 2])
@pytest.mark.parametrize("first", [0, 1, 2])
def test_a_list_starting_below_at_or_above_the_last_lists_lowest_layer_is_fresh(
        desk, before, first):
    q, data = fresh_inputs(desk, 64)
    by_layer = desk_flips(q, 3)
    # the list before flips layer `before` only; the next starts at layer `first`
    rest = [r for l in (2, 0, 1) for r in by_layer[l][1:]]
    lists = [by_layer[before], [by_layer[first][0]] + rest, by_layer[before][::-1]]
    assert_fresh_logits(_score_flips(q, lists, data, keep_bytes), q, lists, data)


@pytest.mark.parametrize("steps, lowest", [(4, 1), (5, 0), (8, 0)])
def test_a_pass_handed_back_mid_list_resets_from_the_lowest_layer_flipped_so_far(
        desk, pass_builds, pass_calls, steps, lowest):
    q, data = fresh_inputs(desk, 64)
    by_layer = desk_flips(q, 3)
    flips = by_layer[1] + by_layer[0][:1] + by_layer[2]
    with pytest.raises(ScoreRaised):  # after steps - 1 flips: 3 in conv2, 1 in conv1, ...
        _score_flips(q, [flips], data, raise_at(steps))
    assert attack._held.victim_pass.lowest == lowest
    # the next list, from the dense layer, re-runs every filter from that layer on
    assert first_flip_calls(q, [by_layer[2]], data, pass_calls) == FULL_CALLS[lowest]


def test_a_victim_pass_holds_one_copy_of_the_baseline_pass(desk):
    # the baseline is brought back by re-running, not kept twice; only its logits are
    q, test = desk["qmodel"], desk["test"]
    tracemalloc.start()
    try:
        vp = attack._FlipPass(q, test.inputs)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    (ws,) = vp.workspaces  # the desk eval set is one chunk
    kept = []  # the stored arrays, one per block of memory; each view here spans its base
    for a in sorted(stored_arrays(ws), key=lambda a: -a.nbytes):
        if not any(np.may_share_memory(a, b) for b in kept + [test.inputs]):
            kept.append(a)
    copies = vp.codes + vp.weights + [vp.baseline]
    assert held < sum(a.nbytes for a in kept + copies) + 64 * 1024


def test_a_pass_over_one_chunk_runs_on_the_callers_inputs_and_returns_its_own_logits(
        desk, monkeypatch, no_held_pass):
    # the desk eval set is one chunk, so the pass runs the numpy calls of a whole-set pass
    q, test = desk["qmodel"], desk["test"]
    assert len(test) == CHUNK
    records = bs.select_vulnerable_bits(q, 10) + bs.select_random_bits(q, 10, 3)
    stacked = []
    with attack._holding("victim_pass", q, test.inputs) as vp, monkeypatch.context() as m:
        (ws,) = vp.workspaces
        assert ws.acts[0] is test.inputs  # so `serves` compares no bytes
        m.setattr(np, "concatenate", lambda *a, **k: stacked.append(a))
        for site in attack._flip_sites(q, records):
            assert vp.flip(*site) is ws.acts[-1]
    assert stacked == []
    want = bs.forward_batch(bs.dequantize_model(bs.apply_flips(q, records)), test.inputs)
    assert ws.acts[-1].tobytes() == want.tobytes()


def test_a_victim_pass_builds_no_backward(desk, no_held_pass):
    # flips and scores only: the gradient ranking's batch pass alone backpropagates
    q, data = fresh_inputs(desk, 64)
    bs.evaluate_flips(q, bs.select_vulnerable_bits(q, 5), data)
    (ws,) = attack._held.victim_pass.workspaces
    assert ws.backward is None and ws.dlogits is None


def test_a_call_on_another_victim_frees_the_held_pass(desk, monkeypatch, pass_builds):
    a, data = fresh_inputs(desk, 32)
    alive = weakref.ref(a)
    assert _score_flips(a, [bs.select_vulnerable_bits(a, 5)], data, len) == [[len(data)] * 6]
    del a
    assert alive() is not None  # the held pass keeps its victim
    # the same architecture and biases: the pass is re-aimed at b, and lets a go
    b = bs.quantize_model(desk["model"], 4)
    assert _score_flips(b, [bs.select_vulnerable_bits(b, 5)], data, len) == [[len(data)] * 6]
    assert alive() is None and len(pass_builds) == 1
    alive, seen = weakref.ref(attack._held.victim_pass), []

    def build(*args):  # c's pass is built only once b's is gone
        seen.append(alive())
        return Workspace(*args)
    monkeypatch.setattr(attack, "Workspace", build)
    c = bs.QuantModel(b.architecture, b.params, b.codes, [nudged(x) for x in b.biases])
    assert _score_flips(c, [bs.select_vulnerable_bits(c, 5)], data, len) == [[len(data)] * 6]
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
def work_counts(monkeypatch, no_held_pass):
    """Calls of FL2R, random and gradient ranking, and the victim pass's restarts, one
    per flip, made through `attack` in a thread that holds no pass."""
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

    def per_flip(ws, p, f=None):  # the victim pass's, over all 200 eval samples; the
        counts["restart"] += len(ws.acts[0]) == 200  # gradient ranking's holds 32
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
    d2 = np.ascontiguousarray(dout.transpose(1, 0, 2, 3)).reshape(o, -1)
    dw = (d2 @ cols.T).reshape(w.shape)
    db = d2.sum(axis=1)
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


def draw_conv_input(data):
    """A drawn conv: its standard normal input x (N, C, H, W), o filters of size k, the
    stride and padding, the output size (Ho, Wo), and an rng seeded by the draw."""
    n, c, o = (data.draw(st.integers(1, 4)) for _ in range(3))
    k, stride, padding = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), \
        data.draw(st.integers(0, 1))
    h, wd = (max(1, k - 2 * padding) + data.draw(st.integers(0, 4)) for _ in range(2))
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n, c, h, wd)), o, k, stride, padding, (ho, wo), rng


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_conv_backward_matches_the_reference_bit_for_bit(data):
    x, o, k, stride, padding, (ho, wo), rng = draw_conv_input(data)
    n, c = x.shape[:2]
    w = {"zero": np.zeros((o, c, k, k)), "normal": rng.standard_normal((o, c, k, k)),
         "tied": rng.choice([-0.5, -0.0, 0.0, 1.0], (o, c, k, k))}[
        data.draw(st.sampled_from(["zero", "normal", "tied"]))]
    dout = rng.choice([np.nan, -np.inf, np.inf, -0.0, 0.0, 1.5, -2.25], (n, o, ho, wo)) \
        if data.draw(st.booleans()) else rng.standard_normal((n, o, ho, wo))
    cols = model_module._patches(x, k, stride, padding)[1]
    with np.errstate(invalid="ignore"):  # inf - inf, inf * 0.0
        got = _conv_bwd(cols, w, stride, padding, x.shape, dout)
        ref = conv_bwd_reference(cols, w, stride, padding, x.shape, dout)
        assert all(same_bits(g, r) for g, r in zip(got, ref))
        assert _conv_bwd(cols, w, stride, padding, x.shape, dout, input_grad=False)[2] is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_conv_backward_gives_the_same_bits_for_any_output_gradient_layout(data):
    x, o, k, stride, padding, (ho, wo), rng = draw_conv_input(data)
    cols = model_module._patches(x, k, stride, padding)[1]
    w = rng.standard_normal((o, x.shape[1], k, k))
    dout = rng.standard_normal((len(x), o, ho, wo))
    if data.draw(st.booleans()):  # NaNs, infinities and zeros of both signs among them
        special = rng.choice([np.nan, -np.inf, np.inf, -0.0, 0.0], dout.shape)
        dout = np.where(rng.random(dout.shape) < 0.3, special, dout)
    # in memory: C order, (O, N, Ho, Wo), (Ho, Wo, O, N) and Fortran order
    layouts = [dout,
               np.ascontiguousarray(dout.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
               np.ascontiguousarray(dout.transpose(2, 3, 1, 0)).transpose(3, 2, 0, 1),
               np.asfortranarray(dout)]
    with np.errstate(invalid="ignore"):  # inf - inf, inf * 0.0
        first, *rest = (_conv_bwd(cols, w, stride, padding, x.shape, d) for d in layouts)
        for got in rest:
            assert all(g.tobytes() == f.tobytes() for g, f in zip(got, first))


def reference_backward(ws, d, grads=None):
    """`backward_layers` before the ReLU fold: the ReLU step `d * (x > 0)` on the full grid,
    `pool_bwd_reference` and `conv_bwd_reference`; (weight grads, bias grads). `grads`: a
    dict that receives the input gradient of every layer, {pos: gradient}; the backward then
    runs down to the batch."""
    arch, weights = ws.arch, ws.weights
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


def live_input_gradients(ws, d):
    """The input gradients of the live `_conv_bwd` and `_pool_bwd`, called as
    `backward_layers` calls them, down to the batch: {pos: gradient at layer pos's input}.
    A ReLU under a MaxPool has the pool's, which holds the ReLU's step; the pool has none."""
    arch, weights = ws.arch, ws.weights
    layers, grads, p = arch.layers, {}, len(weights)
    for pos in reversed(range(len(layers))):
        layer, x = layers[pos], ws.input(pos)
        below = layers[pos - 1] if pos else None
        if isinstance(layer, bs.Conv2D):
            p -= 1
            d = _conv_bwd(x, weights[p], layer.stride, layer.padding,
                          (len(d),) + arch.shapes[pos], d)[2]
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
    return grads


def assert_gradients_match_reference(model, inputs, labels):
    """The gradients of `backward_layers` equal those of the unfused reference byte for
    byte, and so does the input gradient of every layer from the live `_conv_bwd` and
    `_pool_bwd`."""
    ws = Workspace(model.architecture, model.weights, model.biases, inputs)
    _, dlogits = _softmax_ce(ws.acts[-1], labels)
    got = backward_layers(ws, dlogits)
    ref = reference_backward(ws, dlogits)
    for g, r in zip(got[0] + got[1], ref[0] + ref[1]):
        assert g.tobytes() == r.tobytes()
    ref_grads = {}
    reference_backward(ws, dlogits, ref_grads)
    for pos, g in live_input_gradients(ws, dlogits).items():
        assert g.tobytes() == ref_grads[pos].tobytes()


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
    inputs = tied(rng, shape) if ties else rng.standard_normal(shape)
    labels = rng.integers(0, arch.num_classes, n)
    assert_gradients_match_reference(model, inputs, labels)
    # a pass re-run after one filter changed in place backprops through the changed
    # weights: the changed model's gradient, bit for bit
    weights = [w.copy() for w in model.weights]
    ws = Workspace(arch, weights, model.biases, inputs)
    p = data.draw(st.integers(0, len(weights) - 1))
    f = data.draw(st.integers(0, len(weights[p]) - 1))
    weights[p][f] -= 0.75
    ws.restart(p, f)
    _, dws, dbs = synth_module.backprop(ws, labels)
    want = synth_module.gradient(bs.FloatModel(arch, weights, model.biases), inputs, labels)
    assert [g.tobytes() for g in dws + dbs] == [g.tobytes() for g in want[0] + want[1]]


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
        assert got.tobytes() == ref.tobytes()


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
        assert got.tobytes() == ref.tobytes()


def test_training_with_the_reference_backward_gives_the_same_weights(monkeypatch):
    spec = bs.SynthSpec(input_shape=(1, 16, 16), per_class=40)
    train, _ = bs.gen_synthetic(spec)
    arch, cfg = bs.desk_architecture(spec.classes, spec.input_shape), bs.TrainConfig(epochs=2)
    live = bs.train(arch, train, cfg)
    monkeypatch.setattr(synth_module, "backward_layers", reference_backward)
    ref = bs.train(arch, train, cfg)
    for a, b in zip(live.weights + live.biases, ref.weights + ref.biases):
        assert a.tobytes() == b.tobytes()
