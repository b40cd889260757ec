"""Vulnerable-bit ranking (normalized filter L2), baselines, flip injection, full pipeline."""
from __future__ import annotations

import contextlib
import functools
import heapq
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (CHUNK, Dataset, ModelFormatError, Workspace, check_dataset, chunks,
                    magic_lines, read_fields, top1_hits, write_file)
from .quantize import BITWIDTHS, QuantModel, bits_to_codes, dequantize, flip_bit
from .reconstruct import ReconstructionMethod, reconstruct_model
from .recovery import simulate_recovery
from .synth import backprop

TRACE_MAGIC = "bitsiege-trace-v1"


class FlipRecord(NamedTuple):  # a tuple: a list of 200 builds in a third of a dataclass's time
    layer: int   # index into parametric layers
    filt: int    # conv: output channel; dense: output row
    weight: int  # flattened (c, k1, k2) index within the filter
    bit: int


# A ranking's `reads_codes` is False when its list depends on the surrogate's shapes and
# bitwidths only, which every recon of one victim shares, so `run_attacks` ranks it once.
@dataclass(frozen=True)
class FL2R:
    name = "fl2r"
    reads_codes = True

    def select(self, surrogate, n_bf, eval_data):
        return select_vulnerable_bits(surrogate, n_bf)


@dataclass(frozen=True)
class RandomBits:
    seed: int
    name = "random"
    reads_codes = False

    def select(self, surrogate, n_bf, eval_data):
        return select_random_bits(surrogate, n_bf, self.seed)


@dataclass(frozen=True)
class GradientBaseline:
    """The one-shot gradient ranking (`select_gradient_bits`). Its batch is the eval set's
    first `batch_size` samples, 32 by default: it models an attacker who holds those
    samples, not a held-out split."""
    batch_size: int = 32
    name = "gradient"
    reads_codes = True

    def select(self, surrogate, n_bf, eval_data):
        """Rank on the first `batch_size` samples of the evaluation set."""
        batch = Dataset(eval_data.inputs[:self.batch_size], eval_data.labels[:self.batch_size])
        return select_gradient_bits(surrogate, batch, n_bf)


# Ranking name -> the method of a run with that seed.
RANKINGS = {FL2R.name: lambda seed: FL2R(), RandomBits.name: RandomBits,
            GradientBaseline.name: lambda seed: GradientBaseline()}
RECONS = {m.value: m for m in ReconstructionMethod}

# A run's config, in trace order: key -> (type, accepts value, what it must be). The one
# description that `bitsiege attack`/`sweep` (before any run), `AttackTrace` and the
# trace codec read.
RUN_CONFIG = {
    "nq": (int, lambda v: v in BITWIDTHS, f"one of {BITWIDTHS}"),
    "rp": (float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "seed": (int, lambda v: v >= 0, ">= 0"),
    "ranking": (str, lambda v: v in RANKINGS, "one of " + ", ".join(RANKINGS)),
    "recon": (str, lambda v: v in RECONS, "one of " + ", ".join(RECONS)),
    "nbf": (int, lambda v: v >= 1, ">= 1"),
}


def check_config(key, value, name=None):
    """`value`; raise ValueError unless a run accepts it for the RUN_CONFIG key `key`. The
    message calls the key `name`, by default `key`."""
    _, accepts, rule = RUN_CONFIG[key]
    if not accepts(value):
        raise ValueError(f"{name or key} must be {rule}, got {value!r}")
    return value


@dataclass(frozen=True)
class AttackTrace:
    records: tuple
    accuracies: tuple  # length len(records)+1, baseline first
    config: dict       # RUN_CONFIG key -> value, stored as the table's type

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "config",
                           {k: t(self.config[k]) for k, (t, _, _) in RUN_CONFIG.items()})
        object.__setattr__(self, "accuracies", tuple(map(_accuracy, self.accuracies)))


def _accuracy(value):
    """`value` as a float; raises ValueError unless it is in [0, 1]. The one accuracy
    check, of `AttackTrace` and of a trace's `acc` lines."""
    a = float(value)
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"accuracy outside [0,1]: {value}")
    return a


def _codes_by_pattern(nq):
    """Every nq-bit code, at the index of its bit pattern. A sequence in this order is
    indexed by the signed code too: a negative code c indexes it from the end, at its
    pattern c + 2**nq."""
    return bits_to_codes(np.arange(1 << nq), nq)


@functools.cache
def flip_table(nq: int):
    """`flip_table(nq)[p][c] == flip_bit(c, p, nq)` for every bit p and nq-bit code c:
    row p lists each code's flip in `_codes_by_pattern` order. One per bitwidth, shared."""
    return tuple(tuple(flip_bit(c, p, nq) for c in _codes_by_pattern(nq).tolist())
                 for p in range(nq))


@functools.cache
def _code_weights(qp):
    """The weight of each `qp.bitwidth`-bit code at `qp.scale`, indexed by code as a
    `flip_table` row is. One per QuantParams, kept for the life of the process."""
    return tuple(dequantize(_codes_by_pattern(qp.bitwidth), qp.scale).tolist())


def _check_nbf(model, n_bf):
    total = sum(c.size for c in model.codes)
    if not 1 <= n_bf <= total:
        raise ValueError(f"n_bf must be in [1, {total}], got {n_bf}")


def select_vulnerable_bits(model: QuantModel, n_bf: int):
    """Greedy magnitude ranking: repeatedly take the top-importance (L2 norm over size)
    filter's largest remaining weight, record its sign bit, flip it in the working copy
    and rescore that filter. Only a taken weight changes, so each filter's pick order is
    fixed up front: descending square, ties to the lowest weight (one stable sort). The
    filters wait in one heap keyed on (-importance, layer, filter): ties go to the lowest
    layer, then filter. A filter leaves the heap with its last weight, so no pick repeats.
    """
    _check_nbf(model, n_bf)
    codes = [c.reshape(len(c), -1) for c in model.codes]
    deqs = [c.astype(np.float64) * qp.scale for c, qp in zip(codes, model.params)]
    orders = [np.argsort(-deq ** 2, axis=1, kind="stable") for deq in deqs]
    # (-importance, layer, filter, weights taken); no two entries share (layer, filter)
    heap = [(-v, l, f, 0) for l, deq in enumerate(deqs)
            for f, v in enumerate((np.linalg.norm(deq, axis=1) / deq.shape[1]).tolist())]
    heapq.heapify(heap)
    signs = [flip_table(qp.bitwidth)[-1] for qp in model.params]  # sign-flipped codes
    records = []
    for _ in range(n_bf):
        _, l, f, k = heapq.heappop(heap)
        deq, qp, w = deqs[l], model.params[l], orders[l].item(f, k)
        records.append(FlipRecord(l, f, w, qp.bitwidth - 1))
        deq[f, w] = signs[l][codes[l].item(f, w)] * qp.scale
        if k + 1 < deq.shape[1]:  # the bits of np.linalg.norm(deq[f]), sqrt(x.dot(x))
            heapq.heappush(heap, (-math.sqrt(deq[f].dot(deq[f])) / deq.shape[1], l, f, k + 1))
    return records


def _records(model: QuantModel, layers, flat, bits):
    """FlipRecords of bit `bits[i]` of the `flat[i]`th code of parametric layer `layers[i]`,
    split by the inverse of `_flip_sites`' `filt * size + weight`, size a filter's code count."""
    filt, weight = np.divmod(flat, np.array([c[0].size for c in model.codes])[layers])
    return list(map(FlipRecord, layers.tolist(), filt.tolist(), weight.tolist(), bits.tolist()))


def select_random_bits(model: QuantModel, n_bf: int, seed: int):
    """Uniform (weight, bit) pairs without replacement across all parametric layers."""
    _check_nbf(model, n_bf)
    nq = np.array([qp.bitwidth for qp in model.params])
    sizes = np.array([c.size for c in model.codes]) * nq  # bits per layer
    ends = np.cumsum(sizes)
    picks = np.random.default_rng(seed).choice(int(ends[-1]), size=n_bf, replace=False)
    layers = np.searchsorted(ends, picks, side="right")
    flat, bits = np.divmod(picks - (ends - sizes)[layers], nq[layers])
    return _records(model, layers, flat, bits)


def select_gradient_bits(reconstructed: QuantModel, batch: Dataset, n_bf: int):
    """Single-shot gradient baseline: rank weights by |dLoss/dw| on the surrogate
    and flip the sign bit only when the flip moves the weight up the loss gradient.

    Ties in |gradient| break to the lowest (layer, flat weight index): one stable
    sort over every layer's weights concatenated in that order. The gradient is
    `synth.gradient`'s, bit for bit (`_gradient`).
    """
    _check_nbf(reconstructed, n_bf)
    check_dataset(reconstructed.architecture, batch)
    grads = _gradient(reconstructed, batch)
    params = reconstructed.params
    sizes = np.array([c.size for c in reconstructed.codes])
    ends = np.cumsum(sizes)
    g = np.concatenate([x.reshape(-1) for x in grads])
    codes = np.concatenate([c.reshape(-1) for c in reconstructed.codes])
    # per weight: the size of its sign flip's step; a weight whose step moves it up the
    # gradient is a candidate, as the flip raises the loss to first order
    step = np.repeat([(1 << (qp.bitwidth - 1)) * qp.scale for qp in params], sizes)
    aligned = np.flatnonzero(np.where(codes >= 0, -step, step) * g > 0)
    top = aligned[np.argsort(-np.abs(g[aligned]), kind="stable")[:n_bf]]
    if len(top) < n_bf:
        raise ValueError(f"only {len(top)} gradient-aligned sign flips available")
    layers = np.searchsorted(ends, top, side="right")
    sign = np.array([qp.bitwidth - 1 for qp in params])
    return _records(reconstructed, layers, top - (ends - sizes)[layers], sign[layers])


def _flip_sites(victim: QuantModel, records):
    """Check every record against the victim's layers and bitwidths, and return the
    (layer, filter, flat index of the code within its layer, bit) of each; the one
    record check, shared by `apply_flips` and `_score_flips`."""
    bounds = [(len(c), c[0].size, qp.bitwidth) for c, qp in zip(victim.codes, victim.params)]
    sites = []
    for r in records:
        layer, filt, weight, bit = r
        if not 0 <= layer < len(bounds):
            raise ValueError(f"bad layer index {layer}")
        count, size, nq = bounds[layer]
        if not (0 <= filt < count and 0 <= weight < size):
            raise ValueError(f"bad filter/weight index in {r}")
        if not 0 <= bit < nq:
            raise ValueError(f"bit position {bit} out of range for {nq}-bit code")
        sites.append((layer, filt, filt * size + weight, bit))
    return sites


def apply_flips(victim: QuantModel, records) -> QuantModel:
    """XOR the named bits into a copy of the victim's true codes (`flip_bit`): the
    reference that `_FlipPass.flip` is tested against."""
    codes = [c.copy() for c in victim.codes]
    for l, _, i, bit in _flip_sites(victim, records):
        flat = codes[l].reshape(-1)
        flat[i] = flip_bit(int(flat[i]), bit, victim.params[l].bitwidth)
    return QuantModel(victim.architecture, list(victim.params), codes, victim.biases)


class _FlipPass:
    """A quantized model's pass over one fixed batch that flips bits in place: one
    Workspace per chunk of the batch (`model.chunks`, of `size` samples), with codes and
    weights of its own that their restarts and backward (`synth.backprop(ws, ...)`) read.
    `model`: the model it was last aimed at; `baseline`: a copy of that model's logits.
    `reset` puts the model's codes and weights back and leaves the stored passes as they
    are; `lowest` is the lowest parametric layer whose stored output may differ from the
    baseline pass's (the layer count if none), and the next `flip` re-runs what it must
    from there. So flips that changed no conv1 weight leave conv1's output, ReLU and pool
    alone, and no copy of the pass is kept. `serves` compares what the pass computes, not
    the objects it was built from; `aim` takes up a model it serves. Held between calls
    by `_holding`."""

    def __init__(self, q: QuantModel, inputs, size=CHUNK):
        self.model, self.size, self.shape = q, size, inputs.shape
        self.weights = [dequantize(c, qp.scale) for c, qp in zip(q.codes, q.params)]
        self.workspaces = [Workspace(q.architecture, self.weights, q.biases, x)
                           for x in chunks(inputs, size)]
        # the logits `flip` returns: one Workspace's own array, else the chunks' stacked
        self.logits = (self.workspaces[0].acts[-1] if len(self.workspaces) == 1 else
                       np.concatenate([ws.acts[-1] for ws in self.workspaces]))
        self.codes = [c.copy() for c in q.codes]
        self.flat = [(c.reshape(-1), w.reshape(-1)) for c, w in zip(self.codes, self.weights)]
        self._aimed()

    def serves(self, q: QuantModel, inputs):
        first = self.workspaces[0]
        return (q.architecture == first.arch and inputs.shape == self.shape
                and all(a.tobytes() == b.tobytes() for a, b in zip(q.biases, first.biases))
                and all(x is ws.acts[0] or x.tobytes() == ws.acts[0].tobytes()
                        for x, ws in zip(chunks(inputs, self.size), self.workspaces)))

    def aim(self, q: QuantModel):
        """Take up `q`, a model the pass `serves`: its codes, weights and flip tables go in,
        and every layer from the first parametric one re-runs (`Workspace.restart(0)`),
        which gives a fresh pass's bits."""
        self.model = q
        self.reset()
        self._restart(0)
        self._aimed()

    def _aimed(self):
        """Take up the model the pass now holds: its flip tables, its baseline logits, and
        no layer changed since."""
        # per parametric layer: the flat codes and weights a flip rewrites, the flip table,
        # and the weight of each code, indexed as the table's rows are
        self.layers = [(c, w, flip_table(qp.bitwidth), _code_weights(qp))
                       for (c, w), qp in zip(self.flat, self.model.params)]
        self.baseline = self.logits.copy()
        self.lowest = self.stale = len(self.layers)

    def _restart(self, p, f=None):
        """`Workspace.restart(p, f)` on every chunk; returns `logits`, brought up to date."""
        for ws in self.workspaces:
            ws.restart(p, f)
        if len(self.workspaces) > 1:
            np.concatenate([ws.acts[-1] for ws in self.workspaces], out=self.logits)
        return self.logits

    def reset(self):
        """Put the model's codes and weights back. The stored pass is left as it is: it is
        the baseline's below `lowest`, and the next `flip` re-runs the rest."""
        for c, w, a, qp in zip(self.codes, self.weights, self.model.codes, self.model.params):
            np.copyto(c, a)
            np.multiply(a, qp.scale, out=w)
        self.stale = self.lowest  # from here on, the stored pass holds flips undone

    def flip(self, l, f, i, bit):
        """Flip bit `bit` of flat code `i` in filter `f` of parametric layer `l` (a
        `_flip_sites` site) by the bitwidth's `flip_table` and the layer's weight per code;
        return the logits, rewritten in place: the Workspace's own array if the batch is
        one chunk. They are exact (`Workspace.restart`): the bits of `forward_batch` of
        `model` with every flip since `reset` or `aim` applied (`apply_flips`), whatever
        the pass ran before, so a trace is the same bytes alone, in a sweep or at any
        `--jobs`. The first flip after `reset` brings the stored pass up to date: at or
        above the layer `lowest` then named (`stale`), it re-runs every filter from that
        layer on; below it, its own restart is enough, as that re-runs every layer after
        its own in full."""
        c, w, flips, weights = self.layers[l]
        code = flips[bit][c.item(i)]
        c[i] = code
        w[i] = weights[code]
        stale = self.stale
        self.stale = len(self.layers)
        if l < stale:
            self.lowest = min(self.lowest, l)
            return self._restart(l, f)
        self.lowest = l
        return self._restart(stale)


# the passes this thread holds between calls (`_holding`): `.victim_pass`, of
# `_score_flips`, and `.batch_pass`, of `_gradient`
_held = threading.local()


@contextlib.contextmanager
def _holding(slot, q: QuantModel, inputs, size=CHUNK):
    """The held-pass rule: a thread holds at most one `_FlipPass` in each slot of `_held`
    between calls; a new one runs in chunks of `size` samples. A call takes it over if it
    `serves` q on `inputs` (q's architecture and biases, the inputs' bytes), aimed at q if
    it was last aimed at another model; otherwise the held pass is dropped before a new
    one is built. So one pass per slot serves every group of a sweep, every quantized
    victim of one float model and every surrogate of one victim, and, at `--jobs` above 1,
    every task chunk a worker process runs, though the pool pickles the victim and eval
    set with each chunk: a process builds two passes for a whole sweep. The slot is empty
    while its pass is taken, so a call made from inside another's builds its own; the
    pass goes back to the slot when the block returns or raises, and one handed back
    mid-list still knows the lowest layer it changed."""
    held = getattr(_held, slot, None)
    setattr(_held, slot, None)
    if held is None or not held.serves(q, inputs):
        held = None  # the old pass is freed before the new one is built
        held = _FlipPass(q, inputs, size)
    elif held.model is not q:
        held.aim(q)
    try:
        yield held
    finally:
        setattr(_held, slot, held)


def _gradient(q: QuantModel, batch: Dataset):
    """The weight gradients of `synth.gradient` for the dequantized `q` on `batch`, bit
    for bit, backpropagated through the batch pass (`_holding`) as it stands: nothing
    flips it between calls. The pass is one chunk of the whole batch, as the loss sums
    over it. The gradients are the pass's own arrays, which its next call rewrites."""
    with _holding("batch_pass", q, batch.inputs, len(batch)) as held:
        return backprop(held.workspaces[0], batch.labels)[1]


def _score_flips(victim: QuantModel, record_lists, eval_data: Dataset, score) -> list:
    """For each list in `record_lists`, in order, the `score` of the victim's logits on
    `eval_data` before any flip, then after each cumulative flip of that list, every
    list checked first; the next step rewrites the array `score` was given.

    Each list starts from the victim's codes and weights (`_FlipPass.reset`) and flips
    through `_FlipPass.flip` on the victim pass (`_holding`), so no list sees another's
    flips. The baseline is scored once per call, from a copy of its logits; a call with
    no lists takes no pass.
    """
    check_dataset(victim.architecture, eval_data)
    sites = [_flip_sites(victim, records) for records in record_lists]
    if not sites:
        return []
    with _holding("victim_pass", victim, eval_data.inputs) as vp:
        base, scores = score(vp.baseline), []
        for list_sites in sites:
            vp.reset()
            scores.append([base] + [score(vp.flip(*site)) for site in list_sites])
        return scores


def _top1_scorer(labels):
    """A `_score_flips` score: the top-1 accuracy of the logits on `labels`, whose
    argmax and hits are written into two arrays made once (`top1_hits`)."""
    pred, hits = np.empty(len(labels), dtype=np.intp), np.empty(len(labels), dtype=bool)
    return lambda logits: top1_hits(logits, labels, pred, hits) / len(labels)


def evaluate_flips(victim: QuantModel, records, eval_data: Dataset) -> list:
    """Accuracy of the victim before any flip and after each cumulative flip: the
    one-list case of `_score_flips` with `_top1_scorer`. Each accuracy equals
    `accuracy_quant(apply_flips(victim, records[:i]), eval_data)` (`_FlipPass.flip`).
    """
    return _score_flips(victim, [records], eval_data, _top1_scorer(eval_data.labels))[0]


def run_attacks(victim: QuantModel, rp: float, seed: int, methods, n_bf: int,
                eval_data: Dataset) -> list:
    """The traces of `run_attack` for each (ranking, recon) pair in the list `methods`,
    in that order, at one recovery rate and seed.

    What the pairs share is done once: the partial-bit recovery, each recon's
    surrogate, each ranking of each distinct surrogate, and the evaluation of each
    distinct record list. The surrogates all come from one recovery, so their codes
    decide them: recons that give the same codes (every recon at rp = 1) share their
    rankings, and a random list, which reads only the seed and the surrogate's shapes
    and bitwidths (`reads_codes`), is ranked and evaluated once for every recon. These
    memos live only for the call. The distinct lists are scored in one `_score_flips`
    call with `_top1_scorer`, and a repeated list takes its first run's accuracies.
    Each trace equals `run_attack`'s for its pair, byte for byte.
    """
    partial = simulate_recovery(victim, rp, seed)
    surrogates = {}  # recon -> (its codes' bytes, surrogate)
    ranked = {}      # (ranking, codes' bytes, or None if it reads none) -> record tuple
    records = []
    for ranking, recon in methods:
        if recon not in surrogates:
            s = reconstruct_model(partial, recon)
            surrogates[recon] = (b"".join(c.tobytes() for c in s.codes), s)
        codes, s = surrogates[recon]
        key = ranking, codes if ranking.reads_codes else None
        if key not in ranked:
            ranked[key] = tuple(ranking.select(s, n_bf, eval_data))
        records.append(ranked[key])
    # the distinct lists, in first-use order; found by `==`, which mostly stops at the
    # first record of two different lists, where a hash would read every record
    lists = []
    for recs in records:
        if recs not in lists:
            lists.append(recs)
    accs = _score_flips(victim, lists, eval_data, _top1_scorer(eval_data.labels))
    nq = victim.params[0].bitwidth
    return [AttackTrace(recs, accs[lists.index(recs)],
                        {"nq": nq, "rp": rp, "seed": seed, "ranking": ranking.name,
                         "recon": recon.value, "nbf": n_bf})
            for (ranking, recon), recs in zip(methods, records)]


def run_attack(victim: QuantModel, rp: float, seed: int, ranking, recon: ReconstructionMethod,
               n_bf: int, eval_data: Dataset) -> AttackTrace:
    """Full pipeline: simulate extraction, reconstruct a surrogate, rank on the
    surrogate only (`ranking.select`, `ranking` one of `RANKINGS`' methods), then
    flip cumulatively on the victim, recording accuracy. The one-pair case of
    `run_attacks`; each accuracy is exact (`_FlipPass.flip`).
    """
    return run_attacks(victim, rp, seed, [(ranking, recon)], n_bf, eval_data)[0]


def trace_bytes(trace: AttackTrace):
    """The `.trace` file of `trace`: the magic line, a line per RUN_CONFIG key, a `flip`
    line per record and an `acc` line per accuracy, as UTF-8 text."""
    lines = [TRACE_MAGIC, *(f"{k} {trace.config[k]}" for k in RUN_CONFIG),
             *(f"flip {r.layer} {r.filt} {r.weight} {r.bit}" for r in trace.records),
             *(f"acc {a!r}" for a in trace.accuracies)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_trace(trace: AttackTrace, path):
    write_file(path, trace_bytes(trace))


def load_trace(path) -> AttackTrace:
    with open(path, "rb") as file:
        blob = file.read()
    # a run-config value a run would not accept is refused at its line
    grammar = {**{k: (lambda words, k=k, t=t: (check_config(k, t(*words)),), 1, False)
                  for k, (t, _, _) in RUN_CONFIG.items()},
               "flip": (int, 4, True), "acc": (lambda words: (_accuracy(*words),), 1, True)}
    try:
        lines = magic_lines(blob, TRACE_MAGIC)
        f = read_fields(lines, grammar)
        if len(f["flip"]) != f["nbf"] or len(f["acc"]) != f["nbf"] + 1:
            # refused where a missing line would go, as `read_fields` does a missing field
            raise ModelFormatError(
                f"line {len(lines) + 2}: nbf {f['nbf']} with {len(f['flip'])} flip and "
                f"{len(f['acc'])} acc lines; expected nbf flips and nbf+1 accs")
        records = [FlipRecord(*flip) for flip in f["flip"]]
        return AttackTrace(records, f["acc"], f)  # the config: f's RUN_CONFIG keys
    except ModelFormatError as e:
        raise ModelFormatError(f"{path} {e}") from None
