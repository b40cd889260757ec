"""Spans and counts recorded from outside the package, and the per-layer metrics built from them.

The tracer wraps module-level functions of `bitsiege` and rebinds every name
under which a module looks the function up (for example `attack.accuracy_quant`
as well as `quantize.accuracy_quant`, and `model._maxpool`, which
`forward_batch` reads as a global). A function a later version renames or
removes is skipped, and its metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

MODULES = ("model", "quantize", "recovery", "reconstruct", "attack", "synth", "cli")

# Stage of run_attack that each top-level child span belongs to.
STAGES = {
    "recovery.simulate_recovery": "recover",
    "reconstruct.reconstruct_model": "reconstruct",
    "attack._rank": "rank",
    "attack.select_vulnerable_bits": "rank",
    "attack.select_random_bits": "rank",
    "attack.select_gradient_bits": "rank",
}


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, run id]
        self.stack = []
        self.counts = Counter()
        self.active = Counter()
        self.run_id = -1

    def span(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run_id])
            self.stack.append(sid)
            self.active[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.active[name] -= 1
                self.stack.pop()
                self.spans[sid][1:3] = t0, t1
            if hook is not None:
                hook(self, args, out)
            return out
        return functools.wraps(fn)(wrapper)

    def count(self, fn, hook):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(self, args, out)
            return out
        return functools.wraps(fn)(wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, t0, t1, parent, run) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "run": run}) + "\n")


# ------------------------------------------------------------------ counter hooks

def _forward_batch(tr, args, out):
    model, xs = args[0], args[1]
    tr.counts["model.forward_batch.rows"] += len(xs)
    if tr.active["attack.run_attack"]:
        tr.counts["attack_layer_evals"] += len(model.architecture.layers)


def _conv(tr, args, out):
    w = args[1]
    tr.counts["model.conv.gflop"] += 2.0 * out.size * w[0].size / 1e9


def _maxpool(tr, args, out):
    tr.counts["model.maxpool.mb_read"] += args[0].nbytes / 1e6


def _apply_flips(tr, args, out):
    import numpy as np
    old = list(args[0].codes) + list(args[0].biases)
    copied = 0
    for a in list(out.codes) + list(out.biases):
        if not any(np.may_share_memory(a, b) for b in old):
            copied += a.nbytes
    tr.counts["attack.apply_flips.mb_copied"] += copied / 1e6


def _run_attack(tr, args, out):
    tr.counts["attack.flips"] += len(out.records)
    for r in out.records:
        tr.counts[f"attack.flips_layer.{r.layer}"] += 1


def _grads(tr, args, out):
    if tr.active["synth.train"]:
        tr.counts["synth.minibatch_steps"] += 1


# (module, function, span name or None for a count-only wrapper, hook)
TARGETS = (
    ("model", "forward_batch", "model.forward_batch", _forward_batch),
    ("model", "_conv2d", "model.conv", _conv),
    ("model", "_maxpool", "model.maxpool", _maxpool),
    ("model", "load_model", "model.load_model", None),
    ("model", "load_dataset", "model.load_dataset", None),
    ("quantize", "accuracy_quant", "quantize.accuracy_quant", None),
    ("quantize", "dequantize_model", "quantize.dequantize_model", None),
    ("quantize", "quantize_model", "quantize.quantize_model", None),
    ("recovery", "simulate_recovery", "recovery.simulate_recovery", None),
    ("reconstruct", "reconstruct_model", "reconstruct.reconstruct_model", None),
    ("attack", "run_attack", "attack.run_attack", _run_attack),
    ("attack", "_rank", "attack._rank", None),
    ("attack", "select_vulnerable_bits", "attack.select_vulnerable_bits", None),
    ("attack", "select_random_bits", "attack.select_random_bits", None),
    ("attack", "select_gradient_bits", "attack.select_gradient_bits", None),
    ("attack", "apply_flips", "attack.apply_flips", _apply_flips),
    ("attack", "save_trace", "attack.save_trace", None),
    ("synth", "train", "synth.train", None),
    ("synth", "gradient", "synth.gradient", None),
    ("synth", "_conv_fwd", "synth.conv_fwd", None),
    ("synth", "_conv_bwd", "synth.conv_bwd", None),
    ("synth", "_pool_fwd", "synth.pool_fwd", None),
    ("synth", "_pool_bwd", "synth.pool_bwd", None),
    ("synth", "_grads", None, _grads),
    ("cli", "_run_one", "cli.run_one", None),
    ("cli", "_write_csv", "cli.write_csv", None),
    ("cli", "cmd_sweep", "cli.sweep", None),
)


def install(tracer, run_id):
    """Wrap every target and rebind it in each bitsiege namespace; returns an undo function.

    Spans recorded until the undo carry `run_id`."""
    tracer.run_id = run_id
    modules = [importlib.import_module(f"bitsiege.{m}") for m in MODULES]
    modules.append(importlib.import_module("bitsiege"))
    wrapped = {}
    for mod, fname, span, hook in TARGETS:
        fn = getattr(importlib.import_module(f"bitsiege.{mod}"), fname, None)
        if fn is None:
            continue
        wrapped[id(fn)] = (fn, tracer.span(span, fn, hook) if span else tracer.count(fn, hook))
    saved = []
    for m in modules:
        for key, value in list(vars(m).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                saved.append((m, key, value))
                setattr(m, key, entry[1])

    def undo():
        for m, key, value in saved:
            setattr(m, key, value)
    return undo


# ------------------------------------------------------------------ per-layer metrics

SELF_TIMES = {
    "model.conv.s": "model.conv",
    "model.maxpool.s": "model.maxpool",
    "model.forward_other.s": "model.forward_batch",
    "quantize.accuracy_quant.s": "quantize.accuracy_quant",
    "quantize.dequantize_model.s": "quantize.dequantize_model",
    "quantize.quantize_model.s": "quantize.quantize_model",
    "attack.apply_flips.s": "attack.apply_flips",
    "recovery.simulate_recovery.s": "recovery.simulate_recovery",
    "reconstruct.reconstruct_model.s": "reconstruct.reconstruct_model",
    "attack.select_vulnerable_bits.s": "attack.select_vulnerable_bits",
    "attack.select_random_bits.s": "attack.select_random_bits",
    "attack.select_gradient_bits.s": "attack.select_gradient_bits",
    "model.load_model.s": "model.load_model",
    "model.load_dataset.s": "model.load_dataset",
    "attack.save_trace.s": "attack.save_trace",
    "cli.run_one.s": "cli.run_one",
    "cli.write_csv.s": "cli.write_csv",
    "synth.train.s": "synth.train",
    "synth.conv_fwd.s": "synth.conv_fwd",
    "synth.conv_bwd.s": "synth.conv_bwd",
    "synth.pool_fwd.s": "synth.pool_fwd",
    "synth.pool_bwd.s": "synth.pool_bwd",
    "synth.gradient.s": "synth.gradient",
}
CALLS = {
    "model.forward_batch.calls": "model.forward_batch",
    "model.conv.calls": "model.conv",
    "model.maxpool.calls": "model.maxpool",
    "quantize.accuracy_quant.calls": "quantize.accuracy_quant",
    "quantize.dequantize_model.calls": "quantize.dequantize_model",
    "quantize.quantize_model.calls": "quantize.quantize_model",
    "attack.apply_flips.calls": "attack.apply_flips",
    "recovery.simulate_recovery.calls": "recovery.simulate_recovery",
    "reconstruct.reconstruct_model.calls": "reconstruct.reconstruct_model",
    "attack.save_trace.calls": "attack.save_trace",
    "cli.run_one.calls": "cli.run_one",
    "synth.gradient.calls": "synth.gradient",
}
# Counters reported per operation, as counted.
PER_OP_COUNTS = ("model.forward_batch.rows", "model.conv.gflop", "model.maxpool.mb_read",
                 "attack.apply_flips.mb_copied", "synth.minibatch_steps")


def layer_metrics(tracer, ops):
    """Per-layer metrics per traced operation (name -> value), from spans and counts."""
    ops = max(ops, 1)
    dur = [t1 - t0 for _, t0, t1, _, _ in tracer.spans]
    child = [0.0] * len(dur)
    for i, (_, _, _, parent, _) in enumerate(tracer.spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_s, total_s, calls = defaultdict(float), defaultdict(float), Counter()
    stages, attack_s, run_one_in_sweep = defaultdict(float), 0.0, 0.0
    for i, (name, _, _, parent, _) in enumerate(tracer.spans):
        self_s[name] += dur[i] - child[i]
        total_s[name] += dur[i]
        calls[name] += 1
        pname = tracer.spans[parent][0] if parent >= 0 else None
        if name == "attack.run_attack":
            attack_s += dur[i]
        elif pname == "attack.run_attack" and name in STAGES:
            stages[STAGES[name]] += dur[i]
        elif pname == "cli.sweep" and name == "cli.run_one":
            run_one_in_sweep += dur[i]
    stages["inject_eval"] = attack_s - sum(stages.values())

    m = {k: self_s[v] / ops for k, v in SELF_TIMES.items()}
    m.update({k: calls[v] / ops for k, v in CALLS.items()})
    m.update({k: tracer.counts[k] / ops for k in PER_OP_COUNTS})
    m["model.forward_batch.s"] = total_s["model.forward_batch"] / ops
    flips = tracer.counts["attack.flips"]
    m["model.layer_evals_per_flip"] = tracer.counts["attack_layer_evals"] / flips if flips else 0.0
    m["attack.inject_eval.s"] = stages["inject_eval"] / ops
    for layer in range(3):
        m[f"attack.flips_by_layer.{layer}"] = (
            tracer.counts[f"attack.flips_layer.{layer}"] / flips if flips else 0.0)
    for stage in ("recover", "reconstruct", "rank", "inject_eval"):
        m[f"attack.stage_share.{stage}"] = stages[stage] / attack_s if attack_s else 0.0
    m["cli.sweep.outside_pool_s"] = (total_s["cli.sweep"] - run_one_in_sweep) / ops
    return m
