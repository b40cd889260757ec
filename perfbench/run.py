#!/usr/bin/env python3
"""Benchmark of the bitsiege pipeline (recover -> reconstruct -> rank -> inject+evaluate).

    python3 perfbench/run.py --workload attack-long --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from `src/`
there, never from an installed copy. With `--trace 0` it times the workload
untraced and prints the end-to-end metrics; with `--trace 1` it runs each
operation twice, untraced and traced, and prints the per-layer metrics. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Workloads, metrics and the correctness gate are described in NOTES.md.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap():
    """Pin BLAS/OpenMP to one thread and import bitsiege from the checkout's src/.

    Every workload runs in one process, so one thread keeps workers x threads
    <= nproc. Must run before numpy is imported. Returns None, or an error message.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    try:
        import bitsiege
    except ImportError as e:
        return f"cannot import bitsiege from {SRC}: {e}"
    if not os.path.abspath(bitsiege.__file__).startswith(SRC + os.sep):
        return f"bitsiege was imported from {bitsiege.__file__}, not from {SRC}"
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args):
    import numpy as np
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        version = re.search(r'^version\s*=\s*"([^"]*)"', f.read(), re.M)
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "jobs": 1,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "git_commit": git_commit(),
            "bitsiege_version": version.group(1) if version else "unknown"}


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest child, if it started any."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


class Checker:
    """Compares each operation's outcome with the digests recorded at the reference commit."""

    SOFT = ":victim.model"   # training's own float rounding: reported, never a failure

    def __init__(self, workload, digests):
        self.workload, self.digests = workload, digests
        self.attempted = self.failed = self.raised = self.soft_mismatch = 0
        self.expected_errors = []
        self.first_failure = None

    def check(self, i, outcome):
        """Count one operation; True when it matched and did not raise."""
        self.attempted += 1
        ref = self.workload.reference(self.digests, outcome)
        bad = [k for k in ref if outcome.get(k) != ref[k] and not k.endswith(self.SOFT)]
        self.soft_mismatch += sum(outcome.get(k) != ref[k] for k in ref if k.endswith(self.SOFT))
        raised = any(v.startswith("error:") for v in outcome.values())
        if raised:
            self.raised += 1
            if not bad:
                self.expected_errors.append(next(iter(outcome)))
        if bad:
            self.failed += 1
            if self.first_failure is None:
                k = bad[0]
                self.first_failure = f"op {i}: {k} got {outcome.get(k)} expected {ref[k]}"
        return not bad and not raised


class Clock:
    """Times intervals and rescales them to a fixed machine speed.

    On a shared 2-vCPU VM the speed of a single-threaded numpy process drifts
    by +-15% over seconds to minutes, and CPU time drifts with wall time, so
    medians of raw wall times spread 15-20% between 25-second runs. A fixed
    numpy kernel (no bitsiege code) is timed right before and after each
    interval, and the interval is scaled by REFERENCE_S over the mean of the
    two; the spread falls to 1-3%. The kernel mixes the two kinds of work the
    workloads do, large batched convolutions and pooling (evaluation) and many
    small einsum calls (training, the gradient ranking), because the drift
    affects the two differently. Raw wall times are kept alongside.
    """
    REFERENCE_S = 0.05       # the kernel's time at the speed the scaled seconds refer to

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((200, 1, 8, 8))
        self.w1 = rng.standard_normal((8, 1, 3, 3))
        self.w2 = rng.standard_normal((16, 8, 3, 3))
        self.small = rng.standard_normal((32, 8, 14, 14))
        self.last = self.kernel()

    def kernel(self):
        np = self.np
        t0 = time.perf_counter()
        for _ in range(10):
            win = np.lib.stride_tricks.sliding_window_view(self.x, (3, 3), axis=(2, 3))
            y = np.maximum(np.einsum("nchwij,ocij->nohw", win, self.w1, optimize=True), 0.0)
            n, c, h, w = y.shape
            y = y.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))
            win = np.lib.stride_tricks.sliding_window_view(y, (3, 3), axis=(2, 3))
            np.einsum("nchwij,ocij->nohw", win, self.w2, optimize=True)
        for _ in range(20):
            for i in range(3):
                for j in range(3):
                    np.einsum("nchw,nohw->oc", self.small[:, :, i:i + 12, j:j + 12],
                              self.small[:, :, :12, :12], optimize=True)
        return time.perf_counter() - t0

    def time(self, fn, *args):
        """(fn's result or the exception it raised, raw seconds, scaled seconds)."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # an operation that raises is counted, never fatal
            result = e
        raw = time.perf_counter() - t0
        after = self.kernel()
        scaled = raw * self.REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return result, raw, scaled


def run_op(wl, i, clock, checker, tracer=None):
    """Time operation i (traced when a tracer is given), then check its outputs untimed.

    Returns (raw s, scaled s, work units, ok)."""
    undo = tracing.install(tracer, i) if tracer else None
    try:
        result, raw, scaled = clock.time(wl.op, i)
    finally:
        if undo:
            undo()
    work, outcome = wl.outcome(i, result)
    return raw, scaled, work, checker.check(i, outcome)


def measure(wl, seconds, clock, checker):
    """Closed loop: operations back to back until `seconds` have passed (at least one)."""
    ops, i = [], 0
    end = time.perf_counter() + seconds
    while i == 0 or time.perf_counter() < end:
        ops.append(run_op(wl, i, clock, checker))
        i += 1
    return ops


def measure_traced(wl, seconds, clock, checker, tracer):
    """Each operation twice, untraced and traced, in alternating order; scaled times."""
    pairs, i = [], 0
    end = time.perf_counter() + seconds
    while i == 0 or time.perf_counter() < end:
        times = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            times[traced] = run_op(wl, i, clock, checker, tracer if traced else None)[1]
        pairs.append((times[False], times[True]))
        i += 1
    return pairs


def end_to_end(ops, setups, col):
    """End-to-end metrics from column `col` of the timings (0 raw, 1 scaled), and latencies.

    Latency and rate count only operations that matched and did not raise
    (error_rate counts the others); with none, latency is taken over all."""
    lat = [op[col] for op in ops if op[3]] or [op[col] for op in ops]
    rates = [op[2] / op[col] for op in ops if op[3] and op[2]]
    return {"setup_s": statistics.median(s[col] for s in setups),
            "work_per_s": statistics.median(rates) if rates else 0.0,
            "op_s_p50": statistics.median(lat),
            "peak_rss_mb": peak_rss_mb()}, lat


def report(wl, args, prov, checker, victim_match, metrics, units, timing):
    """Print the human-readable lines that precede the result object.

    `timing` is None for a traced run, else (ops, scaled latencies, raw metrics, raw latencies)."""
    error_rate = (checker.failed + len(checker.expected_errors)) / checker.attempted
    print(f"workload {wl.name}: {wl.op_name}; work unit: {wl.units}; seed {args.seed}; "
          f"{'traced' if args.trace else 'untraced'}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"operations {checker.attempted}  failed {checker.failed}  raised {checker.raised}  "
          f"victim_match {victim_match}  victim_digest_mismatch {checker.soft_mismatch}")
    if checker.expected_errors:
        print("expected errors (recorded at the reference commit): "
              + " ".join(checker.expected_errors))
    if checker.first_failure:
        print(f"first failure: {checker.first_failure}")
    if timing is not None:
        ops, lat, raw, raw_lat = timing
        print(f"headline metrics, scaled [raw wall], n={len(ops)} operations:")
        named = {"attack-long": [("flips_per_s", "work_per_s", "1/s"),
                                 ("run_s_p50", "op_s_p50", "s")],
                 "sweep-grid": [("runs_per_s", "work_per_s", "1/s")],
                 "train-victim": [("train_samples_per_s", "work_per_s", "1/s")]}
        for name, key, unit in named[wl.name]:
            print(f"  {name:<22} {metrics[key]:>12.6g} [{raw[key]:.6g}] {unit}")
        if wl.name == "attack-long":
            print(f"  {'run_s_p90':<22} {percentile(lat, 90):>12.6g} "
                  f"[{percentile(raw_lat, 90):.6g}] s")
        print(f"  {'error_rate':<22} {error_rate:>12.6g} count/count")
        print(f"  {'setup_s':<22} {metrics['setup_s']:>12.6g} [{raw['setup_s']:.6g}] s")
    print("metrics:")
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    err = bootstrap()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    tmp = os.path.join(out, "tmp")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(tmp)
    prov = provenance(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
    checker = Checker(wl, workloads.load_digests())
    clock = Clock()
    ops = timing = None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            result, raw, scaled = clock.time(wl.setup)
            if isinstance(result, Exception):
                raise result
            setups.append((raw, scaled))
        victim_match = wl.victim_match()
        if args.trace:
            tracer = tracing.Tracer()
            pairs = measure_traced(wl, args.seconds, clock, checker, tracer)
            metrics = tracing.layer_metrics(tracer, len(pairs))
            metrics["trace.overhead_frac"] = statistics.median(t / u for u, t in pairs) - 1.0
            tracer.write(os.path.join(out, "spans.jsonl"))
            declared = spec["per_layer"]
        else:
            ops = measure(wl, args.seconds, clock, checker)
            metrics, lat = end_to_end(ops, setups, 1)
            timing = (ops, lat, *end_to_end(ops, setups, 0))
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    report(wl, args, prov, checker, victim_match, metrics, units, timing)
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as f:
        json.dump({"provenance": prov, "metrics": metrics, "setups_raw_scaled": setups,
                   "ops_raw_scaled_work_ok": ops, "attempted": checker.attempted,
                   "failed": checker.failed, "raised": checker.raised}, f, indent=1)
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
