"""Experiment runner CLI: train, quantize, attack, sweep, report, verify."""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import functools
import hashlib
import io
import itertools
import multiprocessing
import os
import sys

import numpy as np

from . import attack, synth
from .attack import (RANKINGS, RECONS, RUN_CONFIG, _check_nbf, _score_flips, apply_flips,
                     check_config, evaluate_flips, load_trace, run_attacks,
                     select_random_bits, select_vulnerable_bits, trace_bytes)
from .model import (CHUNK, DATA_MAX_CLASSES, Architecture, Conv2D, Dataset, Dense, Flatten,
                    FloatModel, MaxPool, ModelFormatError, ReLU, accuracy, check_dataset,
                    dataset_bytes, filter_count, forward_batch, load_dataset, load_model,
                    model_bytes, weight_shape, write_file)
from .quantize import (BITWIDTHS, QuantModel, QuantParams, accuracy_quant, dequantize_model,
                       flip_bit, qmodel_bytes, quantize_model)
from .reconstruct import ReconstructionMethod, oracle_min_abs, reconstruct_code

EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_IO = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# The keys each command's config file may set: a train key names a synth.SynthSpec or
# synth.TrainConfig field (three by another name); a run file lists `seed` as `seeds`.
_TRAIN_RENAMED = {(synth.SynthSpec, "seed"): "data_seed", (synth.TrainConfig, "seed"): "train_seed",
                  (synth.TrainConfig, "batch_size"): "batch"}
TRAIN_CONFIG = {_TRAIN_RENAMED.get((cls, f.name), f.name): (cls, f)
                for cls in (synth.SynthSpec, synth.TrainConfig) for f in dataclasses.fields(cls)}
RUN_FILE_KEYS = {k: "seeds" if k == "seed" else k for k in RUN_CONFIG}
RUN_KEYS = ("victim", "eval", *RUN_FILE_KEYS.values())


def parse_config(path, keys):
    """key = value [value ...] lines of UTF-8 text; '#' starts a comment. A key not in
    `keys`, or set twice, is an error."""
    cfg, where = {}, {}  # key -> values, line number
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    for i, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            raise _UsageError(f"{path} line {i}: not UTF-8 text") from None
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path} line {i}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise _UsageError(f"{path} line {i}: unknown config key {key!r}")
        if key in where:
            raise _UsageError(f"{path} line {i}: config key {key!r} already set on line "
                              f"{where[key]}")
        cfg[key], where[key] = val.split(), i
    return cfg


def _cast(key, cast, value):
    try:
        return cast(value)
    except ValueError:
        raise _UsageError(f"config key {key!r}: {value!r} is not a valid {cast.__name__}") from None


def _one(cfg, key, cast=str):
    values = _many(cfg, key, cast)
    if len(values) > 1:
        raise _UsageError(f"config key {key!r} takes one value, got {len(values)}")
    return values[0]


def _many(cfg, key, cast=str, default=None):
    if not cfg.get(key):
        if default is not None:
            return default
        raise _UsageError(f"config missing key {key!r}")
    return [_cast(key, cast, v) for v in cfg[key]]


def _runs(cfg, seed_base=None):
    """The runs of an attack/sweep config: one RUN_CONFIG dict per point of the product
    over nq, rp, seeds, ranking and recon, in that order. `seeds` defaults to 0, and
    `seed_base` replaces the seeds with seed_base, seed_base + 1, ... Every value is
    checked before any run starts."""
    axes = {}
    for k, name in RUN_FILE_KEYS.items():
        cast = RUN_CONFIG[k][0]
        if k == "nbf":  # one value: results.csv has no nbf column
            axes[k] = [_one(cfg, name, cast)]
        else:
            axes[k] = _many(cfg, name, cast, [0] if k == "seed" else None)
    if seed_base is not None:
        axes["seed"] = [seed_base + i for i in range(len(axes["seed"]))]
    try:
        for k, values in axes.items():
            for v in values:
                check_config(k, v, RUN_FILE_KEYS[k])
            if len(set(values)) < len(values):  # a repeated run would write one trace twice
                raise ValueError(f"{RUN_FILE_KEYS[k]} must list distinct values, got {values}")
    except ValueError as e:
        raise _UsageError(str(e)) from None
    return [dict(zip(axes, run)) for run in itertools.product(*axes.values())]


def cmd_train(args):
    cfg = parse_config(args.config, TRAIN_CONFIG)
    fields = {synth.SynthSpec: {}, synth.TrainConfig: {}}
    for key, (cls, f) in TRAIN_CONFIG.items():
        if cfg.get(key):  # a key left out, or left empty, keeps the field's default
            d = f.default  # values take its type; a tuple default's, its items' type
            fields[cls][f.name] = (tuple(_many(cfg, key, type(d[0]))) if isinstance(d, tuple)
                                   else _one(cfg, key, type(d)))
    try:
        spec = synth.SynthSpec(**fields[synth.SynthSpec])
        if spec.classes > DATA_MAX_CLASSES:
            raise _UsageError(f"classes must be <= {DATA_MAX_CLASSES}: .data files store labels as uint8")
        tc = synth.TrainConfig(**fields[synth.TrainConfig])
        arch = synth.desk_architecture(spec.classes, spec.input_shape)
        _check_out(args.out)
        train_ds, test_ds = synth.gen_synthetic(spec)  # a noise too large for float32
    except ValueError as e:
        raise _UsageError(f"train config: {e}") from None
    data_files = [(path, dataset_bytes(data, path)) for path, data in
                  ((os.path.join(args.out, "train.data"), train_ds),
                   (os.path.join(args.out, "test.data"), test_ds))]
    _refuse_other_bytes(data_files)  # known before training; victim.model only after it
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
            model = synth.train(arch, train_ds, tc)
    except synth.TrainingDiverged as e:
        raise _UsageError(f"training diverged ({e}); try a smaller lr") from None
    victim = os.path.join(args.out, "victim.model")
    try:
        files = [(victim, model_bytes(model, victim))]
    except ValueError as e:  # weights that grew beyond float32 range
        raise _UsageError(f"trained model cannot be saved ({e}); try a smaller lr") from None
    os.makedirs(args.out, exist_ok=True)  # no file in a new directory can refuse
    _write_new(files + data_files)
    print(f"train accuracy {accuracy(model, train_ds):.4f}")
    print(f"test accuracy  {accuracy(model, test_ds):.4f}")
    return EXIT_OK


def cmd_quantize(args):
    model = load_model(args.model)
    _write_new([(args.out, qmodel_bytes(quantize_model(model, args.nq), args.out))])
    print(f"wrote {args.out}")
    return EXIT_OK


def _refuse_other_bytes(files):
    """Raise FileExistsError for the first (path, bytes) pair of `files` whose path holds
    other bytes; only a path that exists is read."""
    for path, data in files:
        if os.path.exists(path):
            with open(path, "rb") as f:
                if f.read() != data:
                    raise FileExistsError(f"{path} holds other bytes and is not replaced; "
                                          "choose another --out")


def _write_new(files):
    """Write each (path, bytes) pair of one command's `files`, once no path holds other
    bytes, such as another run's output or this run's input: such a path is refused,
    before any file is written (`_refuse_other_bytes`). Every command writes its files
    here, so the same command again rewrites the same bytes, and a different one never
    replaces them."""
    _refuse_other_bytes(files)
    for path, data in files:
        write_file(path, data)


def _run_group(victim, eval_ds, runs):
    """run_attacks for RUN_CONFIG dicts that share nq, rp and seed, on `victim`,
    quantized to that nq; returns their traces in the order of `runs`."""
    nq, rp, seed, nbf = (runs[0][k] for k in ("nq", "rp", "seed", "nbf"))
    methods = [(RANKINGS[r["ranking"]](seed), RECONS[r["recon"]]) for r in runs]
    try:
        return run_attacks(victim, rp, seed, methods, nbf, eval_ds)
    except ValueError as e:  # every input was checked: fewer gradient-aligned flips than nbf
        raise _UsageError(f"nq {nq}, rp {rp!r}, seed {seed}, nbf {nbf}: {e}") from None


def _run_all(cfg, runs, out, jobs=1, table=None):
    """Load the victim once, quantize it once per nq, check nbf against it (`_check_nbf`),
    the eval set against it (`check_dataset`) and `out` (`_check_out`), then run the runs
    in groups that share (nq, rp, seed), one group per task on up to `jobs` processes,
    and write each trace to `out` through `_write_new`; returns the traces in run order.
    `table`: a file name in `out` that then receives the traces' `_csv_bytes`.

    `runs` comes from `_runs`, whose product order puts each group's runs together."""
    victim_path = _one(cfg, "victim")
    model = load_model(victim_path)
    victims = {nq: quantize_model(model, nq) for nq in dict.fromkeys(r["nq"] for r in runs)}
    try:
        _check_nbf(victims[runs[0]["nq"]], runs[0]["nbf"])
    except ValueError as e:
        raise _UsageError(f"nbf for {victim_path}: {e}") from None
    eval_path = _one(cfg, "eval")
    eval_ds = load_dataset(eval_path)
    try:
        check_dataset(model.architecture, eval_ds)
    except ValueError as e:
        raise _UsageError(f"eval set {eval_path} for {victim_path}: {e}") from None
    _check_out(out)
    groups = [list(g) for _, g in itertools.groupby(runs, lambda r: (r["nq"], r["rp"], r["seed"]))]
    work = [(victims[g[0]["nq"]], eval_ds, g) for g in groups]
    jobs = min(jobs, len(groups))
    with multiprocessing.Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        starmap = pool.starmap if pool else itertools.starmap
        traces = list(itertools.chain(*starmap(_run_group, work)))
    files = [(_trace_path(out, run), trace_bytes(trace)) for run, trace in zip(runs, traces)]
    if table is not None:
        files.append((os.path.join(out, table), _csv_bytes(traces)))
    os.makedirs(out, exist_ok=True)
    _write_new(files)
    return traces


def _check_out(out):
    """Raise the OSError that `os.makedirs(out, exist_ok=True)` would raise on an `out`
    that is, or lies under, an existing file that is not a directory; creates nothing."""
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        code = errno.EEXIST if path == os.path.abspath(out) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), out)


def _cfg_hash(cfg):
    text = "|".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _trace_path(out, config):
    """A trace's path in `out`: its name hashes its RUN_CONFIG only."""
    return os.path.join(out, f"trace_{_cfg_hash(config)}.trace")


def cmd_attack(args):
    cfg = parse_config(args.config, RUN_KEYS)
    runs = _runs(cfg)
    if len(runs) > 1:
        raise _UsageError(f"attack takes one value per key, but the config gives {len(runs)} "
                          "runs; use sweep for lists")
    (trace,) = _run_all(cfg, runs, args.out)
    print(f"wrote {_trace_path(args.out, runs[0])} (final accuracy {trace.accuracies[-1]:.4f})")
    return EXIT_OK


def cmd_sweep(args):
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = parse_config(args.config, RUN_KEYS)
    traces = _run_all(cfg, _runs(cfg, args.seed_base), args.out, args.jobs, "results.csv")
    print(f"wrote {len(traces)} traces + results.csv to {args.out}")
    return EXIT_OK


def _csv_bytes(traces):
    """The UTF-8 CSV of `traces`: a header, then a row per accuracy of each trace, the
    accuracy last."""
    f = io.StringIO()
    w = csv.writer(f, lineterminator="\n")
    w.writerow(["nq", "rp", "seed", "ranking", "recon", "flip_index", "accuracy"])
    for t in traces:
        c = t.config
        for i, a in enumerate(t.accuracies):
            w.writerow([c["nq"], repr(c["rp"]), c["seed"], c["ranking"], c["recon"], i, repr(a)])
    return f.getvalue().encode("utf-8")


def cmd_report(args):
    names = sorted(n for n in os.listdir(args.results) if n.endswith(".trace"))
    if not names:
        raise _UsageError(f"no .trace files in {args.results}")
    traces = [load_trace(os.path.join(args.results, n)) for n in names]
    traces.sort(key=lambda t: (t.config["nq"], t.config["rp"], t.config["ranking"],
                               t.config["recon"], t.config["seed"]))
    groups = {}
    for t in traces:
        c = t.config
        groups.setdefault((c["nq"], c["rp"], c["ranking"], c["recon"]), []).append(t)
    f = io.StringIO()
    w = csv.writer(f, lineterminator="\n")
    w.writerow(["nq", "rp", "ranking", "recon", "flips", "mean_accuracy"])
    for key in sorted(groups):
        ts = groups[key]
        for flips in (0, 10, 20, 50, 100):
            if flips < min(len(t.accuracies) for t in ts):  # nbf may differ
                mean = float(np.mean([t.accuracies[flips] for t in ts]))
                w.writerow([*key, flips, repr(mean)])
    out = args.out or args.results
    os.makedirs(out, exist_ok=True)
    _write_new([(os.path.join(out, "report.csv"), _csv_bytes(traces)),
                (os.path.join(out, "summary.csv"), f.getvalue().encode("utf-8"))])
    print(f"wrote report.csv and summary.csv to {out}")
    return EXIT_OK


def _verify_czr():
    count = 0  # reconstruct_code and the oracle read only a mask and its recovered bits
    for nq in BITWIDTHS:
        for mask in range(1 << nq):
            known = mask
            for _ in range(1 << mask.bit_count()):  # every pattern of the recovered bits
                count += 1
                got = reconstruct_code(known, mask, nq, ReconstructionMethod.CZR)
                if got != oracle_min_abs(known, mask, nq):
                    return False, f"CZR mismatch at nq={nq} bits={known:0{nq}b} mask={mask:0{nq}b}"
                known = known - 1 & mask
    return True, ("closer-to-zero completion matches exhaustive oracle on every partial 4-, "
                  f"6- and 8-bit code ({count} mask/bit pairs)")


def _verify_sign_flip():
    for nq in BITWIDTHS:
        half, quarter = 1 << (nq - 1), 1 << (nq - 3)
        for c in range(-half, half):
            if abs(flip_bit(c, nq - 1, nq) - c) != half:
                return False, f"sign-flip delta wrong at nq={nq} c={c}"
            if half - quarter <= c <= half - 1 and abs(flip_bit(c, nq - 1, nq)) > quarter:
                return False, f"top-quartile code {c} not mapped near zero at nq={nq}"
    return True, f"sign flips shift every code by exactly half-range (nq {BITWIDTHS}, exhaustive)"


def _verify_gradient():
    rng = np.random.default_rng(5)
    conv = (Conv2D(1, 2, 3), ReLU(), MaxPool(2))
    archs = [  # two convs; a pool under the head; a padded strided conv; dense layers only
        Architecture(conv + (Conv2D(2, 3, 3), ReLU(), Flatten(), Dense(3, 3)), (1, 8, 8), 3),
        Architecture(conv + (Flatten(), Dense(2, 3)), (1, 4, 4), 3),
        Architecture((Conv2D(1, 2, 3, 2, 1), *conv[1:], Flatten(), Dense(8, 3)), (1, 8, 8), 3),
        Architecture((Flatten(), Dense(16, 5), ReLU(), Dense(5, 3)), (1, 4, 4), 3)]
    labels, step, worst = np.array([0, 1, 2, 1]), 1e-3, 0.0
    for arch in archs:
        ws = [rng.standard_normal(weight_shape(l)) * 0.5 for _, l in arch.parametric_layers()]
        bsz = [rng.standard_normal(filter_count(l)) * 0.1 for _, l in arch.parametric_layers()]
        inputs = rng.standard_normal((4, *arch.input_shape))
        dws, dbs = synth.gradient(FloatModel(arch, ws, bsz), inputs, labels)
        params, n = ws + bsz, len(ws)  # the weights, then the biases
        for p, grad in enumerate(dws + dbs):
            flat = params[p].reshape(-1)
            for i in range(flat.size):
                mod = [a.copy() for a in params]
                mod[p].reshape(-1)[i] = flat[i] + step
                up = synth.batch_loss(FloatModel(arch, mod[:n], mod[n:]), inputs, labels)
                mod[p].reshape(-1)[i] = flat[i] - step
                down = synth.batch_loss(FloatModel(arch, mod[:n], mod[n:]), inputs, labels)
                fd = (up - down) / (2 * step)
                worst = max(worst, abs(grad.reshape(-1)[i] - fd) / max(1.0, abs(fd)))
    return worst <= 1e-4, ("analytic weight and bias gradients vs central finite differences "
                           f"on {len(archs)} architectures: worst rel err {worst:.2e} (limit 1e-4)")


def _verify_incremental():
    rng = np.random.default_rng(11)
    # a padded conv, then a strided one: restarts rewrite copied patch-matrix rows; the
    # second's 5 filters make its last two-row block share a row with the one before
    arch = Architecture((Conv2D(1, 4, 3, 1, 1), ReLU(), MaxPool(2), Conv2D(4, 5, 3, 2, 1), ReLU(),
                         Flatten(), Dense(20, 3)), (1, 8, 8), 3)
    layers = [l for _, l in arch.parametric_layers()]
    biases = [rng.standard_normal(filter_count(l)) * 0.1 for l in layers]
    victims = [QuantModel(arch, [QuantParams(nq, scale)] * len(layers),
                          [rng.integers(-(1 << nq - 1), 1 << nq - 1, weight_shape(l)).astype(np.int16)
                           for l in layers], biases) for nq, scale in ((8, 0.02), (6, 0.07))]
    inputs = rng.standard_normal((48, 1, 8, 8))
    # labelled by the first clean victim, so that flips move the accuracy off 1.0
    data = Dataset(inputs, forward_batch(dequantize_model(victims[0]), inputs).argmax(axis=1))

    def first_difference(victim, lists, data):
        """Where the first logits of `_score_flips` differ from a fresh `forward_batch` of
        the `apply_flips` victim, or None."""
        logits = _score_flips(victim, lists, data, lambda logits: logits.tobytes())
        for j, recs in enumerate(lists):
            for i in range(len(recs) + 1):
                ref = forward_batch(dequantize_model(apply_flips(victim, recs[:i])), data.inputs)
                if logits[j][i] != ref.tobytes():
                    return f"after flip {i} of list {j}"
        return None

    passes = []
    for k, victim in enumerate(victims):
        records = select_vulnerable_bits(victim, 40) + select_random_bits(victim, 20, 11)
        rng.shuffle(records)
        head = [r for r in records if r.layer == len(layers) - 1]
        # lists from one pass, the second victim's re-aimed from the first's; each list
        # starts from the pass the one before left, and both ways of starting must run:
        # below the lowest layer that list flipped, and at or above it
        lists = [records, head, sorted(records[::2], key=lambda r: r.layer), records[1::2]]
        below = [b[0].layer < min(r.layer for r in a) for a, b in zip(lists, lists[1:])]
        if set(below) != {True, False}:
            return False, f"victim {k}'s lists do not start both below and at or above a layer"
        wrong = first_difference(victim, lists, data)
        if wrong:
            return False, (f"incremental logits differ from the apply_flips reference {wrong} "
                           f"of victim {k}")
        passes.append(attack._held.victim_pass)
    if passes[1] is not passes[0]:
        return False, "the second victim's call built a new pass instead of re-aiming the first's"
    accs = [accuracy_quant(apply_flips(victim, records[:i]), data) for i in range(len(records) + 1)]
    # lists of the second victim on two full chunks and a short one: from a new pass, then
    # at or above the lowest layer the list before flipped, then below it
    n = 2 * CHUNK + 37
    wrong = first_difference(victim, [records[:10], head[:5], records[3:13]],
                             Dataset(rng.standard_normal((n, 1, 8, 8)), rng.integers(0, 3, n)))
    if wrong:
        return False, (f"incremental logits differ from the apply_flips reference {wrong} "
                       f"of victim {k} on {n} samples")
    chunked = len(attack._held.victim_pass.workspaces)
    ws = passes[0].workspaces[0]  # the pass checked names the GEMM its conv restarts ran
    paths = ", ".join(f"layer {pos} {'two-row block' if ws.two_row_blocks(pos) else 'full GEMM'}"
                      for pos, layer in arch.parametric_layers() if isinstance(layer, Conv2D))
    return evaluate_flips(victim, records, data) == accs, (
        f"incremental evaluator vs apply_flips + accuracy_quant over {len(records)} flips, "
        "then lists from the pass the list before left, starting at, above and below the "
        "lowest layer it flipped, on one pass re-aimed at a second victim (padded and "
        "strided convs, an odd filter count, pool, dense), and three lists on "
        f"{n} samples, {chunked} chunks of up to {CHUNK}: logits bit-identical, accuracies "
        f"equal; conv restarts: {paths}")


def cmd_verify(_args):
    checks = [("czr-oracle", _verify_czr), ("sign-flip-algebra", _verify_sign_flip),
              ("gradient-check", _verify_gradient), ("incremental-eval", _verify_incremental)]
    failed = False
    for name, fn in checks:
        ok, detail = fn()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed |= not ok
    return EXIT_VERIFY if failed else EXIT_OK


@functools.cache  # once per process; main looks up cmd_<command> at each call
def build_parser():
    parser = _Parser(prog="bitsiege", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="generate synthetic data, train, and save a victim")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("quantize", help="quantize a float model file")
    p.add_argument("--model", required=True)
    p.add_argument("--nq", type=int, required=True, choices=BITWIDTHS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("attack", help="single end-to-end attack run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="Cartesian sweep over config axes")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed-base", type=int, default=None)

    p = sub.add_parser("report", help="turn trace files into CSV tables")
    p.add_argument("results")
    p.add_argument("--out", default=None)

    sub.add_parser("verify", help="run built-in acceptance checks")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ModelFormatError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
