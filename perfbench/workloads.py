"""The benchmark's workloads: inputs made from the workload seed, one operation, its check.

Each workload is a closed loop of operations run back to back in one process.
Every output is checked against `digests.json`, recorded by `record.py` from
the reference commit. The attack workloads read the victim and eval set committed
under `data/`, so their digests depend only on the attack path and not on how
training rounds floats.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil

import numpy as np

import bitsiege as bs
from bitsiege import cli
from bitsiege.attack import FL2R, GradientBaseline, RandomBits
from bitsiege.reconstruct import ReconstructionMethod

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
DIGESTS = os.path.join(HERE, "digests.json")
VICTIM = os.path.join(DATA, "victim.model")
EVAL = os.path.join(DATA, "test.data")


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def make_desk_victim(out):
    """Generate the 8-bit desk victim: synthetic data, SGD training, quantize, write files."""
    spec = bs.SynthSpec()
    train_ds, test_ds = bs.gen_synthetic(spec)
    model = bs.train(bs.desk_architecture(spec.classes, spec.input_shape), train_ds,
                     bs.TrainConfig())
    bs.save_model(model, os.path.join(out, "victim.model"))
    bs.save_dataset(test_ds, os.path.join(out, "test.data"))
    bs.save_qmodel(bs.quantize_model(model, 8), os.path.join(out, "victim.qmodel"))


def _cli(argv):
    """cli.main with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    """`op(i)` runs operation i and is what gets timed; `outcome(i, result)` checks it.

    `outcome` returns (work units done, {output key: digest}); a result that is an
    exception becomes an "error:<type>:<message>" entry under the operation's key.
    """
    name = ""
    units = ""          # what work_per_s counts
    op_name = ""        # what one operation is

    def __init__(self, seed, work):
        self.work = work
        self.order = np.random.default_rng(seed).permutation(self.TABLE)

    def setup(self):
        """Per-run preparation; timed as setup_s."""
        make_desk_victim(self.work)

    def victim_match(self):
        """Whether set-up regenerated the committed desk victim byte for byte."""
        return all(digest(os.path.join(self.work, os.path.basename(p))) == digest(p)
                   for p in (VICTIM, EVAL))

    def reference(self, digests, outcome):
        """The recorded digests for the keys of one outcome (None where none is recorded)."""
        table = digests[self.name]
        return {k: table.get(k) for k in outcome}


def _error(key, e):
    return 0, {key: f"error:{type(e).__name__}:{e}"}


class AttackLong(Workload):
    """Back-to-back run_attack calls on the 8-bit desk victim at nbf=200."""
    name = "attack-long"
    units = "flips"
    op_name = "run_attack call (nbf=200)"
    TABLE = 128                      # attack seeds 0..127 have recorded digests
    RANKINGS = ("fl2r", "random", "gradient")
    RP, NBF, BATCH = 0.8, 200, 32

    def setup(self):
        super().setup()
        self.victim = bs.quantize_model(bs.load_model(VICTIM), 8)
        self.eval = bs.load_dataset(EVAL)

    def inputs(self, i):
        return self.RANKINGS[i % 3], int(self.order[(i // 3) % self.TABLE])

    def op(self, i):
        ranking, seed = self.inputs(i)
        method = {"fl2r": FL2R(), "random": RandomBits(seed),
                  "gradient": GradientBaseline(self.BATCH)}[ranking]
        return bs.run_attack(self.victim, self.RP, seed, method, ReconstructionMethod.CZR,
                             self.NBF, self.eval)

    def outcome(self, i, result):
        key = "%s:%d" % self.inputs(i)
        if isinstance(result, Exception):
            return _error(key, result)
        path = os.path.join(self.work, "op.trace")
        bs.save_trace(result, path)
        return len(result.records), {key: digest(path)}


class SweepGrid(Workload):
    """One `bitsiege sweep` of 54 short runs per operation, through cli.main."""
    name = "sweep-grid"
    units = "traces"
    op_name = "bitsiege sweep (54 runs, nbf=5)"
    TABLE = 32                       # seed bases 0..31 have recorded digests
    CONFIG = ("nq = 8 4\nrp = 0.5 0.8 1.0\nseeds = 0\nranking = fl2r random gradient\n"
              "recon = czr allzeros allones\nnbf = 5\n")

    def setup(self):
        super().setup()
        self.config = os.path.join(self.work, "sweep.cfg")
        with open(self.config, "w", encoding="utf-8") as f:
            # Relative paths: the config format splits values on whitespace.
            f.write(f"victim = {os.path.relpath(VICTIM)}\neval = {os.path.relpath(EVAL)}\n"
                    f"{self.CONFIG}")
        self.out = os.path.join(self.work, "sweep")

    def base(self, i):
        return int(self.order[i % self.TABLE])

    def op(self, i):
        return _cli(["sweep", "--config", self.config, "--out", self.out,
                     "--jobs", "1", "--seed-base", str(self.base(i))])[0]

    def outcome(self, i, result):
        key = f"base{self.base(i)}"
        if isinstance(result, Exception):
            return _error(f"{key}:exit", result)
        if result != 0:
            return 0, {f"{key}:exit": str(result)}
        names = sorted(os.listdir(self.out))
        outcome = {f"{key}:{n}": digest(os.path.join(self.out, n)) for n in names}
        shutil.rmtree(self.out)
        return sum(n.endswith(".trace") for n in names), outcome

    def reference(self, digests, outcome):
        # A sweep must write exactly the recorded files: a missing one is a mismatch too.
        base = next(iter(outcome)).split(":")[0]
        table = digests[self.name]
        keys = set(outcome) | {k for k in table if k.startswith(base + ":")}
        return {k: table.get(k) for k in keys}


class TrainVictim(Workload):
    """`bitsiege train` on a 1x16x16, 4-class task, 200 per class, 6 epochs."""
    name = "train-victim"
    units = "samples x epochs"
    op_name = "bitsiege train (800 samples, 6 epochs)"
    TABLE = 8                        # data/train seed pairs 0..7 have recorded digests
    SAMPLES, EPOCHS = 4 * 200, 6
    MIN_ACCURACY = 0.9

    def config(self, k, epochs=EPOCHS, per_class=200):
        path = os.path.join(self.work, f"train{k}_{epochs}.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"classes = 4\nper_class = {per_class}\ntest_per_class = 50\n"
                    f"input_shape = 1 16 16\nepochs = {epochs}\n"
                    f"data_seed = {100 + k}\ntrain_seed = {200 + k}\n")
        return path

    def setup(self):
        # Prepare the configs, then warm the train path once at a tiny size.
        self.configs = [self.config(k) for k in range(self.TABLE)]
        rc, _ = _cli(["train", "--config", self.config(0, 1, 10), "--out",
                      os.path.join(self.work, "warm")])
        if rc != 0:
            raise RuntimeError(f"warm-up train exited {rc}")
        self.out = os.path.join(self.work, "train")

    def victim_match(self):
        return None              # set-up trains no desk victim

    def pair(self, i):
        return int(self.order[i % self.TABLE])

    def op(self, i):
        return _cli(["train", "--config", self.configs[self.pair(i)], "--out", self.out])[0]

    def outcome(self, i, result):
        key = f"pair{self.pair(i)}"
        if isinstance(result, Exception):
            return _error(f"{key}:exit", result)
        if result != 0:
            return 0, {f"{key}:exit": str(result)}
        path = functools.partial(os.path.join, self.out)
        outcome = {f"{key}:{n}": digest(path(n)) for n in ("train.data", "test.data")}
        acc = bs.accuracy(bs.load_model(path("victim.model")), bs.load_dataset(path("test.data")))
        outcome[f"{key}:accuracy_ok"] = str(acc >= self.MIN_ACCURACY)
        # The model's bytes depend on training's float rounding: compared, reported apart.
        outcome[f"{key}:victim.model"] = digest(path("victim.model"))
        shutil.rmtree(self.out)
        return self.SAMPLES * self.EPOCHS, outcome


WORKLOADS = {w.name: w for w in (AttackLong, SweepGrid, TrainVictim)}


def load_digests():
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)
