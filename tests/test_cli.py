import os
import re

import numpy as np
import pytest

import bitsiege as bs
from bitsiege import cli
from bitsiege.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main, parse_config
from bitsiege.model import dataset_bytes


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, desk):
    """victim/model/data/trace files shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    bs.save_model(desk["model"], d / "victim.model")
    bs.save_dataset(desk["test"], d / "test.data")
    (d / "run.trace").write_bytes(b"bitsiege-trace-v1\nnq 8\nrp 0.8\nseed 0\nranking fl2r\n"
                                  b"recon czr\nnbf 2\nflip 0 5 3 7\nflip 1 2 0 7\n"
                                  b"acc 1.0\nacc 0.5\nacc 0.25\n")
    return d


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a = 1 2 3  # comment\n\nb = x\n")
    assert parse_config(p, ("a", "b")) == {"a": ["1", "2", "3"], "b": ["x"]}


def test_train_command(tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg",
                    "classes = 4\nper_class = 20\ntest_per_class = 5\nepochs = 3\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "victim.model").exists()
    assert (out / "test.data").exists()
    bs.load_model(out / "victim.model")


def test_train_never_replaces_another_runs_files(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    trainings, train_model = [], cli.synth.train

    def counted(*args):
        trainings.append(args)
        return train_model(*args)
    monkeypatch.setattr(cli.synth, "train", counted)

    def train(epochs=2, test_per_class=5):
        cfg = write_cfg(tmp_path / "t.cfg", f"per_class = 20\ntest_per_class = {test_per_class}\n"
                                            f"epochs = {epochs}\n")
        return main(["train", "--config", cfg, "--out", str(out)])

    def files():
        return {p.name: p.read_bytes() for p in out.iterdir()}
    assert train() == EXIT_OK
    before = files()
    assert train() == EXIT_OK and files() == before  # the same run again

    def refused(name):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"i/o error: {out / name} holds other bytes "
                                                   "and is not replaced"), err
        assert files() == before
    capsys.readouterr()
    assert train(epochs=3) == EXIT_IO
    refused("victim.model")
    # the data files are checked before training: with test.data refused, the missing
    # victim.model is neither trained nor written
    (out / "victim.model").unlink()
    del before["victim.model"]
    assert len(trainings) == 3
    assert train(test_per_class=6) == EXIT_IO
    refused("test.data")
    assert len(trainings) == 3


def test_main_builds_one_parser_and_finds_each_command_at_call_time(monkeypatch, capsys):
    # a function bound over cli.cmd_<command> after the parser was built still runs
    parser, calls = cli.build_parser(), []
    monkeypatch.setattr(cli, "cmd_report", lambda args: calls.append(args.command) or EXIT_OK)
    assert main(["report", "results"]) == EXIT_OK and calls == ["report"]
    assert cli.build_parser() is parser


def test_quantize_command(workdir, tmp_path, capsys):
    out = tmp_path / "v.qmodel"
    victim = tmp_path / "victim.model"
    victim.write_bytes((workdir / "victim.model").read_bytes())
    for _ in range(2):  # the same run again rewrites the same bytes
        assert main(["quantize", "--model", str(victim), "--nq", "8", "--out", str(out)]) == EXIT_OK
    q = bs.load_qmodel(out)
    assert q.params[0].bitwidth == 8
    # a quantize onto its own float input is refused, and leaves it as it was
    assert main(["quantize", "--model", str(victim), "--nq", "4", "--out", str(victim)]) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o error: {victim} holds other bytes"), err
    assert victim.read_bytes() == (workdir / "victim.model").read_bytes()


def test_attack_command(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "a.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = 1.0
seeds = 0
ranking = fl2r
recon = czr
nbf = 5
""")
    out = tmp_path / "atk"
    assert main(["attack", "--config", cfg, "--out", str(out)]) == EXIT_OK
    traces = [f for f in os.listdir(out) if f.endswith(".trace")]
    assert len(traces) == 1
    tr = bs.load_trace(out / traces[0])
    assert len(tr.accuracies) == 6


def test_attack_never_replaces_another_runs_trace(workdir, tmp_path, desk, capsys):
    # a trace's name hashes its run config only, so the same config on the eval set's
    # first 100 samples names the same file: that run must not replace the first trace
    first100 = tmp_path / "first100.data"
    bs.save_dataset(bs.Dataset(desk["test"].inputs[:100], desk["test"].labels[:100]), first100)
    out = tmp_path / "atk"

    def attack(eval_path):
        cfg = write_cfg(tmp_path / "a.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {eval_path}
nq = 8
rp = 0.8
ranking = fl2r
recon = czr
nbf = 5
""")
        return main(["attack", "--config", cfg, "--out", str(out)])
    assert attack(workdir / "test.data") == EXIT_OK
    (trace,) = out.iterdir()
    before = trace.read_bytes()
    assert attack(workdir / "test.data") == EXIT_OK  # the same run again
    capsys.readouterr()
    assert attack(first100) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o error: {trace} holds other bytes"), err
    assert list(out.iterdir()) == [trace] and trace.read_bytes() == before
    # a file of that name that is not a readable trace is not replaced either
    trace.write_bytes(before.replace(b"nq 8\n", b"nq 8 8\n"))
    assert attack(workdir / "test.data") == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o error: {trace} holds other bytes"), err
    assert trace.read_bytes() == before.replace(b"nq 8\n", b"nq 8 8\n")


def test_a_sweep_never_replaces_another_sweeps_results(workdir, tmp_path, capsys):
    out = tmp_path / "sweep"

    def sweep(rp):
        cfg = write_cfg(tmp_path / "s.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = {rp}
seeds = 0 1
ranking = fl2r random
recon = czr
nbf = 3
""")
        return main(["sweep", "--config", cfg, "--out", str(out)])
    assert sweep(0.8) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sweep(0.8) == EXIT_OK  # the same sweep again
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    capsys.readouterr()
    assert sweep(1.0) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    results = out / "results.csv"
    assert len(err) == 1 and err[0].startswith(f"i/o error: {results} holds other bytes"), err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # no rp 1.0 trace either


def test_a_report_never_replaces_another_reports_tables(workdir, tmp_path, capsys):
    def sweep(rp, out):
        cfg = write_cfg(tmp_path / "s.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = {rp}
ranking = fl2r
recon = czr
nbf = 3
""")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    sweep(0.8, tmp_path / "sA")
    sweep(1.0, tmp_path / "sB")
    tables = tmp_path / "R"
    for _ in range(2):  # the same report again rewrites the same bytes
        assert main(["report", str(tmp_path / "sA"), "--out", str(tables)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in tables.iterdir()}
    assert sorted(before) == ["report.csv", "summary.csv"]
    capsys.readouterr()
    assert main(["report", str(tmp_path / "sB"), "--out", str(tables)]) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o error: {tables / 'report.csv'} holds other "
                                               "bytes and is not replaced"), err
    assert {p.name: p.read_bytes() for p in tables.iterdir()} == before


@pytest.mark.parametrize("edit", [
    lambda rows: rows[:1] + [r.replace(",0.8,", ",1.0,", 1) for r in rows[1:]],
    lambda rows: [rows[0].replace("flip_index", "flip")] + rows[1:],
    lambda rows: rows[:-1],
    lambda rows: rows + rows[-1:],
    lambda rows: rows[:-1] + [rows[-1].rpartition(",")[0] + ",0.5"]],
    ids=["other-rp", "other-header", "a-row-short", "a-row-more", "other-accuracy"])
def test_a_results_table_with_other_keys_is_refused_after_the_runs(
        workdir, tmp_path, capsys, edit):
    # a results.csv that differs from the sweep's in any byte is refused, with no file
    # written; the refusal comes after the runs
    cfg = write_cfg(tmp_path / "s.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = 0.8
seeds = 0 1
ranking = fl2r random
recon = czr
nbf = 3
""")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "first")]) == EXIT_OK
    rows = (tmp_path / "first" / "results.csv").read_text(encoding="utf-8").splitlines()
    out = tmp_path / "sweep"
    out.mkdir()
    table = out / "results.csv"
    held = ("\n".join(edit(rows)) + "\n").encode("utf-8")
    table.write_bytes(held)
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o error: {table} holds other bytes"), err
    assert os.listdir(out) == ["results.csv"] and table.read_bytes() == held


def sweep_cfg(workdir, tmp_path, name="s.cfg"):
    return write_cfg(tmp_path / name, f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8 4
rp = 0.7 1.0
seeds = 0 1
ranking = fl2r random
recon = czr
nbf = 4
""")


def test_sweep_and_report(workdir, tmp_path):
    cfg = sweep_cfg(workdir, tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    n_cfg = 2 * 2 * 2 * 2 * 1
    traces = [f for f in os.listdir(out) if f.endswith(".trace")]
    assert len(traces) == n_cfg
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + n_cfg * 5  # header + configs x (nbf+1)
    assert rows[0] == "nq,rp,seed,ranking,recon,flip_index,accuracy"

    rep = tmp_path / "rep"
    assert main(["report", str(out), "--out", str(rep)]) == EXIT_OK
    report_rows = (rep / "report.csv").read_text().strip().splitlines()
    assert len(report_rows) == 1 + n_cfg * 5
    summary = (rep / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "nq,rp,ranking,recon,flips,mean_accuracy"
    assert len(summary) == 1 + 8  # nbf=4 keeps only flips=0 per configuration group


def test_sweep_seed_base(workdir, tmp_path):
    cfg = sweep_cfg(workdir, tmp_path)
    out = tmp_path / "sb"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed-base", "50"]) == EXIT_OK
    rows = (out / "results.csv").read_text().strip().splitlines()[1:]
    seeds = {r.split(",")[2] for r in rows}
    assert seeds == {"50", "51"}


# Stand-ins that each break one invariant `bitsiege verify` checks: the check, where the
# functions are, their names, the stand-in built from each, and how its FAIL line starts
BREAKS = {
    "czr": ("czr-oracle", cli, ["reconstruct_code"],
            lambda f: lambda *a: f(*a) + (a[:3] == (5, 7, 8)),  # (known bits, mask, nq)
            "CZR mismatch at nq=8 bits=00000101 mask=00000111"),
    "czr6": ("czr-oracle", cli, ["reconstruct_code"],
             lambda f: lambda *a: f(*a) - (a[:3] == (5, 7, 6)),
             "CZR mismatch at nq=6 bits=000101 mask=000111"),
    "delta": ("sign-flip-algebra", cli, ["flip_bit"], lambda f: lambda c, *a: f(c, *a) + (c == 3),
              "sign-flip delta wrong at nq=4 c=3"),
    "no-wrap": ("sign-flip-algebra", cli, ["flip_bit"], lambda f: lambda c, bit, nq: c + (1 << bit),
                "top-quartile code 6 not mapped near zero at nq=4"),
    "gradient": ("gradient-check", cli.synth, ["gradient"],
                 lambda f: lambda *a: tuple([2 * g for g in gs] for gs in f(*a)),
                 "analytic weight and bias gradients vs central finite differences"),
    "one-layer": ("incremental-eval", cli, ["select_vulnerable_bits", "select_random_bits"],
                  lambda f: lambda *a: [r for r in f(*a) if r.layer == 2],
                  "victim 0's lists do not start both below and at or above a layer"),
    "logits": ("incremental-eval", cli, ["_score_flips"],
               lambda f: lambda *a: [[b""] + scores[1:] for scores in f(*a)],
               "incremental logits differ from the apply_flips reference after flip 0 of list 0"),
    "new-pass": ("incremental-eval", cli.attack._FlipPass, ["serves"], lambda f: lambda *a: False,
                 "the second victim's call built a new pass instead of re-aiming the first's"),
    "accuracies": ("incremental-eval", cli, ["evaluate_flips"], lambda f: lambda *a: f(*a)[:-1],
                   "incremental evaluator vs apply_flips + accuracy_quant over 60 flips"),
}


# czr-oracle, broken at its 103rd (czr6) or 832nd (czr) of 7,371 inputs, fails in milliseconds;
# a pass takes ~0.2 s
@pytest.mark.parametrize("broken", [["czr"], ["czr6"], ["czr", "delta", "gradient", "logits"],
                                    ["czr", "no-wrap", "one-layer"], ["czr", "new-pass"],
                                    ["czr", "accuracies"]], ids="+".join)
def test_verify_fails_where_an_invariant_breaks(monkeypatch, capsys, broken):
    for _, owner, names, stand_in, _ in map(BREAKS.get, broken):
        for name in names:
            monkeypatch.setattr(owner, name, stand_in(getattr(owner, name)))
    assert main(["verify"]) == EXIT_VERIFY
    fails = {BREAKS[key][0]: BREAKS[key][-1] for key in broken}
    checks = ["czr-oracle", "sign-flip-algebra", "gradient-check", "incremental-eval"]
    for line, check in zip(capsys.readouterr().out.splitlines(), checks, strict=True):
        assert line.startswith(f"FAIL {check}: {fails[check]}" if check in fails else
                               f"PASS {check}: "), line


def test_sweep_reads_each_input_once(workdir, tmp_path, monkeypatch):
    calls = {"load_model": 0, "load_dataset": 0, "quantize_model": 0}
    for name in calls:
        def counted(*a, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*a)
        monkeypatch.setattr(cli, name, counted)
    assert main(["sweep", "--config", sweep_cfg(workdir, tmp_path), "--out",
                 str(tmp_path / "sweep")]) == EXIT_OK
    assert calls == {"load_model": 1, "load_dataset": 1, "quantize_model": 2}  # nq 8 and 4


def grid_cfg(workdir, tmp_path):
    """Two nq, two rp and two seeds (8 groups), each with 3 rankings x 3 recons."""
    return write_cfg(tmp_path / "grid.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8 4
rp = 0.6 1.0
seeds = 0 1
ranking = fl2r random gradient
recon = czr allzeros allones
nbf = 5
""")


def test_sweep_traces_equal_one_run_attack_per_run(workdir, tmp_path):
    cfg = grid_cfg(workdir, tmp_path)
    out = tmp_path / "grid"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    model, eval_ds = bs.load_model(workdir / "victim.model"), bs.load_dataset(workdir / "test.data")
    victims = {nq: bs.quantize_model(model, nq) for nq in (8, 4)}
    runs = cli._runs(cli.parse_config(cfg, cli.RUN_KEYS))
    assert len(runs) == 72 and len(list(out.glob("*.trace"))) == 72
    ref = tmp_path / "ref.trace"
    for r in runs:
        bs.save_trace(bs.run_attack(victims[r["nq"]], r["rp"], r["seed"],
                                    cli.RANKINGS[r["ranking"]](r["seed"]), cli.RECONS[r["recon"]],
                                    r["nbf"], eval_ds), ref)
        got = (out / f"trace_{cli._cfg_hash(r)}.trace").read_bytes()
        assert got == ref.read_bytes(), r


def test_sweep_shares_recovery_surrogates_and_baseline_per_group(workdir, tmp_path, monkeypatch,
                                                                 no_held_pass):
    from bitsiege import attack
    calls = {"simulate_recovery": 0, "reconstruct_model": 0, "Workspace": 0,
             "aim victim_pass": 0, "aim batch_pass": 0}

    def counted(name, fn):
        def call(*a):
            calls[name] += 1
            return fn(*a)
        return call
    for name in ("simulate_recovery", "reconstruct_model", "Workspace"):
        monkeypatch.setattr(attack, name, counted(name, getattr(attack, name)))
    aim, batch = attack._FlipPass.aim, bs.GradientBaseline().batch_size

    def aim_by_slot(held, q):  # the batch pass holds 32 samples, the victim pass 200
        slot = "batch_pass" if len(held.workspaces[0].acts[0]) == batch else "victim_pass"
        calls["aim " + slot] += 1
        return aim(held, q)
    monkeypatch.setattr(attack._FlipPass, "aim", aim_by_slot)
    assert main(["sweep", "--config", grid_cfg(workdir, tmp_path), "--out",
                 str(tmp_path / "grid")]) == EXIT_OK
    # 8 (nq, rp, seed) groups, 3 recons each. Two passes for the whole sweep, the victim's
    # over the eval set and the gradient ranking's over its batch. The victim pass is
    # built for nq 8 and re-aimed once, at nq 4. The batch pass is built for the first
    # surrogate and re-aimed at the other 15 distinct ones: 3 per group at rp 0.6, and 1
    # at rp 1.0, where every recon gives the victim's codes
    assert calls == {"simulate_recovery": 8, "reconstruct_model": 24, "Workspace": 2,
                     "aim victim_pass": 1, "aim batch_pass": 15}


class FakePool:
    """multiprocessing.Pool stand-in that records its size and runs in this process."""
    sizes = []

    def __init__(self, processes):
        FakePool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, work):
        return [fn(*w) for w in work]


@pytest.mark.parametrize("nq, jobs, sizes", [("8 4", "64", [2]), ("8 4", "2", [2]),
                                             ("8", "4", []), ("8 4", "1", [])])
def test_sweep_starts_one_worker_per_group_at_most(workdir, tmp_path, monkeypatch, nq, jobs,
                                                   sizes):
    monkeypatch.setattr(cli.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    cfg = write_cfg(tmp_path / "j.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = {nq}
rp = 0.8
ranking = fl2r random
recon = czr allzeros
nbf = 3
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_OK
    assert FakePool.sizes == sizes
    assert len(list(out.glob("*.trace"))) == 4 * len(nq.split())


@pytest.mark.parametrize("jobs, sizes", [("1", []), ("2", [2])])
def test_a_sweep_refused_by_a_held_trace_runs_every_group_first(
        workdir, tmp_path, desk, capsys, monkeypatch, jobs, sizes):
    # seed 1's trace on another eval set (the test set's first 100 inputs, labels moved
    # by one class) holds the path of the sweep's second group: every group runs, in run
    # order, on one pool, and then the sweep is refused with no file written
    test, classes = desk["test"], desk["model"].architecture.num_classes
    other_eval = tmp_path / "other.data"
    bs.save_dataset(bs.Dataset(test.inputs[:100], (test.labels[:100] + 1) % classes), other_eval)

    def cfg(eval_path, seeds):
        return write_cfg(tmp_path / "s.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {eval_path}
nq = 8
rp = 0.8
seeds = {seeds}
ranking = fl2r
recon = czr
nbf = 3
""")
    out = tmp_path / "sweep"
    assert main(["attack", "--config", cfg(other_eval, "1"), "--out", str(out)]) == EXIT_OK
    (trace,) = out.iterdir()
    before = trace.read_bytes()
    seeds, run_group = [], cli._run_group

    def counted(victim, eval_ds, runs):
        seeds.append([r["seed"] for r in runs])
        return run_group(victim, eval_ds, runs)
    monkeypatch.setattr(cli, "_run_group", counted)
    monkeypatch.setattr(cli.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    capsys.readouterr()
    argv = ["sweep", "--config", cfg(workdir / "test.data", "0 1"), "--out", str(out), "--jobs", jobs]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o error: {trace} holds other bytes"), err
    assert seeds == [[0], [1]]
    assert FakePool.sizes == sizes
    assert list(out.iterdir()) == [trace] and trace.read_bytes() == before
    # with no trace held, the results keep the run order too
    seeds.clear()
    other = tmp_path / "other"
    assert main(argv[:4] + [str(other)] + argv[5:]) == EXIT_OK
    assert seeds == [[0], [1]]
    table = (other / "results.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[2] for row in table[1:]] == ["0"] * 4 + ["1"] * 4


@pytest.mark.parametrize("lines, spec, tc", [
    ("epochs = 1\n", bs.SynthSpec(), bs.TrainConfig(epochs=1)),
    ("classes = 5\nper_class = 12\ntest_per_class = 3\ninput_shape = 1 10 10\nnoise = 0.25\n"
     "data_seed = 3\nepochs = 2\nlr = 0.05\nbatch = 16\ntrain_seed = 5\n",
     bs.SynthSpec(5, 12, 3, (1, 10, 10), 0.25, 3), bs.TrainConfig(2, 0.05, 16, 5))],
    ids=["defaults", "every-key"])
def test_train_config_keys_set_the_dataclass_fields(tmp_path, lines, spec, tc):
    out = tmp_path / "out"
    assert main(["train", "--config", write_cfg(tmp_path / "t.cfg", lines), "--out",
                 str(out)]) == EXIT_OK
    train_ds, test_ds = bs.gen_synthetic(spec)
    bs.save_model(bs.train(bs.desk_architecture(spec.classes, spec.input_shape), train_ds, tc),
                  tmp_path / "ref.model")
    bs.save_dataset(test_ds, tmp_path / "ref.data")
    assert (out / "victim.model").read_bytes() == (tmp_path / "ref.model").read_bytes()
    assert (out / "test.data").read_bytes() == (tmp_path / "ref.data").read_bytes()


def test_report_summarizes_the_flips_every_trace_of_a_group_reaches(workdir, tmp_path):
    out = tmp_path / "mixed"
    for nbf, seed in ((20, 0), (12, 1)):
        cfg = write_cfg(tmp_path / f"n{nbf}.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = 0.8
seeds = {seed}
ranking = fl2r
recon = czr
nbf = {nbf}
""")
        # attack writes no results.csv, which a second sweep into out would not replace
        assert main(["attack", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["report", str(out)]) == EXIT_OK
    traces = [bs.load_trace(p) for p in out.glob("*.trace")]
    assert sorted(t.config["nbf"] for t in traces) == [12, 20]
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary == ["nq,rp,ranking,recon,flips,mean_accuracy"] + [
        f"8,0.8,fl2r,czr,{f},{float(np.mean([t.accuracies[f] for t in traces]))!r}"
        for f in (0, 10)]


# The valid configs that the rows of REFUSALS, every input the CLI refuses, edit
RUN = "victim = {victim}\neval = {eval}\nnq = 8\nrp = 0.8\nranking = fl2r\nrecon = czr\nnbf = 3"
TRAIN = "per_class = 10\ntest_per_class = 2\nepochs = 1"


def row(id, argv, files, code, text, before=True):
    """`argv`, run with `files` written under {tmp}: its exit `code`, `text` and `before`."""
    return pytest.param((argv, files, code, text, before), id=id)


def on(cmd, lines, code, text, args="--out {tmp}/out", files=(), before=True, id=None):
    """A row: `cmd` on its valid config with `lines` last, in place of the keys' lines."""
    keys = {line.split("=")[0].strip() for line in lines.split("\n")}
    kept = [l for l in (TRAIN if cmd == "train" else RUN).split("\n") if l.split()[0] not in keys]
    return row(id or f"{cmd} {lines}".replace("\n", "; "), f"{cmd} --config {{tmp}}/c.cfg {args}",
               {"c.cfg": "\n".join(kept + [lines, ""]), **dict(files)}, code, text, before)


def edited(name, old, new):
    """The workdir's `name` with its first `old` replaced by `new` (`new` appended if no `old`)."""
    return lambda d: (lambda b: b.replace(old, new, 1) if old else b + new)((d / name).read_bytes())


def out_taken(cmd, ids):
    """The rows of `cmd` with an --out that is, or is under, a file: one per id in `ids`."""
    return [on(cmd, "", 3, f"{text}: '{{tmp}}/{out}'", args=f"--out {{tmp}}/{out}",
               files={"taken": "not a directory\n"}, id=id) for id, out, text in zip(ids, [
        "taken", "taken/sub"], ["[Errno 17] File exists", "[Errno 20] Not a directory"])]


QUANTIZE = "quantize --model {tmp}/m.model --nq 8 --out {tmp}/q"
DIMS = np.array([4, 8, 1, 3, 3], "<u4").tobytes()  # the shape record of the victim's conv1
ARCH = "line 11: inconsistent architecture: "
REFUSALS = {  # the test that runs them: its rows
  "test_refusal": [
    on("train", "classes = 257\ninput_shape = 1 32 32", 1, "classes must be <= 256: .data files"),
    *[on("train", f"{key} = inf", 1, f"train config: {key} must be finite")
      for key in ("noise", "lr")],
    on("train", "per_class = 20\nepochs = 2\nlr = 1000000", 1, "float32", before=False),
    *[row(f"report {id[0] if id else new.decode()}", "report {tmp}",
          {"t.trace": edited("run.trace", old, new)}, 3, f"{{tmp}}/t.trace {text}")
      for old, new, text, *id in [
        (b"nq 8", b"nq 9", "line 2: malformed line 'nq 9': nq must be one of (4, 6, 8), got 9"),
        (b"rp 0.8", b"rp 7.5", "line 3: malformed line 'rp 7.5': rp must be in [0, 1], got 7.5"),
        (b"ranking fl2r", b"ranking rand0m",
         "line 5: malformed line 'ranking rand0m': ranking must be one of fl2r, random, gradient"),
        (b"rp 0.8", b"rp nan", "line 3: malformed line 'rp nan': rp must be in [0, 1], got nan"),
        (b"recon czr", b"recon czr2", "line 6: malformed line 'recon czr2': recon must be one of "
         "czr, allzeros, allones, got 'czr2'"),
        (b"seed 0", b"seed -1", "line 4: malformed line 'seed -1': seed must be >= 0, got -1"),
        (b"nbf 2", b"nbf 0", "line 7: malformed line 'nbf 0': nbf must be >= 1, got 0"),
        (b"nq 8\n", b"nq 8\nnq 4\n", "line 3: 'nq' already set on line 2", "nq twice"),
        (b"flip 1 2 0 7", b"flip 0 5",
         "line 9: malformed line 'flip 0 5': takes 4 value(s), got 2"),
        (b"acc 0.25", b"acc 1.5", "line 12: malformed line 'acc 1.5': accuracy outside [0,1]: 1.5"),
        (b"recon czr", b"recon \xff", "byte 56: not UTF-8 text", "recon not UTF-8"),
        (b"nq 8\nrp 0.8\nseed 0\nranking fl2r\nrecon czr\nnbf 2\n", b"",
         "line 7: missing field(s) nq, rp, seed, ranking, recon, nbf", "no config"),
        (b"rp 0.8\n", b"", "line 12: missing field(s) rp", "missing rp"),
        (b"acc 0.25\n", b"", "line 12: nbf 2 with 2 flip and 2 acc lines; expected nbf flips and "
         "nbf+1 accs", "one acc short"),
        (b"flip 1 2 0 7\n", b"", "line 12: nbf 2 with 1 flip and 3 acc lines; expected nbf flips "
         "and nbf+1 accs", "one flip short")]],
    row("report no traces", "report {tmp}", {}, 1, "no .trace files in {tmp}"),
    row("attack", "attack", {}, 1, "the following arguments are required: --config, --out"),
    row("frobnicate", "frobnicate", {}, 1, "invalid choice: 'frobnicate'"),
    row("sweep missing config", "sweep --config {tmp}/m.cfg --out {tmp}/o", {}, 3,
        "No such file or directory: '{tmp}/m.cfg'"),
    *[row(f"sweep --jobs {j}", f"sweep --config {{tmp}}/m.cfg --out {{tmp}}/o --jobs {j}", {}, 1,
          f"--jobs must be >= 1, got {j}") for j in (0, -3)],
    row("attack victim = x only", "attack --config {tmp}/c.cfg --out {tmp}/out",
        {"c.cfg": "victim = x\n"}, 1, "config missing key 'nq'"),
    on("attack", "victim", 1, "{tmp}/c.cfg line 7: expected 'key = value'"),
    *[on(c, "victim = a\udcff", 1, f"{{tmp}}/c.cfg line {n}: not UTF-8 text")
      for c, n in (("attack", 7), ("sweep", 7), ("train", 4))],
    *[on(c, lines, 1, f"{{tmp}}/c.cfg line {n}: config key {lines.split()[0]!r} already set on "
         f"line {first}") for c, lines, first, n in [("attack", "nbf = 5\nnbf = 6", 7, 8),
        ("sweep", "nbf = 5\n# a comment\n\nnbf = 6", 7, 10),
        ("train", "epochs = 1\nlr = 0.1\nepochs = 2", 3, 5)]],
    on("attack", "rp = abc", 1, "config key 'rp': 'abc' is not a valid float"),
    on("attack", "nq = 5", 1, "nq must be one of (4, 6, 8), got 5"),
    on("attack", "nbf = 99999", 1, "nbf for {victim}: "),
    on("attack", "seeds = -3", 1, "seeds must be >= 0, got -3"),
    on("sweep", "seeds = 0 -3", 1, "seeds must be >= 0, got -3"),
    on("sweep", "seeds = 0 1", 1, "seeds must be >= 0, got -3", args="--out {tmp}/o --seed-base -3",
       id="sweep --seed-base -3"),
    on("attack", "victim = {tmp}/v.model\neval = {tmp}/e.data", 3,
       "No such file or directory: '{tmp}/v.model'"),
    *[row(f"quantize {id[0] if id else text.split(': ')[-1]}", QUANTIZE,
          {"m.model": edited("victim.model", old, new)}, 3, f"{{tmp}}/m.model {text}")
      for old, new, text, *id in [
        (b"bitsiege-model-v1", b"bitsiege-model-v2", "line 1: expected magic 'bitsiege-model-v1'"),
        (b"end-header\n", b"", "byte 5502: missing end-header marker"),
        (b"input_shape 1 8 8\nclasses 4\n", b"", "line 9: missing field(s) input_shape, classes"),
        (b"classes 4\n", b"classes 4\ninput_shape 1 8 8\n",
         "line 4: 'input_shape' already set on line 2"),
        (b"classes 4", b"classes \xff", "byte 44: not UTF-8 text"),
        (DIMS, DIMS + np.array([np.nan], "<f4").tobytes(),
         "byte 193: non-finite value in a float32 record", "non-finite value"),
        (b"classes 4\n", b"classes 4\nclasses 4\n", "line 4: 'classes' already set on line 3"),
        (b"classes 4\n", b"classes 4 7\n", "line 3: malformed line 'classes 4 7': takes 1 "
         "value(s), got 2", "malformed line 'classes 4 7'"),
        (b"maxpool 2", b"maxpool -2", "line 6: malformed line 'layer maxpool -2': negative value"),
        (b"", b"\0\0", "byte 5513: 2 trailing bytes"),
        (DIMS, np.array([4, 9, 1, 3, 3], "<u4").tobytes(),
         "byte 193: tensor shape (9, 1, 3, 3) != expected (8, 1, 3, 3)"),
        (b"conv2d 1 8 3 1 0", b"conv2d 1 8 3 0 0", ARCH + "conv2d dimensions must be positive"),
        (b"dense 16 4", b"dense 16 0", ARCH + "dense dimensions must be positive"),
        (b"input_shape 1 8 8", b"input_shape 1 0 8", ARCH + "input dimensions must be positive"),
        (b"classes 4", b"classes 3", ARCH + "final output shape (4,) != (3,)")]],
    row("quantize truncated payload", QUANTIZE, {"m.model": lambda d: (d / "victim.model")
        .read_bytes()[:-8]}, 3, "{tmp}/m.model byte 5497: truncated payload"),
    *[on("attack", "eval = {tmp}/e.data", 3, f"{{tmp}}/e.data {text}", files={"e.data": edited(
         "test.data", old, new)}, id="attack eval " + new.decode().strip().replace("\n", "; "))
      for old, new, text in [
        (b"shape 1 8 8", b"shape 1 x 8",
         "line 2: malformed line 'shape 1 x 8': invalid literal for int() with base 10: 'x'"),
        (b"shape 1 8 8", b"shape -1 8 8", "line 2: malformed line 'shape -1 8 8': negative value"),
        (b"shape 1 8 8", b"shape 1 -8 8", "line 2: malformed line 'shape 1 -8 8': negative value"),
        (b"samples 200", b"samples -1", "line 4: malformed line 'samples -1': negative value"),
        (b"classes 4", b"classes 4 7",
         "line 3: malformed line 'classes 4 7': takes 1 value(s), got 2"),
        (b"samples 200\n", b"samples 200\nshape 2 1\n", "line 5: 'shape' already set on line 2"),
        (b"classes 4", b"classes 2", "byte 51262: label 3 is not below the header's classes 2")]],
    *[on(c, "ranking = gradient\nnbf = 1288", 1, "gradient-aligned", before=False)  # every weight
      for c in ("attack", "sweep")]],
  "test_bad_train_config_is_one_error_line": [
    *[on("train", line, 1, f"train config: {text}", id=line) for line, text in [
        ("classes = 2", "need >= 4 classes"), ("input_shape = 1 4 4", "conv2d kernel 3 too large"),
        ("input_shape = 8 8", "the desk architecture needs a (C, H, W) input shape"),
        ("lr = 0", "lr must be finite and > 0, got 0.0"),
        ("train_seed = -1", "seed must be >= 0"),
        ("noise = 1e39", "noise 1e+39 draws inputs beyond float32 range"),
        # data no 64-bit address space holds (past 2**57 bytes), which numpy refuses
        # before it touches memory, whatever the machine's overcommit
        ("per_class = 100000000000000000", "Unable to allocate 2.78 EiB"),
        ("input_shape = 1 100000000 100000000", "Unable to allocate 284. PiB")]],
    on("train", "lr = 1e120", 1, "training diverged", before=False, id="lr = 1e120"),
    # one SGD step, whose loss is finite and whose update overflows a weight
    on("train", "per_class = 5\nnoise = 5\nlr = 1.7e308", 1, "training diverged (non-finite "
       "parameter at epoch 0); try a smaller lr", before=False, id="lr = 1.7e308")],
  "test_unknown_config_key_is_one_error_line": [
    on(c, line, 1, f"{{tmp}}/c.cfg line {n}: unknown config key {line.split()[0]!r}",
       id=f"{c}-{line}")
    for c, line, n in (("attack", "batch = -5", 8), ("sweep", "batch = -5", 8),
                       ("attack", "batch = 4", 8), ("sweep", "bacth = 3", 8),
                       ("train", "bacth = 3", 4), ("train", "victim = v.model", 4))],
  "test_several_values_where_one_is_taken_is_one_error_line": [
    *[on("attack", line, 1, "attack takes one value per key, but the config gives 2 runs",
         id=f"attack-{line}") for line in ("nq = 8 4", "rp = 0.5 1.0", "seeds = 0 1")],
    *[on(c, line, 1, f"config key {line.split()[0]!r} takes one value, got 2", id=f"{c}-{line}")
      for c, line in (("attack", "nbf = 3 4"), ("sweep", "nbf = 3 4"),
                      ("sweep", "victim = a.model b.model"))]],
  "test_repeated_axis_value_is_one_error_line": [
    on(c, line, 1, f"{line.split()[0]} must list distinct values", id=f"{c}-{line}")
    for c, line in (
        ("attack", "seeds = 0 0"), ("attack", "ranking = fl2r fl2r"), ("sweep", "seeds = 0 1 0"),
        ("sweep", "rp = 0.5 0.50"), ("sweep", "ranking = fl2r random fl2r"),
        ("sweep", "recon = czr czr"))],
  "test_eval_set_the_victim_cannot_run_is_one_error_line": [
    on(c, f"eval = {{tmp}}/e.data\nranking = {r}", 1, f"eval set {{tmp}}/e.data for {{victim}}: "
       f"{text}", id=f"{kind}-{c}" + "-gradient" * (r == "gradient"), files={"e.data": (
           dataset_bytes(bs.Dataset(np.zeros((n, 1, size, size)), np.full(n, label)), "e"))})
    for kind, n, size, label, text in [
        ("empty", 0, 8, 0, "needs one or more (1, 8, 8) inputs, got 0 of shape (1, 8, 8)"),
        ("wrong-shape", 3, 16, 0, "needs one or more (1, 8, 8) inputs, got 3 of shape (1, 16, 16)"),
        ("label", 3, 8, 4, "labels must be in [0, 4), got 4 to 4")]
    for c, r in [("attack", "fl2r"), ("sweep", "fl2r")] + [("attack", "gradient")] * (label > 0)],
  "test_out_that_cannot_be_a_directory_fails_before_any_run": [
    *out_taken("attack", ["file-attack", "under-file-attack"]),
    *out_taken("sweep", ["file-sweep", "under-file-sweep"])],
  "test_train_out_that_cannot_be_a_directory_fails_before_training":
    out_taken("train", ["file", "under-file"]),
}


@pytest.fixture
def refuse(workdir, tmp_path, capsys, monkeypatch):
    def check(argv, files, code, text, before):
        """Exit `code`, one stderr line (`error:` for 1, `i/o error:` for 3) holding `text`, no
        stdout, nothing under tmp_path made or changed, and a run only if not refused `before`."""
        runs = []
        for owner, name in ((cli, "run_attacks"), (cli.synth, "train")):
            f = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, f=f: runs.append(a) or f(*a))
        at = {"tmp": tmp_path, "victim": workdir / "victim.model", "eval": workdir / "test.data"}
        for name, content in files.items():  # a config's "\udcff" is written as the byte 0xff
            if isinstance(content, str):
                content = content.format(**at).encode("utf-8", "surrogateescape")
            (tmp_path / name).write_bytes(content(workdir) if callable(content) else content)

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        held, _ = tree(), capsys.readouterr()
        assert main(argv.format(**at).split()) == code
        out, err = capsys.readouterr()
        prefix = {EXIT_USAGE: "error: ", EXIT_IO: "i/o error: "}[code]
        assert out == "" and len(err.splitlines()) == 1 and err.startswith(prefix), err
        assert text.format(**at) in err, err
        assert tree() == held and (runs == []) == before
    return check


def refusals(test):
    """`test`, run on each of the rows that REFUSALS holds under its name."""
    return pytest.mark.parametrize("case", REFUSALS[test.__name__])(test)


@refusals
def test_refusal(refuse, case):
    refuse(*case)


@refusals
def test_bad_train_config_is_one_error_line(refuse, case):
    refuse(*case)


@refusals
def test_unknown_config_key_is_one_error_line(refuse, case):
    refuse(*case)


@refusals
def test_several_values_where_one_is_taken_is_one_error_line(refuse, case):
    refuse(*case)


@refusals
def test_repeated_axis_value_is_one_error_line(refuse, case):
    refuse(*case)


@refusals
def test_eval_set_the_victim_cannot_run_is_one_error_line(refuse, case):
    refuse(*case)


@refusals
def test_out_that_cannot_be_a_directory_fails_before_any_run(refuse, case):
    refuse(*case)


@refusals
def test_train_out_that_cannot_be_a_directory_fails_before_training(refuse, case):
    refuse(*case)


def test_every_row_of_refusals_is_run():
    # under its own id: pytest would suffix a repeated one, and a row named by its id be missed
    for name, rows in REFUSALS.items():
        assert name in globals() and len({r.id for r in rows}) == len(rows), name
