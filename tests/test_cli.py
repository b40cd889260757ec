import os
import re

import numpy as np
import pytest

import bitsiege as bs
from bitsiege import cli
from bitsiege.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main, parse_config

from conftest import full_gemm_restarts


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, desk):
    """victim/model/data files shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    bs.save_model(desk["model"], d / "victim.model")
    bs.save_dataset(desk["test"], d / "test.data")
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


def test_train_rejects_more_classes_than_labels_hold(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "t.cfg", "classes = 257\ninput_shape = 1 32 32\nepochs = 1\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "classes" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("line", ["classes = 2", "input_shape = 1 4 4", "input_shape = 8 8",
                                  "lr = 0", "train_seed = -1", "lr = 1e120"])
def test_bad_train_config_is_one_error_line(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path / "t.cfg", f"per_class = 10\ntest_per_class = 2\nepochs = 2\n{line}\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


@pytest.mark.parametrize("key", ["noise", "lr"])
def test_non_finite_noise_or_lr_is_refused_before_training(tmp_path, capsys, monkeypatch, key):
    # noise = inf used to train on all-inf inputs, then report a diverged loss
    monkeypatch.setattr(cli.synth, "train", lambda *a: pytest.fail("training started"))
    cfg = write_cfg(tmp_path / "t.cfg", f"per_class = 10\ntest_per_class = 2\n{key} = inf\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: train config: {key} must be finite"), err
    assert not out.exists()


def test_main_builds_one_parser_and_finds_each_command_at_call_time(monkeypatch, capsys):
    # a function bound over cli.cmd_<command> after the parser was built still runs
    parser, calls = cli.build_parser(), []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.command) or EXIT_OK)
    assert main(["verify"]) == EXIT_OK and calls == ["verify"]
    assert cli.build_parser() is parser


def test_train_refuses_weights_beyond_float32(tmp_path, capsys):
    # lr 1e6 does not make the loss non-finite, but grows weights past float32
    cfg = write_cfg(tmp_path / "t.cfg", "per_class = 20\nepochs = 2\nlr = 1000000\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "float32" in err[0], err
    assert not out.exists()


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


@pytest.mark.parametrize("edit", [("nq 8", "nq 9"), ("rp 0.8", "rp 7.5"),
                                  ("ranking fl2r", "ranking rand0m")])
def test_report_rejects_trace_values_attack_would_not_accept(workdir, tmp_path, capsys, edit):
    cfg = write_cfg(tmp_path / "a.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = 0.8
ranking = fl2r
recon = czr
nbf = 2
""")
    out = tmp_path / "out"
    assert main(["attack", "--config", cfg, "--out", str(out)]) == EXIT_OK
    (trace,) = out.glob("*.trace")
    text = trace.read_text(encoding="utf-8")
    assert f"\n{edit[0]}\n" in text
    trace.write_text(text.replace(f"\n{edit[0]}\n", f"\n{edit[1]}\n"), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(trace) in err[0] and edit[0].split()[0] in err[0], err
    assert not (out / "summary.csv").exists()


def test_sweep_seed_base(workdir, tmp_path):
    cfg = sweep_cfg(workdir, tmp_path)
    out = tmp_path / "sb"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed-base", "50"]) == EXIT_OK
    rows = (out / "results.csv").read_text().strip().splitlines()[1:]
    seeds = {r.split(",")[2] for r in rows}
    assert seeds == {"50", "51"}


def test_usage_errors():
    assert main(["attack"]) == EXIT_USAGE
    assert main(["sweep", "--config", "/nonexistent.cfg", "--out", "/tmp/x"]) in (EXIT_USAGE, EXIT_IO)
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_config_key(workdir, tmp_path):
    cfg = write_cfg(tmp_path / "m.cfg", "victim = x\n")
    assert main(["attack", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE


def test_io_error_on_missing_model(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", f"""
victim = {tmp_path / 'missing.model'}
eval = {tmp_path / 'missing.data'}
nq = 8
rp = 1.0
ranking = fl2r
recon = czr
nbf = 2
""")
    assert main(["attack", "--config", cfg, "--out", str(tmp_path)]) == EXIT_IO


def test_verify_command(capsys):
    assert main(["verify"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)
    # the incremental-eval line names the GEMM each conv layer's restarts ran
    assert re.search(r"conv restarts: layer 0 (two-row block|full GEMM), "
                     r"layer 3 (two-row block|full GEMM)$", lines[3])
    with full_gemm_restarts():
        assert main(["verify"]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[3]
    assert line.startswith("PASS incremental-eval") and line.endswith(
        "conv restarts: layer 0 full GEMM, layer 3 full GEMM")


def test_train_accuracy_in_chunks_equals_one_pass(desk):
    model, rng = desk["model"], np.random.default_rng(8)
    arch = model.architecture
    data = bs.Dataset(rng.standard_normal((280,) + arch.input_shape),  # 4 x 64 + 24
                      rng.integers(0, arch.num_classes, 280))
    assert cli._chunked_accuracy(model, data) == bs.accuracy(model, data)


@pytest.mark.parametrize("line", ["rp = abc", "nq = 5", "nbf = 99999"])
def test_bad_config_value_is_one_error_line(workdir, tmp_path, capsys, line):
    values = {"nq": "8", "rp": "0.8", "nbf": "5"}
    key, _, value = line.partition(" = ")
    values[key] = value
    cfg = write_cfg(tmp_path / "bad.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
ranking = fl2r
recon = czr
""" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["attack", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]


@pytest.mark.parametrize("command", ["attack", "sweep"])
def test_gradient_shortfall_is_one_error_line(workdir, tmp_path, capsys, command, desk):
    nbf = sum(w.size for w in desk["model"].weights)  # far more than are gradient-aligned
    cfg = write_cfg(tmp_path / "g.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = 0.8
seeds = 0
ranking = gradient
recon = czr
nbf = {nbf}
""")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "gradient-aligned" in err[0]


def test_bad_model_file_exits_io(workdir, tmp_path, capsys):
    blob = (workdir / "victim.model").read_bytes()
    non_utf8 = tmp_path / "header.model"
    non_utf8.write_bytes(blob.replace(b"classes 4", b"classes \xff", 1))
    non_finite = tmp_path / "nan.model"
    body = blob.index(b"end-header\n") + len(b"end-header\n")
    first = body + 4 + 4 * 4  # ndim and four dims of the first weight tensor
    non_finite.write_bytes(blob[:first] + np.array([np.nan], dtype="<f4").tobytes() + blob[first + 4:])
    # header lines: a field given twice, surplus values, a negative layer field
    where = {non_utf8: "", non_finite: ""}
    for name, old, new, line in [("twice", b"classes 4\n", b"classes 4\nclasses 4\n", 4),
                                 ("surplus", b"classes 4\n", b"classes 4 7\n", 3),
                                 ("negative", b"layer maxpool 2\n", b"layer maxpool -2\n", 6)]:
        where[tmp_path / f"{name}.model"] = f" line {line}:"
        (tmp_path / f"{name}.model").write_bytes(blob.replace(old, new, 1))
    for path, at in where.items():
        rc = main(["quantize", "--model", str(path), "--nq", "8", "--out", str(tmp_path / "q")])
        assert rc == EXIT_IO
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{path}{at}" in err[0], err


@pytest.mark.parametrize("command, line, argv", [
    ("attack", "seeds = -3", []), ("sweep", "seeds = 0 -3", []),
    ("sweep", "seeds = 0 1", ["--seed-base", "-3"])])
def test_negative_seed_is_one_error_line(workdir, tmp_path, capsys, command, line, argv):
    cfg = write_cfg(tmp_path / "neg.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = 0.8
ranking = gradient
recon = czr
nbf = 3
{line}
""")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *argv]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "seeds" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command, line", [
    ("attack", "batch = -5"), ("sweep", "batch = -5"), ("attack", "batch = 4"),
    ("sweep", "bacth = 3"), ("train", "bacth = 3"), ("train", "victim = v.model")])
def test_unknown_config_key_is_one_error_line(workdir, tmp_path, capsys, command, line):
    valid = ("per_class = 10\nepochs = 1\n" if command == "train" else
             f"victim = {workdir / 'victim.model'}\neval = {workdir / 'test.data'}\n"
             "nq = 8\nrp = 0.8\nranking = fl2r\nrecon = czr\nnbf = 3\n")
    cfg = write_cfg(tmp_path / "k.cfg", f"{valid}{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    key = line.split()[0]
    assert len(err) == 1 and err[0].startswith("error:") and repr(key) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command, lines", [
    ("attack", "nbf = 5\nnbf = 6\n"), ("sweep", "nbf = 5\n# a comment\n\nnbf = 6\n"),
    ("train", "epochs = 1\nlr = 0.1\nepochs = 2\n")])
def test_repeated_config_key_is_one_error_line(workdir, tmp_path, capsys, command, lines):
    valid = ("per_class = 10\n" if command == "train" else
             f"victim = {workdir / 'victim.model'}\neval = {workdir / 'test.data'}\n"
             "nq = 8\nrp = 0.8\nranking = fl2r\nrecon = czr\n")
    cfg = write_cfg(tmp_path / "d.cfg", valid + lines)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    first = valid.count("\n") + 1
    key, last = lines.split()[0], first + lines.count("\n") - 1
    assert err == [f"error: {cfg} line {last}: config key {key!r} already set on line {first}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["attack", "sweep", "train"])
def test_config_that_is_not_utf8_is_one_error_line(workdir, tmp_path, capsys, command):
    valid = ("per_class = 10\nepochs = 1\n" if command == "train" else
             f"eval = {workdir / 'test.data'}\nnq = 8\nrp = 0.8\nranking = fl2r\n"
             "recon = czr\nnbf = 3\n")
    cfg = tmp_path / "u.cfg"
    cfg.write_bytes(valid.encode("utf-8") + b"victim = a\xff\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    line = valid.count("\n") + 1
    assert len(err) == 1 and err[0].startswith("error:") and f"{cfg} line {line}" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command, line", [
    ("attack", "nq = 8 4"), ("attack", "rp = 0.5 1.0"), ("attack", "seeds = 0 1"),
    ("attack", "nbf = 3 4"), ("sweep", "nbf = 3 4"), ("sweep", "victim = a.model b.model")])
def test_several_values_where_one_is_taken_is_one_error_line(workdir, tmp_path, capsys, command,
                                                             line):
    values = {"victim": str(workdir / "victim.model"), "eval": str(workdir / "test.data"),
              "nq": "8", "rp": "0.8", "seeds": "0", "ranking": "fl2r", "recon": "czr", "nbf": "3"}
    key, _, value = line.partition(" = ")
    values[key] = value
    cfg = write_cfg(tmp_path / "m.cfg", "".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


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
        slot = "batch_pass" if len(held.ws.acts[0]) == batch else "victim_pass"
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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_one_error_line(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    # the config does not exist: the check comes before anything is read
    argv = ["sweep", "--config", str(tmp_path / "missing.cfg"), "--out", str(out), "--jobs", jobs]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--jobs" in err[0], err
    assert not out.exists()


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


@pytest.mark.parametrize("command, ranking, inputs, label", [
    ("attack", "fl2r", np.zeros((0, 1, 8, 8)), 0), ("sweep", "fl2r", np.zeros((0, 1, 8, 8)), 0),
    ("attack", "fl2r", np.zeros((3, 1, 16, 16)), 0), ("sweep", "fl2r", np.zeros((3, 1, 16, 16)), 0),
    # the desk victim has 4 classes
    ("attack", "fl2r", np.zeros((3, 1, 8, 8)), 4), ("attack", "gradient", np.zeros((3, 1, 8, 8)), 4),
    ("sweep", "fl2r", np.zeros((3, 1, 8, 8)), 4)],
    ids=["empty-attack", "empty-sweep", "wrong-shape-attack", "wrong-shape-sweep",
         "label-attack", "label-attack-gradient", "label-sweep"])
def test_eval_set_the_victim_cannot_run_is_one_error_line(workdir, tmp_path, capsys, command,
                                                          ranking, inputs, label):
    eval_path = tmp_path / "bad.data"
    bs.save_dataset(bs.Dataset(inputs, np.full(len(inputs), label)), eval_path)
    cfg = write_cfg(tmp_path / "e.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {eval_path}
nq = 8
rp = 0.8
ranking = {ranking}
recon = czr
nbf = 3
""")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(eval_path) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command, line", [
    ("attack", "seeds = 0 0"), ("attack", "ranking = fl2r fl2r"), ("sweep", "seeds = 0 1 0"),
    ("sweep", "rp = 0.5 0.50"), ("sweep", "ranking = fl2r random fl2r"),
    ("sweep", "recon = czr czr")])
def test_repeated_axis_value_is_one_error_line(workdir, tmp_path, capsys, command, line):
    values = {"victim": str(workdir / "victim.model"), "eval": str(workdir / "test.data"),
              "nq": "8", "rp": "0.8", "seeds": "0", "ranking": "fl2r", "recon": "czr", "nbf": "3"}
    key, _, value = line.partition(" = ")
    values[key] = value
    cfg = write_cfg(tmp_path / "r.cfg", "".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} ") and "distinct" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["attack", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_that_cannot_be_a_directory_fails_before_any_run(workdir, tmp_path, capsys,
                                                             monkeypatch, command, under):
    runs = []
    monkeypatch.setattr(cli, "run_attacks", lambda *a: runs.append(a))
    cfg = write_cfg(tmp_path / "o.cfg", f"""
victim = {workdir / 'victim.model'}
eval = {workdir / 'test.data'}
nq = 8
rp = 0.8
ranking = fl2r
recon = czr
nbf = 3
""")
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / "sub" if under else blocker
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:") and str(out) in err[0], err
    assert runs == []
    assert sorted(os.listdir(tmp_path)) == ["o.cfg", "taken"]
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_train_out_that_cannot_be_a_directory_fails_before_training(tmp_path, capsys,
                                                                   monkeypatch, under):
    calls = []
    monkeypatch.setattr(cli.synth, "train", lambda *a: calls.append(a))
    cfg = write_cfg(tmp_path / "t.cfg", "per_class = 10\ntest_per_class = 2\nepochs = 1\n")
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / "sub" if under else blocker
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error:") and str(out) in err[0], err
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["t.cfg", "taken"]
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


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
