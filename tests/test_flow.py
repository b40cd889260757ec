"""The README's Experiments block, run through `cli.main`, and the bytes it writes."""
import hashlib
import pathlib
import re
import runpy
import shlex
import shutil
import sys

import pytest

from bitsiege.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from bitsiege.reconstruct import ReconstructionMethod

ROOT = pathlib.Path(__file__).resolve().parents[1]
# The files' sha256, as written at the commit that recorded them; a change that moves
# them on purpose records them again, and says so in CHANGES.md. The traces pin the
# random lists, whose runs all keep accuracy 1.0 in results.csv.
FLOW_SHA256 = {
    "victim/victim.model": "d2d080e31b8e312d7dcf044dcdbc25580f8f814bf8f1d70acd10e7da79622dd7",
    "victim/train.data": "70f876e4b2538d5bb852eea91131ef17012fb0c134f6dce2b0182e0db400e427",
    "victim/test.data": "bcbb97aa0a465fb8ae67f96de2c9210e6cf426256e158064f10bf2fb76cec3d7",
    "sweep/results.csv": "7da4dbd1fbe902edd29ced19c275179e95268ec46b6bea198a6e4d8bfe01a5da",
    "sweep/*.trace": "8915191316522699f570d13191453dca30e7a6bcf70e6179cf24054c172c3643",
    # examples/train.cfg at input_shape 1 16 16 and 6 epochs: the 8x8 desk's conv2 output
    # is 1x1, so col2im does almost no work in the README flow
    "victim16/victim.model": "9d9cf2b2d21671061f7ff7a6b66067697095639ad477248cba7f7a7adda5b553",
    "victim16/train.data": "007846005fb2712173046083e47e267eaeb5e247205c3c1e4d6468dd529c47b7",
    "victim16/test.data": "31ad152dc281c545fbf3a5723316cf9e2b5c6cbd72c6103a98b37c0bd3480c56"}


def readme_block():
    """The commands of the README's Experiments block, each split into its arguments."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Experiments", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = (shlex.split(line, comments=True) for line in block.splitlines())
    return [argv for argv in argvs if argv]  # not a blank or comment-only line


def sha256s(directory, patterns):
    """Per glob pattern, the sha256 of the files it matches in `directory`, in name order."""
    return {pat: hashlib.sha256(b"".join(p.read_bytes() for p in sorted(directory.glob(pat))))
            .hexdigest() for pat in patterns}


def edited(path, out, **values):
    """Write to `out` the config at `path` with each key's line set to its value."""
    text = path.read_text(encoding="utf-8")
    for key, value in values.items():
        text, n = re.subn(rf"(?m)^{key} .*$", f"{key} = {value}", text)
        assert n == 1, key
    out.write_text(text, encoding="utf-8")
    return str(out)


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """A directory in which the block's `bitsiege` commands ran on a copy of `examples/`,
    then a 1x16x16 copy of its training."""
    d = tmp_path_factory.mktemp("flow")
    shutil.copytree(ROOT / "examples", d / "examples")
    edited(d / "examples" / "train.cfg", d / "train16.cfg", input_shape="1 16 16", epochs=6)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        for argv in readme_block():
            assert argv[0] == "python" or main(argv[1:]) == EXIT_OK, argv
        assert main(["train", "--config", "train16.cfg", "--out", "victim16/"]) == EXIT_OK
    return d


def test_the_flow_writes_the_pinned_bytes(flow):
    assert sha256s(flow, FLOW_SHA256) == FLOW_SHA256


def test_the_same_block_again_rewrites_the_same_bytes(flow, monkeypatch):
    def files():
        return {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in flow.rglob("*")
                if p.is_file()}
    before = files()
    monkeypatch.chdir(flow)
    for argv in readme_block():
        assert argv[0] == "python" or main(argv[1:]) == EXIT_OK, argv
    assert files() == before


@pytest.mark.parametrize("ranking", ["fl2r", "random", "gradient"])
def test_a_run_equals_the_same_run_in_the_sweep(flow, tmp_path, monkeypatch, ranking):
    # a copy of attack.cfg, whose own ranking is one of these, with that ranking: the run
    # is the last of its (nq, rp, seed) group in the sweep, so the sweep runs its list
    # from a baseline pass re-run in place from the layers flipped before
    monkeypatch.chdir(flow)
    cfg = edited(flow / "examples" / "attack.cfg", tmp_path / "attack.cfg", ranking=ranking)
    assert main(["attack", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK
    (trace,) = (tmp_path / "run").iterdir()
    assert trace.read_bytes() == (flow / "sweep" / trace.name).read_bytes()


def test_reconstruction_quality_prints_a_row_per_recovery_rate(flow, monkeypatch, capsys):
    (argv,) = [argv for argv in readme_block() if argv[0] == "python"]
    monkeypatch.chdir(flow)
    monkeypatch.setattr(sys, "argv", argv[1:])
    runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["quantized victim accuracy: 1.0000", ""], lines
    assert lines[2].split() == ["rp", *(m.value for m in ReconstructionMethod)], lines
    rows = [[float(v) for v in line.split()] for line in lines[3:]]
    assert [row[0] for row in rows] == [0.3, 0.5, 0.7, 0.9, 1.0], lines
    assert all(len(row) == 4 and all(0 <= a <= 1 for a in row[1:]) for row in rows), lines
    assert rows[-1][1:] == [1.0, 1.0, 1.0], lines


def script_refusal(flow, monkeypatch, capsys, *args):
    """(exit code, stderr) of the README's script on the missing victim
    `victim/missing.model` and `args`: it must refuse them, with no stdout and one line."""
    (argv,) = [argv for argv in readme_block() if argv[0] == "python"]
    monkeypatch.chdir(flow)
    monkeypatch.setattr(sys, "argv", [argv[1], "victim/missing.model", *argv[3:], *args])
    with pytest.raises(SystemExit) as e:
        runpy.run_path(str(ROOT / argv[1]), run_name="__main__")
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, err
    return e.value.code, err


def test_reconstruction_quality_refuses_a_missing_file_in_one_line(flow, monkeypatch, capsys):
    code, err = script_refusal(flow, monkeypatch, capsys)
    assert code == EXIT_IO and err.startswith("i/o error: ") and "victim/missing.model" in err


@pytest.mark.parametrize("args, text", [
    ("--rp 7.5", "--rp must be in [0, 1], got 7.5"),
    ("--rp 0.5 nan", "--rp must be in [0, 1], got nan"),
    ("--seeds 0", "--seeds must be >= 1, got 0")], ids=["rp-7.5", "rp-nan", "seeds-0"])
def test_reconstruction_quality_refuses_a_bad_argument_before_any_file(
        flow, monkeypatch, capsys, args, text):
    # the victim is missing, so a file read first would be refused with exit 3
    assert script_refusal(flow, monkeypatch, capsys, *args.split()) == (EXIT_USAGE,
                                                                       f"error: {text}\n")
