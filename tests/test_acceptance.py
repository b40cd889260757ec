"""Acceptance gate: one test per release criterion, each printing a pass/fail line."""
import contextlib
import io
import re
import time

import numpy as np
import pytest

import bitsiege as bs
from bitsiege.cli import EXIT_OK, main
from bitsiege.quantize import code_range
from bitsiege.reconstruct import ReconstructionMethod

from conftest import random_qmodel

SEEDS = range(10)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def verify_run():
    """`bitsiege verify`, run once for criteria 01, 02, 04 and 11: its exit code, its wall
    time, and its lines by check name."""
    out = io.StringIO()
    t0 = time.time()
    with contextlib.redirect_stdout(out):
        rc = main(["verify"])
    elapsed = time.time() - t0
    lines = {line.split(":")[0].split()[1]: line for line in out.getvalue().splitlines()}
    return rc, elapsed, lines


def test_c01_czr_equals_exhaustive_oracle(verify_run):
    rc, elapsed, lines = verify_run
    line = lines["czr-oracle"]
    # verify runs its four checks, in order, and exits 0
    whole = rc == EXIT_OK and list(lines) == ["czr-oracle", "sign-flip-algebra",
                                             "gradient-check", "incremental-eval"]
    report("criterion-01 czr-oracle-equivalence",
           line.startswith("PASS") and "4-, 6- and 8-bit" in line and whole and elapsed < 30.0,
           f"({line}; bitsiege verify {elapsed:.1f}s)")


def test_c02_sign_bit_algebra(verify_run):
    line = verify_run[2]["sign-flip-algebra"]
    report("criterion-02 sign-bit-algebra", line.startswith("PASS"), f"({line})")


def test_c03_quantization_round_trip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for nq in (4, 6, 8):
        lo, hi = code_range(nq)
        w = rng.uniform(-4.0, 4.0, size=10_000)
        s = 0.021
        deq = bs.dequantize(bs.quantize(w, s, nq), s)
        clamped = np.clip(w, s * lo, s * hi)
        worst = max(worst, float(np.abs(deq - clamped).max() - s / 2))
    report("criterion-03 quantization-round-trip", worst <= 1e-9, f"(slack={worst:.2e})")


def test_c04_gradient_correctness(verify_run):
    line = verify_run[2]["gradient-check"]
    report("criterion-04 gradient-correctness", line.startswith("PASS"), f"({line})")


def test_c05_fl2r_beats_random(desk):
    t0 = time.time()
    base = bs.accuracy_quant(desk["qmodel"], desk["test"])
    fl2r_min = np.median([min(bs.run_attack(desk["qmodel"], 1.0, s, bs.FL2R(),
                                            ReconstructionMethod.CZR, 50, desk["test"]).accuracies)
                          for s in SEEDS])
    rand_drop = np.median([base - bs.run_attack(desk["qmodel"], 1.0, s, bs.RandomBits(s),
                                                ReconstructionMethod.CZR, 100,
                                                desk["test"]).accuracies[-1]
                           for s in SEEDS])
    elapsed = time.time() - t0
    report("criterion-05 fl2r-vs-random",
           base >= 0.90 and fl2r_min <= 0.40 and rand_drop <= 0.05 and elapsed < 300,
           f"(base={base:.3f}, fl2r min acc={fl2r_min:.3f}, random drop={rand_drop:.3f}, {elapsed:.0f}s)")


def test_c06_reconstruction_ordering(desk):
    q = desk["qmodel"]
    means = {}
    for rp in (0.5, 0.7, 0.9):
        for m in ReconstructionMethod:
            accs = [bs.accuracy_quant(bs.reconstruct_model(bs.simulate_recovery(q, rp, s), m),
                                      desk["test"]) for s in SEEDS]
            means[(rp, m)] = float(np.mean(accs))
    band = all(means[(rp, ReconstructionMethod.CZR)] >= means[(rp, other)] - 0.02
               for rp in (0.5, 0.7, 0.9)
               for other in (ReconstructionMethod.ALL_ZEROS, ReconstructionMethod.ALL_ONES))
    czr5 = means[(0.5, ReconstructionMethod.CZR)]
    strict = max(czr5 - means[(0.5, ReconstructionMethod.ALL_ZEROS)],
                 czr5 - means[(0.5, ReconstructionMethod.ALL_ONES)])
    report("criterion-06 reconstruction-ordering", band and strict >= 0.05,
           f"(band={band}, strict margin at rp=0.5: {strict:.3f})")


def test_c07_recovery_rate_trend(desk):
    means = {}
    for rp in (0.6, 0.8, 1.0):
        means[rp] = float(np.mean([bs.run_attack(desk["qmodel"], rp, s, bs.FL2R(),
                                                 ReconstructionMethod.CZR, 20,
                                                 desk["test"]).accuracies[-1] for s in SEEDS]))
    ok = means[0.6] >= means[0.8] - 0.03 and means[0.8] >= means[1.0] - 0.03
    report("criterion-07 recovery-rate-trend", ok,
           "(" + ", ".join(f"rp={rp}: {means[rp]:.3f}" for rp in (0.6, 0.8, 1.0)) + ")")


def test_c08_full_recovery_equals_white_box(desk):
    direct = bs.select_vulnerable_bits(desk["qmodel"], 40)
    same = all(list(bs.run_attack(desk["qmodel"], 1.0, s, bs.FL2R(), recon, 40,
                                  desk["test"]).records) == direct
               for s in (0, 1) for recon in ReconstructionMethod)
    report("criterion-08 full-recovery-white-box", same)


def test_c09_sweep_determinism(desk, tmp_path):
    # every file a sweep writes is the same at --jobs 1, 1 and 4: on two nq, where --jobs 1
    # keeps one victim pass across the groups of each nq, and on three recons, where a
    # group's random list, and at rp 1.0 its FL2R and gradient lists, repeat and run once
    bs.save_model(desk["model"], tmp_path / "victim.model")
    bs.save_dataset(desk["test"], tmp_path / "test.data")
    sweeps = {"two-nq": "nq = 8 4\nrp = 0.7 1.0\nranking = fl2r random\nrecon = czr\nnbf = 4\n",
              "three-recon": "nq = 8\nrp = 0.8 1.0\nranking = fl2r random gradient\n"
                             "recon = czr allzeros allones\nnbf = 5\n"}
    same, compared = True, 0
    for name, axes in sweeps.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"victim = {tmp_path / 'victim.model'}\neval = {tmp_path / 'test.data'}\n"
                       f"seeds = 0 1\n{axes}")
        outs = []
        for jobs in ("1", "1", "4"):
            out = tmp_path / f"{name}-{len(outs)}"
            rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
            assert rc == EXIT_OK
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        same &= outs[0] == outs[1] == outs[2]
        compared += len(outs[0])
    report("criterion-09 sweep-determinism", same, f"({compared} files at --jobs 1, 1 and 4)")


def test_c10_no_duplicate_and_involution_fuzz():
    rng = np.random.default_rng(99)
    dup_free = True
    involution = True
    for _ in range(1000):
        q = random_qmodel(rng)
        n_bf = int(rng.integers(1, 12))
        records = bs.select_vulnerable_bits(q, n_bf)
        dup_free &= len(set(records)) == len(records)
        r = records[int(rng.integers(len(records)))]
        twice = bs.apply_flips(bs.apply_flips(q, [r]), [r])
        involution &= all(np.array_equal(a, b) for a, b in zip(twice.codes, q.codes))
    report("criterion-10 no-duplicate-involution",
           dup_free and involution, f"(dup_free={dup_free}, involution={involution})")


def test_c11_incremental_equals_reference(verify_run):
    line = verify_run[2]["incremental-eval"]  # which names the GEMM each conv restart ran
    named = re.search(r"conv restarts: layer 0 (two-row block|full GEMM), "
                      r"layer 3 (two-row block|full GEMM)$", line)
    chunked = ", 3 chunks of up to 200: " in line  # two full chunks and a short one
    report("criterion-11 incremental-equals-reference",
           line.startswith("PASS") and named and chunked, f"({line})")
