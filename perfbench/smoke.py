#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at its smallest run, untraced and traced.

    python3 perfbench/smoke.py

Asserts that each run exits 0, that its last stdout line is the result object
with every metric BENCHMARK.json names (end-to-end untraced, per-layer traced)
and that the outputs passed the digest check. It also asserts that the harness
fails, without a result, in a directory that holds only the benchmark. Takes
about two minutes on two cores.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            p = run(ROOT, w["name"], trace)
            assert p.returncode == 0, f"{w['name']} trace {trace}: exit {p.returncode}\n{p.stderr}"
            result = json.loads(p.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, p.stdout
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{w['name']} trace {trace}: {sorted(set(got) ^ set(want))}"
            print(f"ok {w['name']} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        p = run(bare, spec["workloads"][0]["name"], 0)
        assert p.returncode != 0 and '"metrics"' not in p.stdout, p.stdout
        print(f"ok bare directory: exit {p.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
