#!/usr/bin/env python3
"""Record the benchmark's reference outputs from the code in this checkout.

    python3 perfbench/record.py

Writes `data/victim.model` and `data/test.data` (the desk victim the attack
workloads read) and `digests.json` (the digest of every output of every
operation the workloads can run). Run it only at a commit whose outputs are the
reference: the benchmark fails any later commit whose outputs differ.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import os
import shutil
import tempfile

from run import ROOT, bootstrap, git_commit


def main():
    err = bootstrap()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads
    os.makedirs(workloads.DATA, exist_ok=True)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        workloads.make_desk_victim(tmp)
        for name, dest in (("victim.model", workloads.VICTIM), ("test.data", workloads.EVAL)):
            shutil.copyfile(os.path.join(tmp, name), dest)
        digests = {"recorded_at": git_commit()}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(0, tmp)
            wl.setup()
            wl.order = np.arange(cls.TABLE)
            ops = 3 * cls.TABLE if name == "attack-long" else cls.TABLE
            table = {}
            for i in range(ops):
                try:
                    result = wl.op(i)
                except ValueError as e:  # recorded as the expected outcome
                    result = e
                table.update(wl.outcome(i, result)[1])
            digests[name] = dict(sorted(table.items()))
            errors = sorted(k for k, v in table.items() if v.startswith("error:"))
            print(f"{name}: {len(table)} digests; operations that raise: {errors or 'none'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
