#!/usr/bin/env python3
"""Compare reconstruction methods on partially recovered models.

For each recovery rate, simulates partial parameter recovery, fills the
unknown bits with each reconstruction method, and reports the mean
accuracy of the resulting surrogate (no bit flips applied).  Shows how
the magnitude-minimizing fill degrades more gracefully than naive
all-zeros / all-ones fills as recovery drops.

It reads the victim that `bitsiege train` writes and the set to score on:

    python scripts/reconstruction_quality.py victim/victim.model victim/test.data
"""
import argparse
import sys

import numpy as np

import bitsiege as bs
from bitsiege.attack import check_config
from bitsiege.cli import EXIT_IO, EXIT_USAGE
from bitsiege.quantize import BITWIDTHS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("victim", help="the float victim, a .model file (victim/victim.model)")
    ap.add_argument("eval", help="the .data set to score on (victim/test.data)")
    ap.add_argument("--nq", type=int, default=8, choices=BITWIDTHS)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--rp", type=float, nargs="+", default=[0.3, 0.5, 0.7, 0.9, 1.0])
    args = ap.parse_args()

    try:  # every argument is checked before any file is read
        for rp in args.rp:
            check_config("rp", rp, "--rp")
        if args.seeds < 1:
            raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    except ValueError as e:  # one line and exit 1, as `bitsiege` does
        print(f"error: {e}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    try:
        qmodel = bs.quantize_model(bs.load_model(args.victim), args.nq)
        test_ds = bs.load_dataset(args.eval)
    except (OSError, bs.ModelFormatError) as e:  # one line and exit 3, as `bitsiege` does
        print(f"i/o error: {e}", file=sys.stderr)
        sys.exit(EXIT_IO)
    print(f"quantized victim accuracy: {bs.accuracy_quant(qmodel, test_ds):.4f}\n")

    methods = list(bs.ReconstructionMethod)
    header = "rp      " + "".join(f"{m.value:>10}" for m in methods)
    print(header)
    for rp in args.rp:
        accs = {m: [] for m in methods}
        for seed in range(args.seeds):
            partial = bs.simulate_recovery(qmodel, rp, seed)
            for m in methods:
                surrogate = bs.reconstruct_model(partial, m)
                accs[m].append(bs.accuracy_quant(surrogate, test_ds))
        print(f"{rp:<8.2f}" + "".join(f"{np.mean(accs[m]):>10.4f}" for m in methods))


if __name__ == "__main__":
    main()
