#!/usr/bin/env python3
"""Quantization levels and message size of the quantized protocol vs n.

The number of distinct rounding levels actually generated is compared
with the admissible-interval budget, and the per-message bit cost under
the global-range accounting rule is reported.  Both quantities are fixed
by the initial samples, so trials only need a short horizon.

Example:
    python scripts/message_cost_sweep.py --sizes 4 8 16 32 64 --trials 20
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from avgcons.harness import ExperimentConfig, build_params, run_one


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 8, 16, 32])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--epsilon", type=float, default=0.4)
    ap.add_argument("--eta", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=argparse.FileType("w"), default=sys.stdout)
    args = ap.parse_args()

    print("n,ell,beta,level_budget,mean_levels,max_levels,in_interval_fraction,"
          "message_bits", file=args.out)
    for n in args.sizes:
        cfg = ExperimentConfig(
            protocol="rbar", trials=args.trials, n=n, seed=args.seed,
            epsilon=args.epsilon, eta=args.eta, t_max=8,
        )
        params = build_params(cfg)
        records = [run_one(cfg, i) for i in range(args.trials)]
        levels = [r["distinct_exponents"] for r in records]

        print(f"{n},{params.ell},{params.beta},{records[0]['level_budget']},"
              f"{np.mean(levels):.1f},{max(levels)},"
              f"{np.mean([r['samples_in_interval'] for r in records]):.2f},"
              f"{max(r['max_message_bits'] for r in records)}", file=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
