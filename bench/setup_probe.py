"""Time one workload's set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed>

Set-up is everything before the first round: importing the package,
evaluating the parameter formulas and building trial 0's TrialConfig.
Prints {"setup_s": seconds} as one JSON line.
"""
import json
import sys
import time

from common import WORKLOADS, load_package


def main() -> None:
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    t0 = time.perf_counter()
    mods = load_package()
    cfg = workload.experiment(mods, seed)
    mods["harness"].trial_config(cfg, 0)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
