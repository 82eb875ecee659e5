"""Self-test of the benchmark itself.

Usage: python3 bench/selftest.py

Checks, printing one [PASS]/[FAIL] line each and exiting 1 on any failure:
  * the oracle accepts a correct trial and rejects a corrupted final
    vector, estimate or decision, and a trial that raises counts as failed;
  * the sweep path composed from harness functions matches
    monte_carlo(jobs=1) record for record;
  * two traced runs with the same seed report identical exact counts, and
    the per-layer self times add up to the traced wall time.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import oracle
import run
from common import LAYERS, OUT, ROOT, WORKLOADS, load_package

EXACT = ("graph.graph_at_calls", "graph.c_check_calls", "graph.c_accept_ratio",
         "graph.c_fallbacks", "protocol.apply_calls", "quantization.dequantize_entries",
         "sampling.exp_draws", "engine.trace_bytes", "cli.dump_bytes")

results: list[bool] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}", flush=True)


def one_trial(mods, workload, seed=7):
    cfg = workload.experiment(mods, seed)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tc, trace, _, _ = run.program_trial(mods, workload, cfg, 0, Path(tmp) / "t.jsonl")
    return tc, trace


def check_oracle(mods) -> None:
    for name in ("cc-sweep", "rbard-wide"):
        w = WORKLOADS[name]
        tc, trace = one_trial(mods, w)
        bound = w.stationary_bound(tc.params)
        report(f"oracle accepts {name} trial 0", not oracle.check_trial(mods, tc, trace, bound))

        s = trace.final_states[1]
        good = s.x_vec
        s.x_vec = good.copy()
        s.x_vec[3] += 1
        report(f"oracle rejects a corrupted final vector ({name})",
               bool(oracle.check_trial(mods, tc, trace, bound)))
        s.x_vec = good

        if tc.protocol == "r":
            trace.estimates[-1, 0] = math.nextafter(trace.estimates[-1, 0], math.inf)
            report("oracle rejects an estimate that moves after the bound",
                   bool(oracle.check_trial(mods, tc, trace, bound)))
        else:
            u = int(np.flatnonzero(~np.isnan(trace.decisions[-1]))[0])
            trace.decisions[-1, u] += 1.0
            report("oracle rejects a rewritten decision", bool(oracle.check_trial(mods, tc, trace, bound)))

    engine, real = mods["engine"], mods["engine"].run_trial

    def broken(tc):
        raise RuntimeError("injected")

    engine.run_trial = broken
    try:
        w = WORKLOADS["cc-sweep"]
        entries, fold, _ = run.measure(mods, w, w.experiment(mods, 7), 0.0, 1)
    finally:
        engine.run_trial = real
    report("a trial that raises counts as failed",
           entries[0]["failures"] == ["raised RuntimeError: injected"] and not fold["ok"])


def check_sweep_composition(mods) -> None:
    w = WORKLOADS["cc-sweep"]
    cfg = replace(w.experiment(mods, 7), trials=2)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        records = [run.program_trial(mods, w, cfg, i, Path(tmp) / "t.jsonl")[2] for i in range(2)]
    harness = mods["harness"]
    ours = harness.summary_from_records(cfg, records).to_json()
    theirs = harness.monte_carlo(cfg, jobs=1).to_json()
    report("composed sweep path equals monte_carlo(jobs=1)", ours == theirs)


def traced(name: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def check_traced_runs() -> None:
    for name in WORKLOADS:
        a, b = traced(name, 11), traced(name, 11)
        ma, mb = a["metrics"], b["metrics"]
        diff = [k for k in EXACT if ma[k]["value"] != mb[k]["value"]]
        report(f"{name}: exact counts repeat", not diff, f"differ: {diff}" if diff else
               ", ".join(f"{k}={ma[k]['value']}" for k in EXACT if ma[k]["value"]))
        report(f"{name}: traced trials pass the oracle", a["correct"] and b["correct"])
        layers = sum(ma[f"{layer}.self_s"]["value"] for layer in LAYERS)
        wall = ma["trace.wall_s"]["value"]
        report(f"{name}: layer self times sum to the traced wall time",
               abs(layers - wall) <= 1e-9 * max(1.0, wall), f"{layers:.6f} s vs {wall:.6f} s")


def main() -> int:
    mods = load_package()
    OUT.mkdir(exist_ok=True)
    check_oracle(mods)
    check_sweep_composition(mods)
    check_traced_runs()
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
