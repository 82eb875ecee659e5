"""avgcons benchmark: one workload, one seed, one measured run.

Usage:
    python3 bench/run.py --workload {rbar-long,rbard-wide,cc-sweep} \
        --seed N --seconds S --trace {0,1}

Trials 0, 1, 2, ... of the workload's fixed config run one after another
in this process (a closed loop, one trial in flight) until S seconds have
passed.  Each trial's output is checked by an independent oracle
(bench/oracle.py); a trial that raises or fails the oracle counts as
failed.  With --trace 0 nothing is wrapped and the end-to-end metrics are
reported; with --trace 1 the package's public functions are wrapped
(bench/tracer.py) and the per-layer metrics are reported.  A JSON report
with the environment stamp and per-trial digests is printed and written
to .bench_out/; the last stdout line is the result object.
See bench/NOTES.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np

import oracle
from common import LAYERS, OUT, ROOT, SRC, WORKLOADS, PackageMissing, load_package
from tracer import Tracer

SETUP_PROBES = 5


class SpeedProbe:
    """Samples this host's speed while trials run.

    Every PERIOD_S a SIGALRM handler times a fixed mix of interpreted
    Python and small numpy operations (about 0.2 ms, so about 1% of the
    run).  On a shared 2-vCPU VM (Xeon, 2.0 GHz) the speed of identical
    trials drifted by up to 1.7x within tens of seconds; a trial's wall
    time divided by the mean tick time sampled during that trial cancels
    most of the drift.  The mix tracks both the interpreter-bound
    workloads and the numpy-bound one better than either half alone.
    """

    PERIOD_S = 0.025
    _A = np.arange(2048, dtype=np.float64)
    _B = _A[::-1].copy()

    def __init__(self) -> None:
        self.samples: list[float] = []

    @classmethod
    def loop_s(cls) -> float:
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(1000):
            d[i & 255] = d.get(i & 255, 0) + i
        for _ in range(4):
            np.power(1.025, cls._A)
            np.minimum.reduce([cls._A, cls._B, cls._A, cls._B])
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.loop_s())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mean_since(self, mark: int) -> float:
        return statistics.mean(self.samples[mark:] or [self.loop_s()])


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "avgcons").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def setup_times(workload, seed: int) -> list[float]:
    """Set-up seconds from fresh interpreters; the first, which also fills
    the bytecode and file caches, is dropped."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, str(probe), workload.name, str(seed)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times[1:]


def trace_bytes(trace) -> int:
    arrays = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
    arrays += [a for pair in trace.decision_vectors.values() for a in pair]
    return sum(a.nbytes for a in arrays)


def program_trial(mods, workload, cfg, i: int, dump_path: Path):
    """The measured program work of one trial: config, rounds, evaluation,
    and for the run path the JSONL trace dump."""
    harness, engine = mods["harness"], mods["engine"]
    tc = harness.trial_config(cfg, i)
    trace = engine.run_trial(tc)
    rec = harness.evaluate_trial(cfg, trace)
    rec["trial"] = i
    dump_bytes = 0
    if workload.path == "run":
        with open(dump_path, "w") as fp:
            engine.dump_trace_jsonl(trace, fp)
        dump_bytes = dump_path.stat().st_size
    return tc, trace, rec, dump_bytes


def measure(mods, workload, cfg, seconds: float, min_trials: int, tracer: Tracer | None = None):
    """Run trials until `seconds` have passed and at least `min_trials`.

    Untraced, a SpeedProbe runs and each trial's cost is its wall time
    over the mean probe loop time sampled during the trial.
    Returns the per-trial entries, the fold outcome and, when traced, a
    snapshot of the counts taken after trial min_trials - 1.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    paused = tracer.paused if tracer else nullcontext
    entries, records, window = [], [], None
    probe = None if tracer else SpeedProbe()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, span("bench.run"), probe or nullcontext():
        dump_path = Path(tmp) / "trace.jsonl"
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_trials or time.perf_counter() < deadline:
            entry = {"trial": i}
            with span("bench.trial"):
                try:
                    mark = len(probe.samples) if probe else 0
                    t0 = time.perf_counter()
                    tc, trace, rec, dump_bytes = program_trial(mods, workload, cfg, i, dump_path)
                    entry["wall_s"] = time.perf_counter() - t0
                    if probe:
                        entry["cost"] = entry["wall_s"] / probe.mean_since(mark)
                    with paused():
                        entry["failures"] = oracle.check_trial(
                            mods, tc, trace, workload.stationary_bound(tc.params))
                        entry.update(
                            config_digest=tc.digest(),
                            trace_sha256=oracle.trace_sha256(trace),
                            agent_rounds=tc.n * tc.t_max,
                            trace_bytes=trace_bytes(trace),
                            dump_bytes=dump_bytes,
                            accurate=rec.get("accurate"),
                            levels_ok=rec.get("levels_ok"),
                            decision_good=rec.get("decision_good"),
                        )
                    records.append(rec)
                except Exception as exc:  # a trial that raises is a failed trial
                    entry["failures"] = [f"raised {type(exc).__name__}: {exc}"]
            entries.append(entry)
            i += 1
            if tracer and i == min_trials:
                window = {"spans": len(tracer.name_id), "counts": dict(tracer.counts),
                          "trials": [dict(e) for e in entries]}
        fold = {"ok": True}
        try:
            summary = mods["harness"].summary_from_records(replace(cfg, trials=len(records)), records)
            fold["claims"] = {k: c["passed"] for k, c in summary.claims.items()}
        except Exception as exc:
            fold = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return entries, fold, window


def layer_metrics(tracer: Tracer, entries: list, window: dict, overhead: float) -> dict:
    """Per-layer metrics: times are seconds per traced trial; counts are
    totals over the first count_trials trials, so they repeat exactly."""
    every, first = tracer.totals(), tracer.totals(window["spans"])
    counts, head = window["counts"], window["trials"]
    trials = len(entries)

    def secs(*names):
        return sum(every[n]["incl_s"] for n in names if n in every) / trials

    def calls(*names):
        return sum(first[n]["calls"] for n in names if n in first)

    def layer_self(layer):
        return sum(t["self_s"] for t in every.values() if t["layer"] == layer) / trials

    tags = ("min", "r", "rbar", "rbard")
    c_checks = calls("is_c_in_connected")
    agent_rounds = sum(e.get("agent_rounds", 0) for e in entries)
    m = {
        "graph.graph_at_s": (secs("graph_at"), "s"),
        "graph.graph_at_calls": (calls("graph_at"), "count"),
        "graph.c_check_s": (secs("is_c_in_connected"), "s"),
        "graph.c_check_calls": (c_checks, "count"),
        "graph.c_accept_ratio": (counts.get("c_rounds", 0) / c_checks if c_checks else 0.0, "ratio"),
        "graph.c_fallbacks": (counts.get("c_fallbacks", 0), "count"),
        "protocol.apply_s": (secs(*(f"{t}_apply" for t in tags)), "s"),
        "protocol.outbox_s": (secs(*(f"{t}_outbox" for t in tags)), "s"),
        "protocol.apply_calls": (calls(*(f"{t}_apply" for t in tags)), "count"),
        "quantization.dequantize_s": (secs("dequantize_array"), "s"),
        "quantization.dequantize_entries": (counts.get("dequantize_entries", 0), "count"),
        "sampling.params_s": (secs("params_r", "params_rbar", "params_rbard"), "s"),
        "sampling.exp_draws": (counts.get("exp_draws", 0), "count"),
        "engine.run_trial_s": (secs("run_trial"), "s"),
        "engine.us_per_agent_round": (
            1e6 * secs("run_trial") * trials / agent_rounds if agent_rounds else 0.0, "us"),
        "engine.trace_bytes": (sum(e.get("trace_bytes", 0) for e in head), "B"),
        "harness.trial_config_s": (secs("trial_config"), "s"),
        "harness.evaluate_s": (secs("evaluate_trial"), "s"),
        "harness.fold_s": (secs("summary_from_records"), "s"),
        "cli.dump_s": (secs("dump_trace_jsonl"), "s"),
        "cli.dump_bytes": (sum(e.get("dump_bytes", 0) for e in head), "B"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    m["trace.wall_s"] = (secs("bench.run"), "s")
    m["trace_overhead_frac"] = (overhead, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        mods = load_package()
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    report = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed)}
    cfg = workload.experiment(mods, args.seed)

    if args.trace == 0:
        setups = setup_times(workload, args.seed)
        entries, fold, _ = measure(mods, workload, cfg, args.seconds, 1)
        costs = [e["cost"] for e in entries if "cost" in e]
        metrics = {
            "trial_cost": {"value": statistics.median(costs) if costs else float("nan"), "unit": "ticks"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        walls = [e["wall_s"] for e in entries if "wall_s" in e]
        report["setup_s_samples"] = setups
        report["trial_wall_s_median"] = statistics.median(walls) if walls else None
    else:
        # Trial 0 untraced first: the baseline for the tracing overhead.
        # Should it raise, its traced rerun below fails and is counted.
        untraced = None
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            t0 = time.perf_counter()
            try:
                program_trial(mods, workload, cfg, 0, Path(tmp) / "trace.jsonl")
                untraced = time.perf_counter() - t0
            except Exception:
                pass
        tracer = Tracer()
        tracer.install(mods)
        try:
            entries, fold, window = measure(mods, workload, cfg, args.seconds,
                                            workload.count_trials, tracer)
        finally:
            tracer.uninstall()
        traced = entries[0].get("wall_s")
        overhead = traced / untraced - 1.0 if traced and untraced else 0.0
        metrics = layer_metrics(tracer, entries, window, overhead)
        tracer.save(OUT / f"spans-{workload.name}.npz")
        report["count_trials"] = workload.count_trials

    failed = sum(bool(e["failures"]) for e in entries)
    report.update(trials=entries, fold=fold, fail_rate=failed / len(entries), metrics=metrics)
    text = json.dumps(report)
    (OUT / f"report-{workload.name}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({"correct": failed == 0 and fold["ok"], "attempted": len(entries),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
