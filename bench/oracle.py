"""Independent output oracle for one trial.

The entrywise minima every run must reach are recomputed from the public
sampling API (keyed ``RngStream`` + ``init_samples``, then
``quantize_array`` for the quantized protocols), never read back from the
trace.  Every check below holds with probability 1 on the benchmark's
schedules, so any violation is a defect, not bad luck.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np


def expected_minima(mods: dict, tc) -> tuple[np.ndarray, np.ndarray]:
    sampling, protocol, quantization = mods["sampling"], mods["protocol"], mods["quantization"]
    p = tc.params
    xs, ys = [], []
    for u, theta in enumerate(tc.inputs):
        stream = sampling.RngStream(tc.seed, trial=tc.trial, agent=u, purpose="init")
        x, y = protocol.init_samples(theta, p, stream)
        if tc.protocol in ("rbar", "rbard"):
            x, y = quantization.quantize_array(x, p.beta), quantization.quantize_array(y, p.beta)
        xs.append(x)
        ys.append(y)
    return np.minimum.reduce(xs), np.minimum.reduce(ys)


def check_trial(mods: dict, tc, trace, stationary_bound: int | None) -> list[str]:
    """Violations found in one trial's trace; empty when it is correct."""
    problems = []
    min_x, min_y = expected_minima(mods, tc)
    for u, s in enumerate(trace.final_states):
        if not (np.array_equal(s.x_vec, min_x) and np.array_equal(s.y_vec, min_y)):
            problems.append(f"agent {u}: final vectors differ from the recomputed minima")
            break

    if tc.protocol in ("r", "rbar"):
        tail = trace.estimates[stationary_bound - 1:]
        ref = tail[0, 0]
        if math.isnan(ref) or not (tail == ref).all():
            problems.append(f"estimates not identical and constant from round {stationary_bound}")

    if tc.protocol == "rbard":
        d = trace.decisions
        for u in range(trace.n):
            rows = np.flatnonzero(~np.isnan(d[:, u]))
            if len(rows) and not (d[rows[0]:, u] == d[rows[0], u]).all():
                problems.append(f"agent {u}: decision rewritten after round {rows[0] + 1}")
                break
    return problems


def trace_sha256(trace) -> str:
    """Digest of everything a trial records, to compare two commits bit for bit."""
    h = hashlib.sha256()
    for arr in (trace.estimates, trace.decisions, trace.counters):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    for s in trace.final_states:
        h.update(np.ascontiguousarray(s.x_vec).tobytes())
        h.update(np.ascontiguousarray(s.y_vec).tobytes())
    return h.hexdigest()
