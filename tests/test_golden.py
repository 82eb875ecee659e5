"""Golden digests: small trials whose every recorded output is pinned.

Each case builds trial 1 of an ExperimentConfig the way ``avgcons sweep``
does (trial_config, run_trial, evaluate_trial) and the way ``avgcons run``
dumps it (dump_trace_jsonl).  The pinned sha256 prefixes make "traces are
bit-identical" a checked fact: a refactor or speed-up that changes any
estimate, decision, counter, initial draw, final vector, dump line or
evaluation record fails here.  The cases span all four protocols and all
six schedule kinds.  One rbar trial is also pinned at full size, since
its engine works on blocks of up to a rotation of rounds, and every dump
is checked against the plain per-round encoder.  The schedule streams
are pinned separately, at the benchmark's sizes, since the trial cases
stop at n = 6; the in-adjacency arrays are checked against them.
"""
import hashlib
import io
import json
import math

import numpy as np
import pytest

from avgcons import engine as eng
from avgcons import graph as gr
from avgcons import harness as hn

CASES = {
    "min-csc": dict(protocol="min", n=5, seed=3),
    "min-ring": dict(protocol="min", n=4, seed=1, schedule_kind="ring"),
    "min-delayed": dict(protocol="min", n=4, seed=2, schedule_kind="delayed", delay=2),
    "r-complete": dict(protocol="r", n=4, seed=4, schedule_kind="complete", ell=16),
    "r-c_connected": dict(protocol="r", n=6, seed=5, schedule_kind="c_connected", c=2, ell=16),
    "r-formula-csc": dict(protocol="r", n=3, seed=6, epsilon=0.4, eta=0.4),
    "rbar-csc": dict(protocol="rbar", n=4, seed=7, ell=8, beta=0.05),
    "rbar-blocking": dict(protocol="rbar", n=3, seed=8, ell=4, beta=0.05, schedule_kind="blocking"),
    "rbar-delayed": dict(protocol="rbar", n=3, seed=9, ell=6, beta=0.1, a=-1.0, b=2.0,
                         schedule_kind="delayed", delay=2),
    "rbard-csc": dict(protocol="rbard", n=4, seed=10, ell=32, beta=0.05, size_bound=6, s_max=2),
    "rbard-c_connected": dict(protocol="rbard", n=5, seed=11, ell=16, beta=0.05, size_bound=5,
                              schedule_kind="c_connected", c=3),
    "rbard-formula-ring": dict(protocol="rbard", n=3, seed=12, size_bound=4, epsilon=0.4,
                               eta=0.4, schedule_kind="ring"),
}

# name: (config digest, t_max, trace sha256, dump sha256, record sha256)
GOLDEN = {
    "min-csc": ("221f92d4816bee9c", 16, "740257f3150ea3e1", "9f3713b7612a7aa1", "f810620cd762f9da"),
    "min-ring": ("dbc8e3e509d01f83", 12, "320b394fc9da4986", "d3e1e6e284abc336", "065a0b7e75873b92"),
    "min-delayed": ("d710854a5265abbe", 24, "e37fb4226b09e155", "515e4a436cad7fe2", "73dd3d50bf5023e8"),
    "r-complete": ("60691aea9d0527d2", 12, "3ecc0211b0299bc7", "ccccce8d28866660", "b9f5dffd7e083561"),
    "r-c_connected": ("12ce14a0047b7289", 12, "d8dee305467bfd39", "1059af938acc826a", "9ece686c65ad0c5e"),
    "r-formula-csc": ("9d45b033bd26a7fd", 8, "22b99249310d0003", "f7daf768d8f9cacc", "22f431cee099c309"),
    "rbar-csc": ("c4b3eaa44ecd70e0", 128, "ed3bb27c2a3294f4", "c87807232c49cd43", "f61dd268efc2b637"),
    "rbar-blocking": ("12646b31e9fa54f0", 48, "e359c72098603db4", "f9329df604a88645", "6cd4a6ca5caa6dab"),
    "rbar-delayed": ("2402d992acb13967", 72, "a2367b773c2a5f1d", "174abd101f62147d", "95fd2ea6433e74f5"),
    "rbard-csc": ("a004f0f6c4f88d37", 40, "8ec2e9f89e6199a0", "daf9c4c866ebcf0b", "2a350cf88c5fc841"),
    "rbard-c_connected": ("3701a68ccbd09416", 40, "78e5f202d84a306c", "70db25749bb26ab6", "408d0ad0cce17391"),
    "rbard-formula-ring": ("e6f0134a0b7e4965", 24, "212c38d16b24c0dc", "f29d611852a5fb4c", "f52675fd9f0db3b1"),
}


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if p is None:
            h.update(b"none\x1f")
        elif isinstance(p, np.ndarray):
            h.update(f"{p.dtype.str}{p.shape}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(p.encode("utf-8"))
    return h.hexdigest()[:16]


def reference_dump(trace) -> str:
    """The JSON-Lines dump encoded the plain way: every round's object
    built and passed to json.dumps whole."""
    cfg = trace.config
    header = {
        "config": cfg.digest(),
        "protocol": cfg.protocol,
        "n": trace.n,
        "t_max": trace.t_max,
        "theta": trace.theta,
        "shifted_sum": None if cfg.params is None
        else float(sum(x - cfg.params.a + 1.0 for x in cfg.inputs)),
    }
    lines = [json.dumps(header)]
    bits = eng.message_bits(trace).per_round
    for t in range(1, trace.t_max + 1):
        agents = []
        for u in range(trace.n):
            x = trace.estimates[t - 1, u]
            d = None if trace.decisions is None else trace.decisions[t - 1, u]
            agents.append(
                {
                    "x": None if math.isnan(x) else x,
                    "d": None if d is None or math.isnan(d) else d,
                    "C": None if trace.counters is None else int(trace.counters[t - 1, u]),
                }
            )
        lines.append(json.dumps({"t": t, "agents": agents, "msg_bits": int(bits[t - 1])}))
    return "".join(line + "\n" for line in lines)


def _run(cfg, trial):
    tc = hn.trial_config(cfg, trial)
    trace = eng.run_trial(tc)
    arrays = [trace.estimates, trace.decisions, trace.counters, trace.decision_rounds,
              trace.init_x_raw, trace.init_y_raw, trace.init_x_quant, trace.init_y_quant]
    for s in trace.final_states:
        arrays += [getattr(s, "x_vec", None), getattr(s, "y_vec", None)]
    buf = io.StringIO()
    eng.dump_trace_jsonl(trace, buf)
    return tc, trace, _sha(arrays), buf.getvalue()


def _observe(name):
    cfg = hn.ExperimentConfig(trials=2, **CASES[name])
    tc, trace, trace_sha, dump = _run(cfg, 1)
    record = json.dumps(hn.evaluate_trial(cfg, trace), sort_keys=True)
    return tc.digest(), tc.t_max, trace_sha, _sha([dump]), _sha([record])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name):
    assert _observe(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_dump_matches_the_reference_encoder(name):
    _, trace, _, dump = _run(hn.ExperimentConfig(trials=2, **CASES[name]), 1)
    assert dump == reference_dump(trace)


# Trial 0 of the acceptance suite's criterion-5 config at full size (rbar,
# n=6, ell=8089, 56,623 rounds): (config digest, t_max, trace sha256, dump
# sha256), the last two hashed as in GOLDEN.
CRITERION_5 = dict(protocol="rbar", trials=50, n=6, seed=20250811 + 5, epsilon=0.4, eta=0.4,
                   a=0.0, b=1.0, t_max=8089 * 7)
CRITERION_5_GOLDEN = ("6a7508e5a199f267", 56623, "021792ba24a89a2e", "ad2ea6e98428e980")


def test_golden_digests_at_full_size():
    tc, _, trace_sha, dump = _run(hn.ExperimentConfig(**CRITERION_5), 0)
    assert (tc.digest(), tc.t_max, trace_sha, _sha([dump])) == CRITERION_5_GOLDEN


# Rounds 1..200 of each schedule, hashed as the engine reads them: name:
# (DynamicSchedule arguments, sha256 prefix of the in-neighbour lists).
STREAMS = {
    "csc-n6": (dict(kind="csc", n=6, seed=11), "e99880a24aaf5a78"),
    "c_connected-n12-c2": (dict(kind="c_connected", n=12, seed=12, c=2), "590519d54a617e60"),
    "csc-n32": (dict(kind="csc", n=32, seed=13), "08b1c85b212bb413"),
    "c_connected-n32-c4": (dict(kind="c_connected", n=32, seed=14, c=4), "15418b5e845362c7"),
    "delayed-n8-delay3": (dict(kind="delayed", n=8, seed=15, delay=3), "dffc4cf9891acadf"),
    "blocking-n6-ell8": (dict(kind="blocking", n=6, ell=8), "31dd06730d52515f"),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_schedule_stream_digests(name):
    kwargs, expected = STREAMS[name]
    sched = gr.DynamicSchedule(**kwargs)
    rounds = [repr(sched.graph_at(t).in_neighbor_lists) for t in range(1, 201)]
    assert _sha(rounds) == expected


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_in_adjacency_matches_graph_at(name):
    # (1, 201) is the pinned stretch; (37, 90) starts mid-stream and, for
    # delayed (period 3) and blocking (period 2), crosses period boundaries
    # at an offset; (5, 5) is empty.
    sched = gr.DynamicSchedule(**STREAMS[name][0])
    for t0, t1 in ((1, 201), (37, 90), (5, 5)):
        adj = sched.in_adjacency(t0, t1)
        assert adj.shape == (t1 - t0, sched.n, sched.n) and adj.dtype == bool
        for k, t in enumerate(range(t0, t1)):
            rows = tuple(tuple(np.flatnonzero(row).tolist()) for row in adj[k])
            assert rows == sched.graph_at(t).in_neighbor_lists, t
