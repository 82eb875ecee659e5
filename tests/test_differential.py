"""Differential test: the matrix engine against the per-agent reference loop.

``reference_run`` is the round loop in its plainest form: every agent is a
state object of ``protocol``, every round every agent emits its outbox
message, receives the messages of its in-neighbours and applies its
transition.  ``engine.run_trial`` must produce the same trace bit for bit:
estimates, decisions, counters, decision rounds and vectors, checkpoints
and every field of every final state, dtypes included.  For rbar, whose
engine runs blocks of rounds at once, ``scalar_rotation_run`` is a second
oracle: the same matrices updated one round and one column at a time.
"""
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from avgcons import engine as eng
from avgcons import harness as hn
from avgcons import protocol as proto
from avgcons.graph import SCHEDULE_KINDS
from avgcons.sampling import RngStream

_OUTBOX = {tag: getattr(proto, f"{tag}_outbox") for tag in eng.PROTOCOLS}
_APPLY = {tag: getattr(proto, f"{tag}_apply") for tag in eng.PROTOCOLS}


def _init_states(cfg):
    if cfg.protocol == "min":
        return [proto.min_init(theta) for theta in cfg.inputs]
    draws = [
        proto.init_samples(theta, cfg.params, RngStream(cfg.seed, trial=cfg.trial, agent=u,
                                                        purpose="init"))
        for u, theta in enumerate(cfg.inputs)
    ]
    if cfg.protocol == "rbard":
        return [proto.rbard_init(x, y, cfg.params, start)
                for (x, y), start in zip(draws, cfg.start_rounds)]
    init = proto.r_init if cfg.protocol == "r" else proto.rbar_init
    return [init(x, y, cfg.params) for x, y in draws]


def reference_run(cfg):
    """The trial as per-agent machines exchanging messages, round by round."""
    n, t_max = cfg.n, cfg.t_max
    states = _init_states(cfg)
    outbox, apply = _OUTBOX[cfg.protocol], _APPLY[cfg.protocol]
    rbard = cfg.protocol == "rbard"
    trace = eng.TrialTrace(config=cfg, theta=float(np.mean(cfg.inputs)),
                           estimates=np.full((t_max, n), np.nan))
    if rbard:
        trace.decisions = trace.estimates
        trace.counters = np.zeros((t_max, n), dtype=np.int64)
        trace.decision_rounds = np.full(n, -1, dtype=np.int64)
    for t in range(1, t_max + 1):
        in_lists = cfg.schedule.graph_at(t).in_neighbor_lists
        outs = [outbox(s) for s in states]
        states = [apply(states[v], [outs[u] for u in in_lists[v]]) for v in range(n)]
        for v, s in enumerate(states):
            e = proto.estimate(s)
            trace.estimates[t - 1, v] = math.nan if e is None else e
            if rbard:
                trace.counters[t - 1, v] = s.counter
                if s.d is not None and trace.decision_rounds[v] < 0:
                    trace.decision_rounds[v] = t
                    trace.decision_vectors[v] = (s.x_vec.copy(), s.y_vec.copy())
        if t in cfg.checkpoint_rounds:
            trace.checkpoints[t] = [(s.x_vec.copy(), s.y_vec.copy()) for s in states]
    trace.final_states = states
    return trace


def scalar_rotation_run(cfg):
    """The rbar rounds one at a time: each round's column of the exponent
    matrices updated by scalar minima over graph_at's in-lists."""
    trace = eng._new_trace(cfg)
    n, p = cfg.n, cfg.params
    xs, ys = trace.init_x_quant.copy(), trace.init_y_quant.copy()
    est = [math.nan] * n
    for t in range(1, cfg.t_max + 1):
        ins = cfg.schedule.graph_at(t).in_neighbor_lists
        i = (t - 1) % p.ell
        for m in (xs, ys):
            col = m[:, i].tolist()
            m[:, i] = [min([col[u] for u in src]) for src in ins]
        if i == p.ell - 1:
            est = [proto.quantized_estimate(xs[v], ys[v], p) for v in range(n)]
        trace.estimates[t - 1] = est
        if t in cfg.checkpoint_rounds:
            trace.checkpoints[t] = [(xs[v].copy(), ys[v].copy()) for v in range(n)]
    trace.final_states = [proto.RbarState(xs[v], ys[v], cfg.t_max % p.ell, eng._unset(est[v]), p)
                          for v in range(n)]
    return trace


def assert_same(a, b, where):
    """Bit equality: arrays by dtype, shape and bytes, floats by their bits."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), where
    elif isinstance(a, float):
        assert type(b) is float and struct.pack("<d", a) == struct.pack("<d", b), where
    else:
        assert type(a) is type(b) and a == b, where


def assert_same_trace(ref, got):
    for name in ("estimates", "decisions", "counters", "decision_rounds"):
        a, b = getattr(ref, name), getattr(got, name)
        if a is None:
            assert b is None, name
        else:
            assert_same(a, b, name)
    for name in ("decision_vectors", "checkpoints"):
        a, b = getattr(ref, name), getattr(got, name)
        assert sorted(a) == sorted(b), name
        for key in a:
            pairs_a = a[key] if name == "checkpoints" else [a[key]]
            pairs_b = b[key] if name == "checkpoints" else [b[key]]
            assert len(pairs_a) == len(pairs_b), (name, key)
            for (xa, ya), (xb, yb) in zip(pairs_a, pairs_b):
                assert_same(xa, xb, (name, key, "x"))
                assert_same(ya, yb, (name, key, "y"))
    assert len(ref.final_states) == len(got.final_states)
    for v, (sa, sb) in enumerate(zip(ref.final_states, got.final_states)):
        assert type(sa) is type(sb), v
        for slot in type(sa).__slots__:
            a, b = getattr(sa, slot), getattr(sb, slot)
            if slot == "params":
                assert a == b
            elif a is None:
                assert b is None, (v, slot)
            else:
                assert_same(a, b, (v, slot))


# Every (protocol, schedule kind) pair the config accepts: min has no
# replicas for the blocking schedule to rotate over.
PAIRS = [(p, k) for p in eng.PROTOCOLS for k in SCHEDULE_KINDS if (p, k) != ("min", "blocking")]


def _cases():
    for protocol, kind in PAIRS:
        for n in (1, 2, 5):
            if kind == "blocking" and n == 1:
                continue  # the blocking schedule needs n >= 2
            yield pytest.param(protocol, kind, n, id=f"{protocol}-{kind}-n{n}")


def test_every_accepted_pair_is_covered():
    assert len(PAIRS) == 23


@pytest.mark.parametrize("protocol,kind,n", _cases())
def test_matrix_engine_matches_the_reference_loop(protocol, kind, n):
    cfg = hn.ExperimentConfig(
        protocol=protocol, trials=2, n=n, seed=17 * n + len(kind),
        s_max=3 if protocol == "rbard" else 0,
        **{k: v for k, v in (("ell", 6), ("beta", 0.1), ("size_bound", n + 1))
           if k in eng.PROTOCOLS[protocol].fields},
        schedule_kind=kind, **{k: 2 for k in ("delay", "c") if k == SCHEDULE_KINDS[kind][0]},
    )
    tc = hn.trial_config(cfg, 1)
    if protocol != "min":  # min keeps no vectors to checkpoint
        tc = replace(tc, checkpoint_rounds=tuple(sorted({1, (tc.t_max + 1) // 2, tc.t_max})))
    if protocol == "rbard" and n > 1:
        assert len(set(tc.start_rounds)) > 1  # staggered starts
    assert_same_trace(reference_run(tc), eng.run_trial(tc))


def test_matrix_engine_matches_the_reference_loop_on_hand_picked_starts():
    # Passive agents mid-ring: heartbeats reach active agents on both sides.
    cfg = hn.ExperimentConfig(protocol="rbard", trials=1, n=5, seed=4, ell=8, beta=0.05,
                              size_bound=7, schedule_kind="ring")
    tc = replace(hn.trial_config(cfg, 0), start_rounds=(1, 4, 2, 6, 1), t_max=30,
                 checkpoint_rounds=(3, 6, 30))
    ref, got = reference_run(tc), eng.run_trial(tc)
    assert (got.decision_rounds > 0).all()
    assert_same_trace(ref, got)


def test_matrix_engine_matches_the_reference_loop_on_a_signed_zero():
    # 0.0 and -0.0 tie in a minimum, so which one wins depends on the order
    # an engine folds in; a TrialConfig keeps only the sign +.
    cfg = hn.ExperimentConfig(protocol="min", trials=1, n=3, inputs=(0.0, -0.0, 0.5),
                              schedule_kind="ring")
    tc = hn.trial_config(cfg, 0)
    assert_same_trace(reference_run(tc), eng.run_trial(tc))


# rbar block boundaries: (n, ell, t_max, checkpoints, schedule, block cells).
# None keeps the default horizon 4*ell*n and the engine's block size.
RBAR_BLOCK_CASES = {
    "checkpoint-mid-later-rotation": (5, 6, None, (2 * 6 + 3, 3 * 6 + 1), {}, None),
    "t_max-below-ell": (4, 8, 5, (3,), {}, None),
    "t_max-not-a-multiple-of-ell": (4, 6, 3 * 6 + 2, (7, 20), {}, None),
    "blocks-split-by-cell-cap": (3, 8, 4 * 8 + 5, (13,), {}, 5 * 3 * 3),
    "one-round-blocks": (3, 8, 3 * 8 + 1, (), {}, 1),
    "c_connected-split-by-cell-cap": (6, 10, None, (25,), dict(schedule_kind="c_connected", c=2), 7 * 36),
    "blocking-split-by-cell-cap": (4, 6, 5 * 6 + 3, (8,), dict(schedule_kind="blocking"), 4 * 16),
    "n1": (1, 6, 2 * 6 + 4, (3, 9), {}, None),
}


@pytest.mark.parametrize("name", sorted(RBAR_BLOCK_CASES))
def test_rbar_blocks_match_both_oracles(name, monkeypatch):
    n, ell, t_max, checkpoints, sched, cells = RBAR_BLOCK_CASES[name]
    cfg = hn.ExperimentConfig(protocol="rbar", trials=1, n=n, seed=31 + len(name), ell=ell,
                              beta=0.1, **sched)
    tc = hn.trial_config(cfg, 0)
    tc = replace(tc, t_max=t_max or tc.t_max, checkpoint_rounds=checkpoints)
    if cells is not None:
        monkeypatch.setattr(eng, "_BLOCK_CELLS", cells)
    got = eng.run_trial(tc)
    assert_same_trace(reference_run(tc), got)
    assert_same_trace(scalar_rotation_run(tc), got)
