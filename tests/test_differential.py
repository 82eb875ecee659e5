"""Differential test: the matrix engine against the per-agent reference loop.

``reference_run`` is the round loop in its plainest form: every agent is a
state object of ``protocol``, every round every agent emits its outbox
message, receives the messages of its in-neighbours and applies its
transition.  ``engine.run_trial`` must produce the same trace bit for bit:
estimates, decisions, counters, decision rounds and vectors, checkpoints
and every agent's final vectors, dtypes included, and every other field
of the machines' final states must follow from that trace.  For rbar, whose
engine runs blocks of rounds at once, ``scalar_rotation_run`` is a second
oracle: the same matrices updated one round and one column at a time.
Both oracles draw every round, so they also check the engine's skip of the
rounds after the state has frozen.
"""
import math
import struct
from collections import Counter
from dataclasses import replace
from functools import reduce
from operator import or_

import numpy as np
import pytest

from avgcons import engine as eng
from avgcons import graph as gr
from avgcons import harness as hn
from avgcons import protocol as proto
from avgcons.graph import SCHEDULE_KINDS
from avgcons.quantization import dequantize_array
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
    """The trial as per-agent machines exchanging messages, round by round:
    its trace, and the machines' final states."""
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
    if eng.PROTOCOLS[cfg.protocol].randomized:
        trace.final_states = [eng.FinalVectors(s.x_vec, s.y_vec) for s in states]
    return trace, states


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
            est = [proto.r_estimate(dequantize_array(xs[v], p.beta),
                                    dequantize_array(ys[v], p.beta), p) for v in range(n)]
        trace.estimates[t - 1] = est
        if t in cfg.checkpoint_rounds:
            trace.checkpoints[t] = [(xs[v].copy(), ys[v].copy()) for v in range(n)]
    trace.final_states = [eng.FinalVectors(xs[v], ys[v]) for v in range(n)]
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
        assert type(sb) is eng.FinalVectors, v
        assert_same(sa.x_vec, sb.x_vec, (v, "x_vec"))
        assert_same(sa.y_vec, sb.y_vec, (v, "y_vec"))


def assert_states_follow(states, got):
    """Every field of the machines' final states, against what the engine's
    trace holds of it: the vectors in final_states, the estimate or
    decision and the counter in the last rows, the cursor from t_max, and
    the size estimate from the formula."""
    cfg = got.config
    for v, s in enumerate(states):
        e = got.estimates[-1, v]
        want = {"x": e, "d": e, "params": cfg.params, "start_round": cfg.start_rounds[v],
                "rounds_done": cfg.t_max}
        if got.final_states:
            want.update(x_vec=got.final_states[v].x_vec, y_vec=got.final_states[v].y_vec)
        if got.counters is not None:
            want["counter"] = got.counters[-1, v]
            want["n_est"] = proto.rbard_size_estimate(
                dequantize_array(got.final_states[v].y_vec, cfg.params.beta), cfg.params)
        if cfg.params is not None:
            want["cursor"] = cfg.t_max % cfg.params.ell
        for slot in type(s).__slots__:
            a, b = getattr(s, slot), want[slot]
            if slot == "params":
                assert a == b
            elif a is None:
                assert math.isnan(b) or slot == "n_est" and cfg.t_max < s.start_round, (v, slot)
            elif isinstance(b, np.ndarray):
                assert_same(a, b, (v, slot))
            else:
                assert_same(a, type(a)(b), (v, slot))


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


def pair_config(protocol, kind, n, seed, ell, s_max):
    """A small config of the pair: the fields its protocol takes, staggered
    starts up to s_max for rbard, and 2 for a kind's delay or c."""
    return hn.ExperimentConfig(
        protocol=protocol, trials=2, n=n, seed=seed, s_max=s_max if protocol == "rbard" else 0,
        **{k: v for k, v in (("ell", ell), ("beta", 0.1), ("size_bound", n + 1))
           if k in eng.PROTOCOLS[protocol].fields},
        schedule_kind=kind, **{k: 2 for k in ("delay", "c") if k == SCHEDULE_KINDS[kind][0]},
    )


@pytest.mark.parametrize("protocol,kind,n", _cases())
def test_matrix_engine_matches_the_reference_loop(protocol, kind, n):
    tc = hn.trial_config(pair_config(protocol, kind, n, 17 * n + len(kind), 6, 3), 1)
    if protocol != "min":  # min keeps no vectors to checkpoint
        tc = replace(tc, checkpoint_rounds=tuple(sorted({1, (tc.t_max + 1) // 2, tc.t_max})))
    if protocol == "rbard" and n > 1:
        assert len(set(tc.start_rounds)) > 1  # staggered starts
    assert_matches_reference(tc, eng.run_trial(tc))


def assert_matches_reference(tc, got):
    ref, states = reference_run(tc)
    assert_same_trace(ref, got)
    assert_states_follow(states, got)


def test_matrix_engine_matches_the_reference_loop_on_hand_picked_starts():
    # Passive agents mid-ring: heartbeats reach active agents on both sides.
    cfg = hn.ExperimentConfig(protocol="rbard", trials=1, n=5, seed=4, ell=8, beta=0.05,
                              size_bound=7, schedule_kind="ring")
    tc = replace(hn.trial_config(cfg, 0), start_rounds=(1, 4, 2, 6, 1), t_max=30,
                 checkpoint_rounds=(3, 6, 30))
    got = eng.run_trial(tc)
    assert (got.decision_rounds > 0).all()
    assert_matches_reference(tc, got)


def test_matrix_engine_matches_the_reference_loop_on_a_signed_zero():
    # 0.0 and -0.0 tie in a minimum, so which one wins depends on the order
    # an engine folds in; a TrialConfig keeps only the sign +.
    cfg = hn.ExperimentConfig(protocol="min", trials=1, n=3, inputs=(0.0, -0.0, 0.5),
                              schedule_kind="ring")
    tc = hn.trial_config(cfg, 0)
    assert_matches_reference(tc, eng.run_trial(tc))


# rbar segment boundaries: (n, ell, t_max, checkpoints, schedule, edges),
# edges setting the engine's _SEGMENT_EDGES to a number of rounds times the
# schedule's edges_per_round: 2n for csc, n*c + n for c_connected with
# c < n, n(n-1) for blocking.  None keeps the default horizon 4*ell*n and
# the engine's size.
RBAR_SEGMENT_CASES = {
    "checkpoint-mid-later-rotation": (5, 6, None, (2 * 6 + 3, 3 * 6 + 1), {}, {}),
    "t_max-below-ell": (4, 8, 5, (3,), {}, {}),
    "t_max-not-a-multiple-of-ell": (4, 6, 3 * 6 + 2, (7, 20), {}, {}),
    "blocks-split-by-cell-cap": (3, 8, 4 * 8 + 5, (13,), {}, dict(_SEGMENT_EDGES=5 * 6)),
    "one-round-blocks": (3, 8, 3 * 8 + 1, (), {}, dict(_SEGMENT_EDGES=1)),
    "c_connected-split-by-cell-cap": (6, 10, None, (25,), dict(schedule_kind="c_connected", c=2),
                                      dict(_SEGMENT_EDGES=7 * 18)),
    "blocking-split-by-cell-cap": (4, 6, 5 * 6 + 3, (8,), dict(schedule_kind="blocking"),
                                   dict(_SEGMENT_EDGES=4 * 12)),
    "segments-split-by-cell-cap": (3, 8, 4 * 8 + 5, (13,), {}, dict(_SEGMENT_EDGES=2 * 6)),
    "one-round-segments": (4, 6, None, (9,), dict(schedule_kind="c_connected", c=2),
                           dict(_SEGMENT_EDGES=1)),
    "n1": (1, 6, 2 * 6 + 4, (3, 9), {}, {}),
}


@pytest.mark.parametrize("name", sorted(RBAR_SEGMENT_CASES))
def test_rbar_blocks_match_both_oracles(name, monkeypatch):
    n, ell, t_max, checkpoints, sched, edges = RBAR_SEGMENT_CASES[name]
    cfg = hn.ExperimentConfig(protocol="rbar", trials=1, n=n, seed=31 + len(name), ell=ell,
                              beta=0.1, **sched)
    tc = hn.trial_config(cfg, 0)
    tc = replace(tc, t_max=t_max or tc.t_max, checkpoint_rounds=checkpoints)
    for constant, value in edges.items():
        monkeypatch.setattr(eng, constant, value)
    got = eng.run_trial(tc)
    assert_matches_reference(tc, got)
    assert_same_trace(scalar_rotation_run(tc), got)


def freeze_round(tc):
    """The first round after which no round can change the state, from the
    oracles and graph_at alone; None if the horizon ends first.  rbar
    freezes once every agent holds the same vectors; the others once every
    agent is active and has heard from every agent, and (rbard) every
    counter is equal."""
    if tc.protocol == "rbar":
        snaps = reference_run(replace(tc, checkpoint_rounds=tuple(range(1, tc.t_max + 1))))[0].checkpoints
        return next((t for t in range(1, tc.t_max + 1) if all(
            (x == snaps[t][0][0]).all() and (y == snaps[t][0][1]).all() for x, y in snaps[t])), None)
    counters = reference_run(tc)[0].counters
    full, reach = (1 << tc.n) - 1, [1 << v for v in range(tc.n)]
    for t in range(1, tc.t_max + 1):
        ins = tc.schedule.graph_at(t).in_neighbor_lists
        on = [t >= s for s in tc.start_rounds]
        reach = [reduce(or_, [reach[u] for u in ins[v] if on[u]], reach[v]) if on[v] else reach[v]
                 for v in range(tc.n)]
        if t > tc.s_max and reach.count(full) == tc.n and (
                counters is None or len(set(counters[t - 1].tolist())) == 1):
            return t
    return None


def assert_shared_after_the_freeze(got, frozen):
    """After the engine's frozen round every agent's final vectors, every
    later checkpoint and the vectors of every agent that decides later are
    one read-only pair (r's are row views); a trial that ends before it
    keeps a pair per agent."""
    distinct = {(id(s.x_vec), id(s.y_vec)): (s.x_vec, s.y_vec) for s in got.final_states}
    if frozen is None or frozen > got.t_max:
        assert len(distinct) == got.n
        return
    (x, y), = distinct.values()
    assert not x.flags.writeable and not y.flags.writeable
    assert (x.base is not None) == (got.config.protocol == "r")
    later = [pair for t, ps in got.checkpoints.items() if t > frozen for pair in ps]
    if got.decision_rounds is not None:
        later += [got.decision_vectors[v] for v in np.flatnonzero(got.decision_rounds > frozen).tolist()]
    assert all(a is x and b is y for a, b in later)


@pytest.mark.parametrize("protocol,kind", PAIRS, ids=[f"{p}-{k}" for p, k in PAIRS])
def test_the_frozen_tail_matches_the_oracles(protocol, kind, monkeypatch):
    # The same trial with the freeze just before a checkpoint, and with a
    # horizon that ends the round before it, so it never freezes; rbar in
    # segments of 3 live rounds, stopping at the wrap after the freeze.
    # rbar never freezes on blocking, whose even columns never mix.
    n, ell = 5, 6 if kind == "blocking" else 7
    tc = hn.trial_config(pair_config(protocol, kind, n, 0, ell, 4), 0)
    f = freeze_round(tc)
    assert (f is None) == ((protocol, kind) == ("rbar", "blocking"))
    if (protocol, kind) == ("rbar", "csc"):  # mid-rotation, and mid-segment
        assert f % ell != 0 and f % ell % 3 != 0
    monkeypatch.setattr(eng, "_SEGMENT_EDGES", 3 * tc.schedule.edges_per_round)
    variants = [tc]
    if f is not None:  # min keeps no vectors to checkpoint
        variants = [replace(tc, checkpoint_rounds=() if protocol == "min" else (f + 1, tc.t_max))]
        variants += [replace(tc, t_max=f - 1)] if f > 1 else []
    for v in variants:
        got = eng.run_trial(v)
        assert_matches_reference(v, got)
        if protocol == "rbar":
            assert_same_trace(scalar_rotation_run(v), got)
        if protocol != "min":
            assert_shared_after_the_freeze(got, f and -(-f // ell) * ell if protocol == "rbar" else f)
    if (protocol, kind) == ("rbard", "delayed"):  # agents decide before and after the freeze
        rounds = eng.run_trial(tc).decision_rounds
        assert (rounds <= f).any() and (rounds > f).any()


def test_rounds_after_the_freeze_are_not_drawn(monkeypatch):
    drawn = []
    in_edges, graph_at = gr.DynamicSchedule.in_edges, gr.DynamicSchedule.graph_at
    # min on csc at n=32 reads every round up to its last reach-set growth
    # and none after it.
    tc = hn.trial_config(hn.ExperimentConfig(protocol="min", trials=1, n=32, seed=3), 0)
    f = freeze_round(tc)
    monkeypatch.setattr(gr.DynamicSchedule, "in_edges",
                        lambda sched, rounds: drawn.extend(rounds) or in_edges(sched, rounds))
    monkeypatch.setattr(gr.DynamicSchedule, "graph_at",
                        lambda sched, t: drawn.append(t) or graph_at(sched, t))
    eng.run_trial(tc)
    assert drawn == list(range(1, f + 1)) and f < tc.t_max
    # The criterion-5 shape, rbar at n=6 for ell*(n+1) rounds, with a
    # smaller ell: it skips the rounds of settled columns before its last
    # draw, draws nothing in its last rotation, and refreshes the estimates
    # at no wrap after the one that follows its last draw.
    drawn.clear()
    refreshed = []
    r_estimate = proto.r_estimate
    monkeypatch.setattr(proto, "r_estimate",
                        lambda *args: refreshed.append(args) or r_estimate(*args))
    cfg = hn.ExperimentConfig(protocol="rbar", trials=1, n=6, seed=5, epsilon=0.4, eta=0.4, ell=1000)
    tc = replace(hn.trial_config(cfg, 0), t_max=1000 * 7)
    eng.run_trial(tc)
    assert len(drawn) < max(drawn) <= tc.t_max - 1000
    assert len(refreshed) == 6 * -(-max(drawn) // 1000)


# rbar and rbard hold their vectors as offsets from the least initial
# exponent, in the narrowest dtype that holds the span; a smaller beta
# widens the span.
@pytest.mark.parametrize("protocol", ["rbar", "rbard"])
@pytest.mark.parametrize("beta,width", [(0.1, np.uint8), (1e-3, np.uint16), (1e-5, np.uint32)],
                         ids=["uint8", "uint16", "uint32"])
def test_every_offset_width_matches_the_reference_loop(protocol, beta, width):
    cfg = replace(pair_config(protocol, "csc", 5, 7, 6, 3), beta=beta)
    tc = hn.trial_config(cfg, 0)
    tc = replace(tc, checkpoint_rounds=(1, tc.t_max // 2, tc.t_max))
    assert tc.params.beta == beta
    if protocol == "rbard":
        assert len(set(tc.start_rounds)) > 1  # staggered starts
    assert eng._offsets(eng._new_trace(tc))[2][0].dtype == width
    got = eng.run_trial(tc)
    assert_matches_reference(tc, got)
    kept = [a for s in got.final_states for a in (s.x_vec, s.y_vec)]
    kept += [a for pairs in got.checkpoints.values() for pair in pairs for a in pair]
    kept += [a for pair in got.decision_vectors.values() for a in pair]
    assert kept and all(a.dtype == np.int64 for a in kept)


@pytest.mark.parametrize("kind", ["csc", "delayed", "blocking"])
def test_rbard_with_its_size_estimate_computed_lazily_matches_the_reference_loop(kind):
    tc = hn.trial_config(pair_config("rbard", kind, 12, 5 + len(kind), 6, 4), 0)
    assert tc.s_max >= 3
    got = eng.run_trial(tc)
    assert (got.decision_rounds > 0).any()
    assert_matches_reference(tc, got)


def test_rbard_computes_its_size_estimate_only_when_a_decision_test_needs_it(monkeypatch):
    # The rbard-wide shape: n = N = 32, s_max = 5.  Recomputed whenever a
    # reach set grows, n_est took about 7n calls a trial.
    calls = []
    size_estimate = proto.rbard_size_estimate
    monkeypatch.setattr(proto, "rbard_size_estimate",
                        lambda *args: calls.append(args) or size_estimate(*args))
    cfg = hn.ExperimentConfig(protocol="rbard", trials=1, n=32, size_bound=32, s_max=5,
                              epsilon=0.4, eta=0.3, seed=11)
    trace = eng.run_trial(hn.trial_config(cfg, 0))
    assert (trace.decision_rounds > 0).all()
    assert len(calls) <= 3 * 32


def test_the_frozen_tail_decides_every_waiting_agent_at_once(monkeypatch):
    # The rbard-wide shape, n = N = 32 and s_max = 5, with a smaller ell:
    # every agent decides after the freeze, on one size estimate at most
    # and one decision.  A horizon that ends at the freeze has no tail.
    cfg = hn.ExperimentConfig(protocol="rbard", trials=1, n=32, size_bound=32, s_max=5, ell=32,
                              beta=0.1, seed=11)
    tc = hn.trial_config(cfg, 0)
    f = freeze_round(tc)
    calls = []
    for name in ("r_estimate", "rbard_size_estimate"):
        real = getattr(proto, name)
        monkeypatch.setattr(proto, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    got = eng.run_trial(tc)
    tail = Counter(calls)
    calls.clear()
    eng.run_trial(replace(tc, t_max=f))
    tail -= Counter(calls)
    monkeypatch.undo()
    assert (got.decision_rounds > f).all()
    assert tail["r_estimate"] == 1 and tail["rbard_size_estimate"] <= 1 and sum(tail.values()) <= 2
    assert_matches_reference(tc, got)
    assert_shared_after_the_freeze(got, f)
