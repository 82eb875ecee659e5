"""Differential test: the matrix engine against the per-agent reference loop.

``reference_run`` is the round loop in its plainest form: every agent is a
state object of ``protocol``, every round every agent emits its outbox
message, receives the messages of its in-neighbours and applies its
transition.  ``engine.run_trial`` must produce the same trace bit for bit:
estimates, decisions, counters, decision rounds and vectors and every
agent's final vectors, dtypes included, and every other field of the
machines' final states must follow from that trace.  The vectors at an
earlier round B are checked as the final vectors of the same config run
to t_max = B, since schedules are keyed by round and draws by agent.  For
rbar, whose engine runs blocks of rounds at once, ``scalar_rotation_run``
is a second oracle: the same matrices updated one round and one column at
a time.
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
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcons import engine as eng
from avgcons import graph as gr
from avgcons import harness as hn
from avgcons import protocol as proto
from avgcons.graph import SCHEDULE_KINDS
from avgcons.quantization import dequantize_array, quantize_array
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
    its trace, the machines' final states, and every agent's (x_vec, y_vec)
    at the end of each round (none for min); states are never mutated, so
    these are the states' own arrays."""
    n, t_max = cfg.n, cfg.t_max
    states = _init_states(cfg)
    outbox, apply = _OUTBOX[cfg.protocol], _APPLY[cfg.protocol]
    rbard, randomized, vectors = cfg.protocol == "rbard", eng.PROTOCOLS[cfg.protocol].randomized, []
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
        vectors.append([(s.x_vec, s.y_vec) for s in states] if randomized else [])
    if randomized:
        trace.final_states = [eng.FinalVectors(s.x_vec, s.y_vec) for s in states]
    return trace, states, vectors


def scalar_rotation_run(cfg):
    """The rbar rounds one at a time: each round's column of the exponent
    matrices updated by scalar minima over graph_at's in-lists."""
    trace = eng._new_trace(cfg)
    n, p = cfg.n, cfg.params
    xs, ys = quantize_array(trace.init_raw, p.beta)
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
    a, b = ref.decision_vectors, got.decision_vectors
    assert sorted(a) == sorted(b), "decision_vectors"
    for key in a:
        assert_same(a[key][0], b[key][0], ("decision_vectors", key, "x"))
        assert_same(a[key][1], b[key][1], ("decision_vectors", key, "y"))
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


def pair_config(protocol, kind, n, seed, ell, s_max, beta=0.1, param=2):
    """A small config of the pair: the fields its protocol takes, staggered
    starts up to s_max for rbard, and param for a kind's delay or c."""
    return hn.ExperimentConfig(
        protocol=protocol, trials=2, n=n, seed=seed, s_max=s_max if protocol == "rbard" else 0,
        **{k: v for k, v in (("ell", ell), ("beta", beta), ("size_bound", n + 1))
           if k in eng.PROTOCOLS[protocol].fields},
        schedule_kind=kind, **{k: param for k in ("delay", "c") if k == SCHEDULE_KINDS[kind][0]},
    )


@pytest.mark.parametrize("protocol,kind,n", _cases())
def test_matrix_engine_matches_the_reference_loop(protocol, kind, n):
    tc = hn.trial_config(pair_config(protocol, kind, n, 17 * n + len(kind), 6, 3), 1)
    if protocol == "rbard" and n > 1:
        assert len(set(tc.start_rounds)) > 1  # staggered starts
    assert_matches_reference(tc, eng.run_trial(tc), (1, (tc.t_max + 1) // 2))


def assert_matches_reference(tc, got, horizons=()):
    """got, the engine's run of tc, bit for bit against the reference loop's
    run; and the engine's run of tc to each t_max = B in horizons against
    the same reference run: its estimates and counters are the first B rows,
    and its final vectors are the vectors after round B.  Returns the
    reference run."""
    ref, states, vectors = reference_run(tc)
    assert_same_trace(ref, got)
    assert_states_follow(states, got)
    for b in horizons:
        short = eng.run_trial(replace(tc, t_max=b))
        for name in ("estimates", "counters"):
            if getattr(ref, name) is not None:
                assert_same(getattr(ref, name)[:b], getattr(short, name), (b, name))
        assert len(short.final_states) == len(vectors[b - 1]), b
        for v, (s, (x, y)) in enumerate(zip(short.final_states, vectors[b - 1])):
            assert_same(x, s.x_vec, (b, v, "x_vec"))
            assert_same(y, s.y_vec, (b, v, "y_vec"))
    return ref, states, vectors


def test_matrix_engine_matches_the_reference_loop_on_hand_picked_starts():
    # Passive agents mid-ring: heartbeats reach active agents on both sides.
    cfg = hn.ExperimentConfig(protocol="rbard", trials=1, n=5, seed=4, ell=8, beta=0.05,
                              size_bound=7, schedule_kind="ring")
    tc = replace(hn.trial_config(cfg, 0), start_rounds=(1, 4, 2, 6, 1), t_max=30)
    got = eng.run_trial(tc)
    assert (got.decision_rounds > 0).all()
    assert_matches_reference(tc, got, (3, 6))


def test_matrix_engine_matches_the_reference_loop_on_a_signed_zero():
    # 0.0 and -0.0 tie in a minimum, so which one wins depends on the order
    # an engine folds in; a TrialConfig keeps only the sign +.
    cfg = hn.ExperimentConfig(protocol="min", trials=1, n=3, inputs=(0.0, -0.0, 0.5),
                              schedule_kind="ring")
    tc = hn.trial_config(cfg, 0)
    assert_matches_reference(tc, eng.run_trial(tc))


# rbar segment boundaries: (n, ell, horizons, schedule, edges), each of the
# horizons a t_max, many of them mid-rotation, and edges setting the
# engine's _SEGMENT_EDGES to a number of rounds times the schedule's
# edges_per_round: 2n for csc, n*c + n for c_connected with c < n, n(n-1)
# for blocking.  None keeps the default horizon 4*ell*n and the engine's size.
RBAR_SEGMENT_CASES = {
    "t_max-mid-later-rotation": (5, 6, (2 * 6 + 3, 3 * 6 + 1, None), {}, {}),
    "t_max-below-ell": (4, 8, (3, 5), {}, {}),
    "t_max-not-a-multiple-of-ell": (4, 6, (7, 3 * 6 + 2), {}, {}),
    "blocks-split-by-cell-cap": (3, 8, (13, 4 * 8 + 5), {}, dict(_SEGMENT_EDGES=5 * 6)),
    "one-round-blocks": (3, 8, (3 * 8 + 1,), {}, dict(_SEGMENT_EDGES=1)),
    "c_connected-split-by-cell-cap": (6, 10, (25, None), dict(schedule_kind="c_connected", c=2),
                                      dict(_SEGMENT_EDGES=7 * 18)),
    "blocking-split-by-cell-cap": (4, 6, (8, 5 * 6 + 3), dict(schedule_kind="blocking"),
                                   dict(_SEGMENT_EDGES=4 * 12)),
    "segments-split-by-cell-cap": (3, 8, (13, 4 * 8 + 5), {}, dict(_SEGMENT_EDGES=2 * 6)),
    "one-round-segments": (4, 6, (9, None), dict(schedule_kind="c_connected", c=2),
                           dict(_SEGMENT_EDGES=1)),
    "n1": (1, 6, (3, 9, 2 * 6 + 4), {}, {}),
}


@pytest.mark.parametrize("name", sorted(RBAR_SEGMENT_CASES))
def test_rbar_blocks_match_both_oracles(name, monkeypatch):
    n, ell, horizons, sched, edges = RBAR_SEGMENT_CASES[name]
    cfg = hn.ExperimentConfig(protocol="rbar", trials=1, n=n, seed=31 + len(name), ell=ell,
                              beta=0.1, **sched)
    tc = hn.trial_config(cfg, 0)
    for constant, value in edges.items():
        monkeypatch.setattr(eng, constant, value)
    for t_max in horizons:
        short = replace(tc, t_max=t_max or tc.t_max)
        got = eng.run_trial(short)
        assert_matches_reference(short, got)
        assert_same_trace(scalar_rotation_run(short), got)


def freeze_round(tc, ref=None):
    """The first round after which no round can change the state, from the
    oracles (ref is reference_run(tc), run here if not given) and graph_at
    alone; None if the horizon ends first.  rbar freezes once every agent holds the same
    vectors; the others once every agent is active and has heard from every
    agent, and (rbard) every counter is equal."""
    ref = ref or reference_run(tc)
    if tc.protocol == "rbar":
        return next((t for t, pairs in enumerate(ref[2], 1) if all(
            (x == pairs[0][0]).all() and (y == pairs[0][1]).all() for x, y in pairs)), None)
    counters = ref[0].counters
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


def expected_frozen_at(tc, f):
    """The engine's frozen_at for a freeze_round f: rbar's shows at the wrap
    that follows it, and it is None past the horizon."""
    if f is not None and tc.protocol == "rbar":
        f = -(-f // tc.params.ell) * tc.params.ell
    return f if f is not None and f <= tc.t_max else None


def assert_shared_after_the_freeze(got):
    """After frozen_at every agent's final vectors and the vectors of every
    agent that decides later are one read-only pair; a trial that ends
    before it keeps a pair per agent."""
    distinct = {(id(s.x_vec), id(s.y_vec)): (s.x_vec, s.y_vec) for s in got.final_states}
    if got.frozen_at is None:
        assert len(distinct) == got.n
        return
    (x, y), = distinct.values()
    assert not x.flags.writeable and not y.flags.writeable
    later = []
    if got.decision_rounds is not None:
        later = [got.decision_vectors[v] for v in np.flatnonzero(got.decision_rounds > got.frozen_at)]
    assert all(a is x and b is y for a, b in later)


@pytest.mark.parametrize("protocol,kind", PAIRS, ids=[f"{p}-{k}" for p, k in PAIRS])
def test_the_frozen_tail_matches_the_oracles(protocol, kind, monkeypatch):
    # The same trial to its default horizon and to the round before, at and
    # after the freeze, whose vectors are those of the longer run at that
    # round; a horizon that ends before the freeze never freezes.  rbar runs
    # in segments of 3 live rounds and stops at the wrap after the freeze;
    # it never freezes on blocking, whose even columns never mix.
    n, ell = 5, 6 if kind == "blocking" else 7
    tc = hn.trial_config(pair_config(protocol, kind, n, 0, ell, 4), 0)
    f = freeze_round(tc)
    assert (f is None) == ((protocol, kind) == ("rbar", "blocking"))
    if (protocol, kind) == ("rbar", "csc"):  # mid-rotation, and mid-segment
        assert f % ell != 0 and f % ell % 3 != 0
    monkeypatch.setattr(eng, "_SEGMENT_EDGES", 3 * tc.schedule.edges_per_round)
    horizons = [b for b in (f - 1, f, f + 1) if 1 <= b <= tc.t_max] if f else []
    for v in [tc] + [replace(tc, t_max=b) for b in horizons]:
        got = eng.run_trial(v)
        assert_matches_reference(v, got, horizons if v is tc else ())
        if protocol == "rbar":
            assert_same_trace(scalar_rotation_run(v), got)
        assert got.frozen_at == expected_frozen_at(v, f)
        if protocol != "min":
            assert_shared_after_the_freeze(got)
    if (protocol, kind) == ("rbard", "delayed"):  # agents decide before and after the freeze
        rounds = eng.run_trial(tc).decision_rounds
        assert (rounds <= f).any() and (rounds > f).any()


# Drawn configs at 2 <= n <= 8: every accepted (protocol, kind) pair and its
# parameter, staggered starts for rbard, a small pinned ell and beta, a
# horizon that may end before, at or after the freeze, and segments of a
# few edges up to the engine's own size.
@settings(max_examples=200, deadline=None)
@given(pair=st.sampled_from(PAIRS), n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       s_max=st.integers(0, 4), ell=st.integers(1, 4), beta=st.sampled_from([0.02, 0.1, 0.5]),
       param=st.integers(1, 3), t_max=st.integers(1, 80),
       edges=st.one_of(st.integers(1, 64), st.just(eng._SEGMENT_EDGES)))
def test_the_engine_matches_the_reference_loop_on_drawn_configs(pair, n, seed, s_max, ell, beta,
                                                                 param, t_max, edges):
    protocol, kind = pair
    ell = 2 * ell if kind == "blocking" else ell  # blocking rotates over an even ell
    cfg = replace(pair_config(protocol, kind, n, seed, ell, s_max, beta, param), t_max=t_max)
    tc = hn.trial_config(cfg, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eng, "_SEGMENT_EDGES", edges)
        got = eng.run_trial(tc)
    ref = assert_matches_reference(tc, got)
    assert got.frozen_at == expected_frozen_at(tc, freeze_round(tc, ref))


def test_rounds_after_the_freeze_are_not_drawn(monkeypatch):
    drawn = []
    in_edges, in_lists = gr.DynamicSchedule.in_edges, gr.DynamicSchedule.in_lists
    # min on csc at n=32 reads every round up to its last reach-set growth
    # and none after it, each from its in-neighbour lists, building no graph.
    tc = hn.trial_config(hn.ExperimentConfig(protocol="min", trials=1, n=32, seed=3), 0)
    f = freeze_round(tc)
    monkeypatch.setattr(gr.DynamicSchedule, "in_edges",
                        lambda sched, rounds: drawn.extend(rounds) or in_edges(sched, rounds))
    monkeypatch.setattr(gr.DynamicSchedule, "in_lists",
                        lambda sched, t: drawn.append(t) or in_lists(sched, t))
    monkeypatch.setattr(gr.DynamicSchedule, "graph_at",
                        lambda sched, t: pytest.fail(f"run_trial built round {t}'s graph"))
    assert eng.run_trial(tc).frozen_at == f
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
    tc = hn.trial_config(pair_config(protocol, "csc", 5, 7, 6, 3, beta=beta), 0)
    assert tc.params.beta == beta
    if protocol == "rbard":
        assert len(set(tc.start_rounds)) > 1  # staggered starts
    assert eng._offsets(eng._new_trace(tc))[2][0].dtype == width
    got = eng.run_trial(tc)
    assert_matches_reference(tc, got, (1, tc.t_max // 2))  # the machines' vectors are int64
    kept = [a for s in got.final_states for a in (s.x_vec, s.y_vec)]
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
    assert (got.decision_rounds > f).all() and got.frozen_at == f
    assert tail["r_estimate"] == 1 and tail["rbard_size_estimate"] <= 1 and sum(tail.values()) <= 2
    assert_matches_reference(tc, got)
    assert_shared_after_the_freeze(got)


# The engine builds a set's row when an agent first holds it, and rbard
# reads x only at a decision and at the end of the horizon.  These cases
# run past the drawn configs' n <= 8, with rbard's staggered starts.
def read_path_config(protocol, kind, n, seed, t_max=None):
    tc = hn.trial_config(pair_config(protocol, kind, n, seed, 8, 6), 0)
    return replace(tc, t_max=t_max or tc.t_max)


def assert_matches_reference_with_frozen_at(tc, horizons=()):
    """assert_matches_reference, with frozen_at of tc and of each horizon
    against the reference loop's freeze round, which the function returns."""
    got = eng.run_trial(tc)
    f = freeze_round(tc, assert_matches_reference(tc, got, horizons))
    assert got.frozen_at == expected_frozen_at(tc, f)
    for b in horizons:
        short = replace(tc, t_max=b)
        assert eng.run_trial(short).frozen_at == expected_frozen_at(short, f)
    return got, f


@pytest.mark.parametrize("kind,n,seed", [("delayed", 12, 0), ("ring", 20, 0), ("delayed", 24, 1),
                                         ("ring", 32, 3), ("delayed", 32, 0)])
def test_rbard_agents_deciding_before_the_freeze_match_the_reference_loop(kind, n, seed):
    # An agent that decides before the freeze takes its x row mid-run, from
    # the set it holds then; the others decide after.
    tc = read_path_config("rbard", kind, n, seed, t_max=6 * n)
    assert len(set(tc.start_rounds)) > 1
    got, f = assert_matches_reference_with_frozen_at(tc)
    rounds = got.decision_rounds
    assert f is not None and ((rounds > 0) & (rounds <= f)).any() and (rounds > f).any()


@pytest.mark.parametrize("kind,n,seed", [("ring", 20, 0), ("delayed", 24, 1)])
def test_rbard_takes_a_full_set_x_row_once(kind, n, seed, monkeypatch):
    # A full set's x row, the minimum of every agent's initial x row, is
    # taken once a trial: the decisions and the final pairs share it.
    full_rows = []

    class Counted(np.ndarray):
        def min(self, *args, **kw):
            full_rows.append(len(self) == n)
            return self.view(np.ndarray).min(*args, **kw)

    offsets = eng._offsets
    monkeypatch.setattr(eng, "_offsets", lambda trace: (
        (got := offsets(trace))[0], got[1], (got[2][0].view(Counted), got[2][1])))
    tc = read_path_config("rbard", kind, n, seed, t_max=6 * n)
    trace = eng.run_trial(tc)
    assert trace.frozen_at is not None and (trace.decision_rounds > trace.frozen_at).any()
    assert full_rows.count(True) == 1


def minimum_calls(tc, monkeypatch):
    """How many np.minimum calls one engine run of tc makes: one for each
    in-neighbour row folded into the row of a reach set new that round."""
    calls = []
    minimum = np.minimum
    with monkeypatch.context() as mp:
        mp.setattr(np, "minimum", lambda *args, **kw: calls.append(1) or minimum(*args, **kw))
        eng.run_trial(tc)
    return len(calls)


# minimum_calls of the full runs below.  A new set is built from the
# previous round's rows, both of r's matrices in one call, and only from
# in-neighbours that add initial rows; folding every new initial row, one
# matrix at a time, would take 394, 936, 86 and 205 calls.
MINIMUM_CALLS = {
    ("r", "csc"): 81,
    ("r", "c_connected"): 178,
    ("rbard", "csc"): 80,
    ("rbard", "c_connected"): 183,
}


@pytest.mark.parametrize("protocol", ["min", "r", "rbard"])
@pytest.mark.parametrize("kind,n", [("csc", 16), ("c_connected", 24)])
def test_horizons_ending_before_the_freeze_match_the_reference_loop(protocol, kind, n, monkeypatch):
    # Every horizon up to the round before the freeze ends with every
    # agent's final rows, which for rbard's x are taken then.  min keeps no
    # rows.
    tc = read_path_config(protocol, kind, n, 3 + n, t_max=4 * n)
    f = freeze_round(tc)
    assert f is not None and f > 3
    assert minimum_calls(tc, monkeypatch) == MINIMUM_CALLS.get((protocol, kind), 0)
    assert_matches_reference_with_frozen_at(tc, range(1, f))


# min numbers its reach-set bits by input rank, ties in agent order, and
# reads its estimate off a set's lowest bit.  Ties (signed zeros among
# them), inputs rising and falling in agent order, and drawn inputs at
# sizes either side of 64 bits, on csc and on the ring, whose slow growth
# gives horizons that end before the freeze.
MIN_INPUTS = {
    "equal": lambda n: (0.25,) * n,
    "signed-zeros": lambda n: tuple((0.0, -0.0, 0.5)[u % 3] for u in range(n)),
    "rising": lambda n: tuple(u / n for u in range(n)),
    "falling": lambda n: tuple(1 - u / n for u in range(n)),
    "drawn": lambda n: None,
}


@pytest.mark.parametrize("kind", ["csc", "ring"])
@pytest.mark.parametrize("inputs,n", [(name, 12) for name in MIN_INPUTS if name != "drawn"]
                         + [("drawn", n) for n in (63, 64, 65, 70)])
def test_min_on_rank_ordered_reach_sets_matches_the_reference_loop(inputs, n, kind):
    cfg = replace(pair_config("min", kind, n, n, 0, 0), inputs=MIN_INPUTS[inputs](n))
    tc = replace(hn.trial_config(cfg, 0), t_max=n + 2)
    _, f = assert_matches_reference_with_frozen_at(tc, (2, n // 2))
    assert f is not None and (kind != "ring" or f == n - 1)


# r and rbard build a new set's row from in-neighbour rows, and rbard reads
# x off the set's bits; at sizes either side of 64 bits, on csc and on the
# ring, whose horizons end before the freeze.
@pytest.mark.parametrize("protocol", ["r", "rbard"])
@pytest.mark.parametrize("kind", ["csc", "ring"])
@pytest.mark.parametrize("n", [63, 64, 65, 70])
def test_r_and_rbard_at_sizes_either_side_of_64_bits_match_the_reference_loop(n, kind, protocol):
    tc = replace(hn.trial_config(pair_config(protocol, kind, n, n, 4, 0), 0), t_max=n + 2)
    _, f = assert_matches_reference_with_frozen_at(tc, (2, n // 2))
    assert f is not None and (kind != "ring" or f == n - 1)


def test_r_on_complete_estimates_once_a_trial(monkeypatch):
    # On complete every reach set is full after round 1, so every agent
    # holds the full set's one row and the agents share one estimate of it.
    calls = []
    r_estimate = proto.r_estimate
    monkeypatch.setattr(proto, "r_estimate", lambda *args: calls.append(args) or r_estimate(*args))
    cfg = pair_config("r", "complete", 6, 5, 8, 0)
    got = [eng.run_trial(hn.trial_config(cfg, k)) for k in range(2)]
    monkeypatch.undo()
    assert len(calls) == 2 and all(trace.frozen_at == 1 for trace in got)
    for trace in got:
        assert_matches_reference(trace.config, trace)
