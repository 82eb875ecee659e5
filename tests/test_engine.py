import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcons import engine as eng
from avgcons import graph as gr
from avgcons import harness as hn
from avgcons import protocol as proto
from avgcons.protocol import NULL_MESSAGE
from avgcons.quantization import quantize_array
from avgcons.sampling import ProtocolParams, RngStream, params_rbard, sample_exponentials


def fixed(g):
    return gr.DynamicSchedule("fixed", g.n, graph=g)


def cfg_for(protocol, schedule, inputs, t_max, seed=1, ell=8, beta=None,
            start_rounds=None, a=0.0, b=1.0, size_bound=None):
    params = None
    if protocol != "min":
        params = ProtocolParams(
            epsilon=0.3, eta=0.2, a=a, b=b, ell=ell, beta=beta, size_bound=size_bound
        )
    n = schedule.n
    return eng.TrialConfig(
        protocol=protocol,
        params=params,
        inputs=tuple(inputs),
        schedule=schedule,
        start_rounds=tuple(start_rounds) if start_rounds else (1,) * n,
        t_max=t_max,
        seed=seed,
    )


def synthetic_trace(estimates, theta, decisions=None):
    est = np.asarray(estimates, dtype=float)
    t_max, n = est.shape
    protocol = "r" if decisions is None else "rbard"
    cfg = cfg_for(protocol, fixed(gr.loops_only(n)), (0.0,) * n, t_max,
                  beta=0.1, size_bound=n)
    return eng.TrialTrace(
        config=cfg,
        theta=theta,
        estimates=est,
        decisions=None if decisions is None else np.asarray(decisions, dtype=float),
    )


# ---------------------------------------------------------------------------
# run_trial basics


def test_min_on_ring_reaches_global_min_at_round_three():
    cfg = cfg_for("min", fixed(gr.ring_graph(4)), (4.0, 3.0, 2.0, 1.0), t_max=6)
    trace = eng.run_trial(cfg)
    assert (trace.estimates[2] == 1.0).all()
    assert (trace.estimates[2:] == 1.0).all()
    assert not (trace.estimates[1] == 1.0).all()


def test_single_agent_is_stationary_from_round_one():
    loop = fixed(gr.loops_only(1))
    min_trace = eng.run_trial(cfg_for("min", loop, (0.7,), t_max=4))
    assert (min_trace.estimates == 0.7).all()
    r_trace = eng.run_trial(cfg_for("r", loop, (0.7,), t_max=4))
    assert (r_trace.estimates == r_trace.estimates[0, 0]).all()


def test_identical_configs_give_bit_identical_traces():
    sched = gr.DynamicSchedule("csc", 5, seed=3)
    cfg = cfg_for("r", sched, (0.1, 0.3, 0.5, 0.7, 0.9), t_max=12, seed=9)
    t1, t2 = eng.run_trial(cfg), eng.run_trial(cfg)
    assert np.array_equal(t1.estimates, t2.estimates)
    assert all(
        np.array_equal(a.x_vec, b.x_vec)
        for a, b in zip(t1.final_states, t2.final_states)
    )
    assert t1.config.digest() == t2.config.digest()


def test_protocol_seed_does_not_touch_the_schedule():
    sched = gr.DynamicSchedule("csc", 4, seed=42)
    before = [sched.graph_at(t) for t in range(1, 9)]
    inputs = (0.2, 0.4, 0.6, 0.8)
    eng.run_trial(cfg_for("r", sched, inputs, t_max=8, seed=1))
    eng.run_trial(cfg_for("r", sched, inputs, t_max=8, seed=2))
    assert [sched.graph_at(t) for t in range(1, 9)] == before


def test_self_delivery_on_loops_only_keeps_inboxes_nonempty():
    cfg = cfg_for("min", fixed(gr.loops_only(3)), (3.0, 1.0, 2.0), t_max=4)
    trace = eng.run_trial(cfg)  # would raise on an empty inbox
    assert (trace.estimates[-1] == [3.0, 1.0, 2.0]).all()


def test_snapshots_follow_end_of_round_convention():
    # After one round on the ring, agent v holds min of itself and v-1.
    cfg = cfg_for("min", fixed(gr.ring_graph(3)), (1.0, 5.0, 7.0), t_max=1)
    trace = eng.run_trial(cfg)
    assert list(trace.estimates[0]) == [1.0, 1.0, 5.0]


def test_config_validation():
    sched = fixed(gr.ring_graph(3))
    with pytest.raises(ValueError):
        cfg_for("min", sched, (1.0, 2.0), t_max=3)  # wrong input length
    with pytest.raises(ValueError):
        cfg_for("r", sched, (0.1, 0.2, 0.3), t_max=3, start_rounds=(1, 2, 1))
    with pytest.raises(ValueError):
        eng.TrialConfig(
            protocol="r", params=None, inputs=(0.1, 0.2, 0.3),
            schedule=sched, start_rounds=(1, 1, 1), t_max=3, seed=0,
        )
    with pytest.raises(ValueError):
        cfg_for("min", sched, (1.0, 2.0, 3.0), t_max=0)
    for inputs in [(1.0, math.nan, 3.0), (1.0, -math.inf, 3.0)]:
        with pytest.raises(ValueError, match=fr"^inputs must be finite, got \(1\.0, {inputs[1]}, 3\.0\)$"):
            cfg_for("min", sched, inputs, t_max=3)
    # Finite inputs whose sum overflows: the mean's own rule.
    with pytest.raises(ValueError, match="inputs must be finite, as must their mean"):
        with np.errstate(over="ignore"):
            cfg_for("min", sched, (1e308, 1e308, -1e308), t_max=3)
    with pytest.raises(ValueError, match="beta"):
        cfg_for("rbar", sched, (0.1, 0.2, 0.3), t_max=3)
    with pytest.raises(ValueError, match="protocol 'min' takes no params"):
        replace(cfg_for("min", sched, (1.0, 2.0, 3.0), t_max=3),
                params=ProtocolParams(epsilon=0.3, eta=0.2, a=0.0, b=1.0, ell=8))


@pytest.mark.parametrize("size_bound", [2, None])
def test_a_deciding_trial_whose_size_bound_is_below_n_is_refused(size_bound):
    # rbard at n=5 with N=2 ran, every agent deciding at round 8; the paper
    # assumes N >= n.
    params = replace(params_rbard(0.4, 0.3, 0.0, 1.0, 2), size_bound=size_bound)
    with pytest.raises(ValueError, match=f"^rbard needs size_bound >= n, got {size_bound} < 5$"):
        eng.TrialConfig("rbard", params, (0.5,) * 5, gr.DynamicSchedule("csc", 5), (1,) * 5,
                        t_max=40, seed=0)


def test_a_shorter_horizon_gives_the_vectors_at_its_round():
    # Schedules are keyed by round and draws by agent, so the run to round 1
    # is the first round of the run to round 6, which freezes after round 2.
    sched = gr.DynamicSchedule("csc", 3, seed=5)
    cfg = cfg_for("r", sched, (0.2, 0.5, 0.8), t_max=6)
    trace = eng.run_trial(cfg)
    short = eng.run_trial(replace(cfg, t_max=1))
    assert np.array_equal(short.estimates, trace.estimates[:1])
    for t in (short, trace):
        for u, s in enumerate(t.final_states):
            assert s.x_vec.shape == (8,) and s.y_vec.shape == (8,)
            assert t.estimates[-1, u] == -1.0 + s.y_vec.sum() / s.x_vec.sum()
    assert trace.frozen_at == 2 and short.frozen_at is None
    assert not all(np.array_equal(s.x_vec, f.x_vec)
                   for s, f in zip(short.final_states, trace.final_states))


# ---------------------------------------------------------------------------
# stationarity invariants


def test_r_under_csc_is_stationary_from_n_minus_1():
    sched = gr.DynamicSchedule("csc", 5, seed=21)
    inputs = (0.1, 0.2, 0.5, 0.7, 0.95)
    trace = eng.run_trial(cfg_for("r", sched, inputs, t_max=16, ell=32))
    settled = trace.estimates[4:]
    assert (settled == settled[0, 0]).all()
    min_x = trace.init_raw[0].min(axis=0)
    min_y = trace.init_raw[1].min(axis=0)
    for s in trace.final_states:
        assert np.array_equal(s.x_vec, min_x) and np.array_equal(s.y_vec, min_y)
    assert settled[0, 0] == -1.0 + min_y.sum() / min_x.sum()


def test_rbar_under_csc_is_stationary_from_ell_n():
    ell, n = 6, 3
    sched = gr.DynamicSchedule("csc", n, seed=8)
    cfg = cfg_for("rbar", sched, (0.2, 0.5, 0.8), t_max=ell * (n + 1), ell=ell, beta=0.05)
    trace = eng.run_trial(cfg)
    min_x, min_y = quantize_array(trace.init_raw, cfg.params.beta).min(axis=1)
    for s in eng.run_trial(replace(cfg, t_max=ell * n)).final_states:
        assert np.array_equal(s.x_vec, min_x) and np.array_equal(s.y_vec, min_y)
    assert trace.frozen_at <= ell * n
    tail = trace.estimates[ell * n - 1 :]
    assert (tail == tail[0, 0]).all()


def test_r_under_c_connected_schedule_settles_within_ceil_n_over_c():
    # denser per-round connectivity buys a proportional speedup: a product
    # of ceil(n/c) c-in-connected graphs is already complete
    n, c = 6, 2
    sched = gr.DynamicSchedule("c_connected", n, seed=37, c=c)
    inputs = tuple((i + 0.5) / n for i in range(n))
    trace = eng.run_trial(cfg_for("r", sched, inputs, t_max=9, ell=16))
    bound = math.ceil(n / c)
    tail = trace.estimates[bound - 1 :]
    assert (tail == tail[0, 0]).all()
    min_x = trace.init_raw[0].min(axis=0)
    for s in trace.final_states:
        assert np.array_equal(s.x_vec, min_x)


def test_rbar_entry_i_is_agreed_by_round_i_plus_n_minus_1_ell():
    # Entry i (1-based) is touched at rounds i, i+ell, ...; after n-1
    # touches it holds the global minimum everywhere.
    ell, n = 4, 3
    sched = gr.DynamicSchedule("csc", n, seed=31)
    rounds = tuple(i + (n - 1) * ell for i in range(1, ell + 1))
    cfg = cfg_for("rbar", sched, (0.15, 0.5, 0.85), t_max=max(rounds), ell=ell, beta=0.1)
    trace = eng.run_trial(cfg)
    min_x, min_y = quantize_array(trace.init_raw, cfg.params.beta).min(axis=1)
    for idx, t in enumerate(rounds):
        for s in eng.run_trial(replace(cfg, t_max=t)).final_states:
            assert s.x_vec[idx] == min_x[idx]
            assert s.y_vec[idx] == min_y[idx]


def test_r_estimate_is_exactly_the_sum_ratio_of_its_own_vectors():
    sched = gr.DynamicSchedule("csc", 4, seed=19)
    trace = eng.run_trial(cfg_for("r", sched, (0.1, 0.4, 0.6, 0.9), t_max=6, ell=16))
    a = trace.config.params.a
    for x, s in zip(trace.estimates[-1], trace.final_states, strict=True):
        assert x == a - 1.0 + s.y_vec.sum() / s.x_vec.sum()


def test_min_estimates_never_increase():
    sched = gr.DynamicSchedule("csc", 5, seed=23)
    trace = eng.run_trial(cfg_for("min", sched, (0.9, 0.2, 0.5, 0.7, 0.4), t_max=8))
    diffs = np.diff(trace.estimates, axis=0)
    assert (diffs <= 0).all()


def test_min_with_equal_inputs_converges_at_round_one_in_the_exact_band():
    cfg = cfg_for("min", fixed(gr.ring_graph(3)), (2.0, 2.0, 2.0), t_max=4)
    trace = eng.run_trial(cfg)
    assert eng.convergence_time(trace, 0.0) == 1


@pytest.mark.parametrize("n", [4, 6, 8])
def test_r_under_delay_3_schedule_is_stationary_from_3_n_minus_1(n):
    sched = gr.DynamicSchedule("delayed", n, seed=n, delay=3)
    inputs = tuple((i + 0.5) / n for i in range(n))
    bound = 3 * (n - 1)
    trace = eng.run_trial(cfg_for("r", sched, inputs, t_max=2 * bound, ell=16))
    tail = trace.estimates[bound - 1 :]
    assert (tail == tail[0, 0]).all()
    min_x = trace.init_raw[0].min(axis=0)
    for s in trace.final_states:
        assert np.array_equal(s.x_vec, min_x)


def test_rbard_records_decisions_and_counters():
    sched = gr.DynamicSchedule("csc", 3, seed=13)
    cfg = cfg_for("rbard", sched, (0.2, 0.5, 0.8), t_max=20, ell=64, beta=0.02,
                  size_bound=6)
    trace = eng.run_trial(cfg)
    # synchronous starts, so every counter snapshot equals the round index
    rounds = np.arange(1, 21)[:, None]
    assert (trace.counters == rounds).all()
    assert (trace.decision_rounds > 0).all()
    report = eng.check_decision_spec(trace, 0.3)
    assert report.termination and report.irrevocability
    assert report.last_decision_round == int(trace.decision_rounds.max())
    for u, (xv, yv) in trace.decision_vectors.items():
        t = int(trace.decision_rounds[u])
        assert not math.isnan(trace.decisions[t - 1, u])
        assert xv.shape == (64,)


def test_rbard_decisions_are_its_estimates():
    sched = gr.DynamicSchedule("csc", 3, seed=13)
    cfg = cfg_for("rbard", sched, (0.2, 0.5, 0.8), t_max=12, ell=64, beta=0.02,
                  size_bound=6, start_rounds=(1, 3, 1))
    trace = eng.run_trial(cfg)
    assert np.isnan(trace.decisions[0]).all() and not np.isnan(trace.decisions[-1]).any()
    assert np.array_equal(trace.decisions, trace.estimates, equal_nan=True)


# ---------------------------------------------------------------------------
# convergence_time


def convergence_oracle(trace, epsilon):
    """Quadratic scan over every suffix."""
    for t_star in range(1, trace.t_max + 1):
        ok = True
        for t in range(t_star, trace.t_max + 1):
            row = trace.estimates[t - 1]
            if np.isnan(row).any() or (np.abs(row - trace.theta) > epsilon).any():
                ok = False
                break
        if ok:
            return t_star
    return None


def test_convergence_time_requires_staying_in_band():
    est = np.full((10, 1), 0.5)
    est[:4] = 2.0  # enters at t=5
    est[6] = 2.0  # leaves at t=7
    trace = synthetic_trace(est, theta=0.5)
    assert eng.convergence_time(trace, 0.1) == 8
    assert convergence_oracle(trace, 0.1) == 8


def test_convergence_time_none_when_horizon_ends_outside():
    trace = synthetic_trace(np.full((5, 2), 9.0), theta=0.0)
    assert eng.convergence_time(trace, 0.5) is None


def test_convergence_time_one_when_always_inside():
    trace = synthetic_trace(np.full((5, 2), 0.49), theta=0.5)
    assert eng.convergence_time(trace, 0.1) == 1


def test_convergence_time_matches_quadratic_oracle_on_random_traces():
    rng = np.random.default_rng(17)
    for _ in range(60):
        est = rng.normal(0.0, 1.0, size=(rng.integers(2, 12), rng.integers(1, 4)))
        trace = synthetic_trace(est, theta=0.0)
        assert eng.convergence_time(trace, 1.0) == convergence_oracle(trace, 1.0)


def test_convergence_time_treats_unset_estimates_as_outside():
    est = np.full((4, 1), 0.5)
    est[0] = np.nan
    trace = synthetic_trace(est, theta=0.5)
    assert eng.convergence_time(trace, 0.2) == 2


# ---------------------------------------------------------------------------
# decision spec checks


def decision_spec_oracle(trace, epsilon):
    """The predicates agent by agent, from each agent's written rows."""
    d = trace.decisions
    set_mask = ~np.isnan(d)
    irrevocability = True
    for u in range(trace.n):
        rows = np.flatnonzero(set_mask[:, u])
        if len(rows) == 0:
            continue
        tail = d[rows[0]:, u]
        if np.isnan(tail).any() or not (tail == d[rows[0], u]).all():
            irrevocability = False
    first_rounds = [int(np.flatnonzero(set_mask[:, u])[0]) + 1
                    for u in range(trace.n) if set_mask[:, u].any()]
    return eng.DecisionReport(
        termination=bool(set_mask[-1].all()),
        irrevocability=irrevocability,
        validity=bool((np.abs(d[set_mask] - trace.theta) <= epsilon).all()),
        last_decision_round=max(first_rounds) if first_rounds else None,
    )


VALUES = [0.0, -0.0, 0.25, 0.5, 1.0]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 8), st.integers(1, 5), st.sampled_from(VALUES),
       st.sampled_from([0.0, 0.25, 0.6]))
def test_decision_spec_matches_the_per_agent_loop(data, t_max, n, theta, epsilon):
    # Each agent writes a decision from some round on, or never (first ==
    # t_max), then some cells are rewritten, erased or written early.
    d = np.full((t_max, n), np.nan)
    for u in range(n):
        d[data.draw(st.integers(0, t_max)):, u] = data.draw(st.sampled_from(VALUES))
        for _ in range(data.draw(st.integers(0, 2))):
            d[data.draw(st.integers(0, t_max - 1)), u] = data.draw(st.sampled_from([np.nan, *VALUES]))
    trace = synthetic_trace(np.zeros((t_max, n)), theta=theta, decisions=d)
    assert eng.check_decision_spec(trace, epsilon) == decision_spec_oracle(trace, epsilon)


def test_decision_spec_termination_fails_when_someone_never_decides():
    d = np.full((6, 2), np.nan)
    d[3:, 0] = 0.5
    trace = synthetic_trace(np.zeros((6, 2)), theta=0.5, decisions=d)
    report = eng.check_decision_spec(trace, 0.1)
    assert not report.termination
    assert report.irrevocability
    assert report.validity
    assert report.last_decision_round == 4


def test_decision_spec_validity_checks_the_band():
    d = np.full((4, 2), np.nan)
    d[2:, :] = [[0.5, 0.95]]
    trace = synthetic_trace(np.zeros((4, 2)), theta=0.5, decisions=d)
    report = eng.check_decision_spec(trace, 0.1)
    assert report.termination
    assert not report.validity


def test_decision_spec_rewritten_decision_breaks_irrevocability():
    d = np.full((5, 1), np.nan)
    d[1:3] = 0.5
    d[3:] = 0.6  # rewritten
    trace = synthetic_trace(np.zeros((5, 1)), theta=0.5, decisions=d)
    assert not eng.check_decision_spec(trace, 0.5).irrevocability


def test_decision_spec_erased_decision_breaks_irrevocability():
    d = np.full((5, 1), np.nan)
    d[1] = 0.5  # set once, then unset again
    trace = synthetic_trace(np.zeros((5, 1)), theta=0.5, decisions=d)
    assert not eng.check_decision_spec(trace, 0.5).irrevocability


# ---------------------------------------------------------------------------
# message accounting


def test_message_bits_min_and_r():
    ring = fixed(gr.ring_graph(3))
    min_trace = eng.run_trial(cfg_for("min", ring, (1.0, 2.0, 3.0), t_max=4))
    report = eng.message_bits(min_trace)
    assert (report.per_round == 64 * 3).all()
    assert report.per_message_max == 64

    r_trace = eng.run_trial(cfg_for("r", ring, (0.1, 0.5, 0.9), t_max=4, ell=7))
    report = eng.message_bits(r_trace)
    assert report.per_message_max == 2 * 7 * 64
    assert (report.per_round == 3 * 2 * 7 * 64).all()


def test_message_bits_rbar_uses_exponent_range_and_cursor_width():
    sched = gr.DynamicSchedule("csc", 3, seed=2)
    trace = eng.run_trial(cfg_for("rbar", sched, (0.2, 0.5, 0.8), t_max=8, ell=4, beta=0.5))
    report = eng.message_bits(trace)
    exps = quantize_array(trace.init_raw, trace.config.params.beta)
    lo, hi = int(exps.min()), int(exps.max())
    entry_bits = math.ceil(math.log2(hi - lo + 1))
    assert report.per_message_max == 2 + 2 * entry_bits  # ceil(log2 ell=4) = 2
    assert (report.per_round == 3 * report.per_message_max).all()
    assert report.distinct_exponents == len(np.unique(exps))


def test_message_bits_rbard_charges_heartbeats_one_bit():
    sched = gr.DynamicSchedule("csc", 3, seed=4)
    cfg = cfg_for("rbard", sched, (0.2, 0.5, 0.8), t_max=16, ell=32, beta=0.05,
                  size_bound=6, start_rounds=(1, 3, 1))
    trace = eng.run_trial(cfg)
    report = eng.message_bits(trace)
    c_max = int(trace.counters.max())
    counter_bits = math.ceil(math.log2(c_max + 1))
    exps = quantize_array(trace.init_raw, trace.config.params.beta)
    entry_bits = math.ceil(math.log2(int(exps.max()) - int(exps.min()) + 1))
    full = counter_bits + 2 * 32 * entry_bits
    # rounds 1-2: one passive agent -> 2 full messages + 1 heartbeat bit
    assert report.per_round[0] == 2 * full + 1
    assert report.per_round[1] == 2 * full + 1
    assert report.per_round[2] == 3 * full
    assert report.per_message_max == full
    assert report.distinct_exponents == len(np.unique(exps))


@pytest.mark.parametrize("protocol", ["rbar", "rbard"])
def test_message_bits_of_one_shared_exponent(protocol):
    # Every initial exponent the same (hi == lo): entries cost 0 bits.
    n, ell, t_max = 3, 4, 5
    cfg = cfg_for(protocol, fixed(gr.complete_graph(n)), (0.2, 0.5, 0.8), t_max=t_max, ell=ell,
                  beta=0.5, size_bound=n if protocol == "rbard" else None)
    trace = eng.TrialTrace(config=cfg, theta=0.5, estimates=np.full((t_max, n), np.nan),
                           init_offsets=np.zeros((2, n, ell), dtype=np.uint8), init_span=(-3, -3))
    if protocol == "rbard":
        trace.counters = np.zeros((t_max, n), dtype=np.int64)
    report = eng.message_bits(trace)
    assert report.distinct_exponents == 1
    # rbar sends its cursor (2 bits for ell=4); rbard a 0-bit counter.
    assert report.per_message_max == (2 if protocol == "rbar" else 0)
    assert (report.per_round == n * report.per_message_max).all()


def _width(m):
    """The integer oracle of a width: the least b with 2**b > m."""
    b = 0
    while 2**b <= m:
        b += 1
    return b


def _around_powers(ks):
    return sorted({m for k in ks for m in (2**k - 1, 2**k, 2**k + 1)})


def _bits_trace(protocol, ell, span, c_max=0):
    """A hand-built trace of one agent whose exponents span lo..lo+span and
    whose counters (rbard only) peak at c_max."""
    t_max = 2
    cfg = cfg_for(protocol, fixed(gr.complete_graph(1)), (0.5,), t_max=t_max, ell=ell, beta=0.5,
                  size_bound=1 if protocol == "rbard" else None)
    trace = eng.TrialTrace(config=cfg, theta=0.5, estimates=np.full((t_max, 1), np.nan),
                           init_offsets=np.zeros((2, 1, ell), dtype=np.uint8), init_span=(-7, span - 7))
    if protocol == "rbard":
        trace.counters = np.array([[0], [c_max]], dtype=np.int64)
    return trace


# Each width is that of 0..m for the largest value m it must hold: the
# exponent span hi - lo, rbar's cursor ell - 1 and rbard's counter C_max.
# Around each power of two, one more value costs one more bit; at m = 2**k
# with k >= 49 the float formula ceil(log2(m + 1)) gives k.
@pytest.mark.parametrize("span", _around_powers([0, 1, 2, 3, 7, 8, 15, 16]))
def test_message_bits_widths_of_a_span_at_powers_of_two(span):
    report = eng.message_bits(_bits_trace("rbar", 3, span))
    assert report.per_message_max == _width(2) + 2 * _width(span)
    report = eng.message_bits(_bits_trace("rbard", 3, span, c_max=5))
    assert report.per_message_max == _width(5) + 2 * 3 * _width(span)


@pytest.mark.parametrize("ell", _around_powers([1, 2, 3, 7, 8, 15, 16]))
def test_message_bits_cursor_width_at_powers_of_two(ell):
    report = eng.message_bits(_bits_trace("rbar", ell, 6))
    assert report.per_message_max == _width(ell - 1) + 2 * _width(6)
    assert (report.per_round == report.per_message_max).all()


@pytest.mark.parametrize("c_max", [0] + _around_powers([1, 2, 8, 31, 32, 48, 49, 52, 53, 62]))
def test_message_bits_counter_width_at_powers_of_two(c_max):
    report = eng.message_bits(_bits_trace("rbard", 2, 1, c_max=c_max))
    assert report.per_message_max == _width(c_max) + 2 * 2 * _width(1)


# ---------------------------------------------------------------------------
# horizon defaults and trace dump


# Every (protocol, schedule kind) pair the config accepts at n=5, delay=3,
# c=2, ell=10 and (rbard) s_max=2: the default horizon, 4x the round bound
# (n-1 = 4, delay*(n-1) = 12, ceil(n/c) = 3, ell*n = 50, s_max+2n = 12),
# and the stationary bound, None where the schedule or protocol gives no
# such guarantee.  min takes no params, so it cannot run on blocking.
BOUND_TABLE = [
    ("min", "csc", 16, 4),
    ("min", "ring", 16, 4),
    ("min", "complete", 16, 4),
    ("min", "delayed", 48, 12),
    ("min", "c_connected", 12, 3),
    ("r", "csc", 16, 4),
    ("r", "ring", 16, 4),
    ("r", "complete", 16, 4),
    ("r", "delayed", 48, 12),
    ("r", "c_connected", 12, 3),
    ("r", "blocking", 16, None),
    ("rbar", "csc", 200, 50),
    ("rbar", "ring", 200, 50),
    ("rbar", "complete", 200, 50),
    ("rbar", "delayed", 200, None),
    ("rbar", "c_connected", 200, 50),
    ("rbar", "blocking", 200, None),
    ("rbard", "csc", 48, None),
    ("rbard", "ring", 48, None),
    ("rbard", "complete", 48, None),
    ("rbard", "delayed", 48, None),
    ("rbard", "c_connected", 48, None),
    ("rbard", "blocking", 48, None),
]


@pytest.mark.parametrize("protocol,kind,horizon,stationary", BOUND_TABLE)
def test_default_horizon_scales_with_bounds(protocol, kind, horizon, stationary):
    cfg = hn.ExperimentConfig(
        protocol=protocol, trials=1, n=5, s_max=2 if protocol == "rbard" else 0, schedule_kind=kind,
        **{k: v for k, v in (("ell", 10), ("beta", 0.1), ("size_bound", 8))
           if k in eng.PROTOCOLS[protocol].fields},
        **{k: v for k, v in (("delay", 3), ("c", 2)) if k == gr.SCHEDULE_KINDS[kind][0]},
    )
    tc = hn.trial_config(cfg, 0)
    assert 4 * eng.PROTOCOLS[tc.protocol].bound(tc.n, tc.schedule.sweep, tc.params, tc.s_max) == horizon
    assert tc.t_max == horizon
    assert hn.stationary_bound(tc) == stationary


@pytest.mark.parametrize(
    "schedule,r_bound,rbar_bound",
    [
        (fixed(gr.ring_graph(5)), 4, 50),
        (gr.DynamicSchedule("delayed", 5, seed=2, delay=3), 12, None),
        (gr.DynamicSchedule("blocking", 5, ell=10), None, None),
    ],
    ids=["ring", "delayed", "blocking"],
)
def test_stationary_bound_reads_the_trial_schedule(schedule, r_bound, rbar_bound):
    # n=5, ell=10: n-1 = 4 (ring), delay*(n-1) = 12 (delayed), ell*n = 50 (rbar);
    # None where the schedule defeats the guarantee.
    inputs = (0.1, 0.3, 0.5, 0.7, 0.9)
    assert hn.stationary_bound(cfg_for("r", schedule, inputs, t_max=1, ell=10)) == r_bound
    rbar = cfg_for("rbar", schedule, inputs, t_max=1, ell=10, beta=0.1)
    assert hn.stationary_bound(rbar) == rbar_bound


def test_trace_jsonl_dump_roundtrips():
    cfg = cfg_for("min", fixed(gr.ring_graph(3)), (1.0, 2.0, 3.0), t_max=5)
    trace = eng.run_trial(cfg)
    buf = io.StringIO()
    eng.dump_trace_jsonl(trace, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    header, rows = lines[0], lines[1:]
    assert header["protocol"] == "min" and header["n"] == 3
    assert header["theta"] == pytest.approx(2.0)
    assert len(rows) == 5
    assert rows[0]["t"] == 1 and len(rows[0]["agents"]) == 3
    assert rows[0]["msg_bits"] == 64 * 3
    assert rows[4]["agents"][0] == {"x": 1.0, "d": None, "C": None}


class _SameUniform:
    """A stream whose every uniform is u."""

    def __init__(self, u: float) -> None:
        self.u = u

    def uniforms(self, k: int) -> np.ndarray:
        return np.full(k, self.u)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(1e-6, 1.0), width=st.floats(1.0, 1e6),
       us=st.lists(st.integers(1, 2**53 - 1), max_size=3),
       shares=st.lists(st.floats(0.0, 1.0), max_size=3))
def test_exponent_bound_holds_the_extreme_draws(beta, width, us, shares):
    # The size rule counts exponent_bound(params) exponents before anything
    # is drawn, so every draw's exponent must lie in a span that wide: the
    # extremes U = 2**-53 and 1 - 2**-53 at rates 1 and b - a + 1, and some
    # uniforms and inputs between them, drawn as init_samples draws.
    p = ProtocolParams(0.3, 0.2, 0.0, width - 1.0, ell=1, beta=beta)
    thetas = [p.a, p.b] + [min(p.b, p.a + f * (p.b - p.a)) for f in shares]
    draws = [sample_exponentials(theta - p.a + 1.0, 1, _SameUniform(u))[0]
             for u in [2.0**-53, 1.0 - 2.0**-53] + [k * 2.0**-53 for k in us] for theta in thetas]
    ks = quantize_array(np.array(draws), beta)
    assert int(ks.max() - ks.min()) + 1 <= eng.exponent_bound(p)


# A trial draws every agent's x and y into one (2, n, ell) block and keeps a
# quantized protocol's exponents as narrow offsets k - lo: each half's offsets
# plus lo are quantize_array's exponents of that half, and (lo, hi) is their
# range.
@pytest.mark.parametrize("protocol", ["rbar", "rbard"])
@pytest.mark.parametrize("beta,width", [(0.5, np.uint8), (1e-3, np.uint16)], ids=["uint8", "uint16"])
def test_the_draws_are_halves_of_one_block_and_the_exponents_are_quantize_array(protocol, beta, width):
    n, ell = 4, 50
    cfg = cfg_for(protocol, gr.DynamicSchedule("csc", n, seed=3), (0.1, 0.4, 0.6, 0.9), t_max=6,
                  ell=ell, beta=beta, size_bound=n if protocol == "rbard" else None)
    trace = eng.run_trial(cfg)
    block, offsets, (lo, hi) = trace.init_raw, trace.init_offsets, trace.init_span
    assert (block.dtype, block.shape) == (np.float64, (2, n, ell)) and block.flags.c_contiguous
    assert (offsets.dtype, offsets.shape) == (width, (2, n, ell))
    exponents = [quantize_array(half, beta) for half in block]
    for ks, half in zip(exponents, offsets):
        assert np.add(half, lo, dtype=np.int64).tobytes() == ks.tobytes()
    assert (lo, hi) == (min(int(ks.min()) for ks in exponents), max(int(ks.max()) for ks in exponents))


@pytest.mark.parametrize("protocol", ["r", "rbar"])
def test_each_agent_draws_into_the_block_what_init_samples_draws(protocol):
    # The engine writes every agent's uniforms into its rows of the block and
    # takes the draws there, in one pass; init_samples, the per-agent
    # reference, must give the same bytes, with inputs at a and at b too.
    n, a, b = 4, -1.0, 2.0
    cfg = cfg_for(protocol, gr.DynamicSchedule("csc", n, seed=2), (a, b, 0.3, -0.25), t_max=3,
                  seed=9, ell=50, beta=None if protocol == "r" else 0.05, a=a, b=b)
    cfg = replace(cfg, trial=2)
    block = eng.run_trial(cfg).init_raw
    for u, theta in enumerate(cfg.inputs):
        stream = RngStream(cfg.seed, trial=cfg.trial, agent=u, purpose="init")
        assert block[:, u].tobytes() == np.stack(proto.init_samples(theta, cfg.params, stream)).tobytes()


# The size rule bounds what a trial holds at once.  With ell = 20,000 the
# vectors outweigh everything else, and tracemalloc's peak stays within the
# rule's count plus 1 MiB for buffers of fixed size (quantize_offsets'
# pieces).  On csc three rounds end before any freeze, so every agent keeps
# its own final vectors; forty reach it for r and rbard.  On complete every
# reach set is full after round 1.  On the ring every agent's set grows every
# round, so r and rbard hold two rounds of rows, one new row an agent.
@pytest.mark.parametrize("protocol", ["r", "rbar", "rbard"])
@pytest.mark.parametrize("t_max", [3, 40])
@pytest.mark.parametrize("kind", ["csc", "complete", "ring"])
def test_a_trial_holds_no_more_than_the_size_rule_counts(protocol, t_max, kind):
    cfg = hn.ExperimentConfig(protocol=protocol, trials=1, n=12, seed=3, epsilon=0.3, eta=0.3,
                              ell=20_000, size_bound=12 if protocol == "rbard" else None,
                              schedule_kind=kind)
    tc = replace(hn.trial_config(cfg, 0), t_max=t_max)
    tracemalloc.start()
    try:
        eng.run_trial(tc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak > 16 * tc.n * tc.params.ell > 1 << 20  # the draws alone
    assert peak <= eng.trial_bytes(eng.PROTOCOLS[protocol], tc.n, tc.t_max, tc.params) + (1 << 20)
