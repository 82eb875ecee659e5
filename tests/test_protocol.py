import math

import numpy as np
import pytest

from avgcons import protocol as pr
from avgcons.quantization import dequantize_array, quantize_array
from avgcons.sampling import ProtocolParams, RngStream


class ScriptedStream:
    def __init__(self, *values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)

    def uniforms(self, k):
        return np.array([self.uniform() for _ in range(k)])


def small_params(ell=4, beta=None, a=0.0, b=1.0, epsilon=0.3, eta=0.2, size_bound=None):
    return ProtocolParams(
        epsilon=epsilon, eta=eta, a=a, b=b, ell=ell, beta=beta, size_bound=size_bound
    )


# ---------------------------------------------------------------------------
# min


def test_min_with_only_own_message_keeps_value():
    s = pr.min_init(3.0)
    s = pr.min_apply(s, [pr.min_outbox(s)])
    assert s.x == 3.0


def test_min_takes_minimum_of_inbox():
    s = pr.min_init(3.0)
    s = pr.min_apply(s, [pr.MinMessage(3.0), pr.MinMessage(1.0), pr.MinMessage(2.0)])
    assert s.x == 1.0


def test_min_rejects_empty_inbox():
    with pytest.raises(ValueError):
        pr.min_apply(pr.min_init(0.0), [])


def test_min_on_ring_propagates_global_minimum_in_n_minus_1_rounds():
    inputs = (4.0, 3.0, 2.0, 1.0)
    states = [pr.min_init(v) for v in inputs]
    for _ in range(3):
        outs = [pr.min_outbox(s) for s in states]
        # ring: v hears v-1 and itself
        states = [
            pr.min_apply(states[v], [outs[(v - 1) % 4], outs[v]]) for v in range(4)
        ]
    assert [s.x for s in states] == [1.0, 1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# r


def test_r_init_at_lower_endpoint_samples_at_rate_one():
    p = small_params(ell=1)
    s = pr.r_init(*pr.init_samples(0.0, p, ScriptedStream(math.exp(-3.0), math.exp(-1.0))), p)
    assert s.x_vec[0] == pytest.approx(3.0)  # rate theta - a + 1 = 1
    assert s.x is None


def test_r_init_injected_uniforms_scale_by_rate():
    p = small_params(ell=2, a=0.0, b=1.0)
    stream = ScriptedStream(*(math.exp(-v) for v in (2.0, 4.0, 1.0, 1.0)))
    s = pr.r_init(*pr.init_samples(1.0, p, stream), p)
    assert np.allclose(s.x_vec, [1.0, 2.0])  # rate 2
    assert np.allclose(s.y_vec, [1.0, 1.0])  # rate 1


def test_r_init_rejects_input_outside_range():
    with pytest.raises(ValueError):
        pr.init_samples(1.5, small_params(), RngStream(0))


def test_r_apply_single_agent_estimate_arithmetic():
    p = small_params(ell=2, a=1.0, b=2.0)
    s = pr.RState(np.array([0.5, 0.5]), np.array([1.0, 1.0]), None, p)
    s = pr.r_apply(s, [pr.r_outbox(s)])
    assert s.x == pytest.approx(2.0)  # a - 1 + 2/1


def test_r_apply_takes_entrywise_minimum():
    p = small_params(ell=2)
    s = pr.RState(np.array([9.0, 9.0]), np.array([9.0, 9.0]), None, p)
    inbox = [
        pr.RMessage(np.array([1.0, 4.0]), np.array([9.0, 9.0])),
        pr.RMessage(np.array([2.0, 3.0]), np.array([9.0, 9.0])),
    ]
    s = pr.r_apply(s, inbox)
    assert np.array_equal(s.x_vec, [1.0, 3.0])


def test_r_apply_rejects_length_mismatch():
    p = small_params(ell=3)
    s = pr.RState(np.ones(3), np.ones(3), None, p)
    with pytest.raises(ValueError):
        pr.r_apply(s, [pr.RMessage(np.ones(2), np.ones(3))])


def test_r_vectors_never_increase():
    p = small_params(ell=6)
    stream = RngStream(4, agent=0)
    s = pr.r_init(*pr.init_samples(0.5, p, stream), p)
    rng = np.random.default_rng(0)
    for _ in range(10):
        msg = pr.RMessage(rng.exponential(size=6), rng.exponential(size=6))
        nxt = pr.r_apply(s, [pr.r_outbox(s), msg])
        assert (nxt.x_vec <= s.x_vec).all() and (nxt.y_vec <= s.y_vec).all()
        s = nxt


# ---------------------------------------------------------------------------
# rbar


def test_rbar_cursor_walks_entries_and_wraps():
    p = small_params(ell=3, beta=0.5)
    s = pr.rbar_init(*pr.init_samples(0.4, p, RngStream(1, agent=0)), p)
    seen = []
    for t in range(6):
        msg = pr.rbar_outbox(s)
        seen.append(msg.index)
        s = pr.rbar_apply(s, [msg])
        if t == 1:
            assert s.x is None  # not wrapped yet
    assert seen == [0, 1, 2, 0, 1, 2]
    assert s.x is not None


def test_rbar_single_entry_updates_estimate_every_round():
    p = small_params(ell=1, beta=0.5)
    s = pr.rbar_init(*pr.init_samples(0.4, p, RngStream(2, agent=0)), p)
    for _ in range(3):
        s = pr.rbar_apply(s, [pr.rbar_outbox(s)])
        assert s.x is not None


def test_rbar_estimate_matches_dequantized_sums_at_wrap():
    p = small_params(ell=4, beta=0.25)
    s = pr.rbar_init(*pr.init_samples(0.7, p, RngStream(3, agent=0)), p)
    for _ in range(4):
        s = pr.rbar_apply(s, [pr.rbar_outbox(s)])
    expected = p.a - 1.0 + (
        dequantize_array(s.y_vec, p.beta).sum() / dequantize_array(s.x_vec, p.beta).sum()
    )
    assert s.x == expected


def test_rbar_apply_only_touches_cursor_entry():
    p = small_params(ell=3, beta=0.5)
    s = pr.RbarState(np.array([5, 5, 5]), np.array([5, 5, 5]), 0, None, p)
    nxt = pr.rbar_apply(s, [pr.RbarMessage(0, -2, 1)])
    assert list(nxt.x_vec) == [-2, 5, 5]
    assert list(nxt.y_vec) == [1, 5, 5]
    assert nxt.cursor == 1


def test_rbar_rejects_cursor_mismatch():
    p = small_params(ell=3, beta=0.5)
    s = pr.rbar_init(*pr.init_samples(0.4, p, RngStream(5, agent=0)), p)
    with pytest.raises(ValueError):
        pr.rbar_apply(s, [pr.RbarMessage(1, 0, 0)])


def test_rbar_entries_never_increase():
    p = small_params(ell=3, beta=0.2)
    s = pr.rbar_init(*pr.init_samples(0.5, p, RngStream(44, agent=0)), p)
    rng = np.random.default_rng(1)
    for t in range(9):
        i = s.cursor
        msg = pr.RbarMessage(i, int(rng.integers(-20, 20)), int(rng.integers(-20, 20)))
        nxt = pr.rbar_apply(s, [pr.rbar_outbox(s), msg])
        assert (nxt.x_vec <= s.x_vec).all() and (nxt.y_vec <= s.y_vec).all()
        s = nxt


def test_rbar_three_agents_agree_with_offline_minima_by_ell_n_rounds():
    p = small_params(ell=4, beta=0.1)
    states = [pr.rbar_init(*pr.init_samples(th, p, RngStream(6, agent=u)), p)
              for u, th in enumerate((0.1, 0.5, 0.9))]
    min_x = np.minimum.reduce([s.x_vec for s in states])
    min_y = np.minimum.reduce([s.y_vec for s in states])
    for _ in range(12):  # ell * n, under a complete graph every round
        outs = [pr.rbar_outbox(s) for s in states]
        states = [pr.rbar_apply(s, outs) for s in states]
    for s in states:
        assert np.array_equal(s.x_vec, min_x)
        assert np.array_equal(s.y_vec, min_y)
    assert len({s.x for s in states}) == 1


# ---------------------------------------------------------------------------
# rbard


def rbard_state(x_exp, y_exp, counter=0, start_round=1, rounds_done=0, d=None, beta=1.0, a=0.0):
    p = small_params(ell=len(x_exp), beta=beta, a=a)
    return pr.RbarDState(
        x_vec=np.array(x_exp, dtype=np.int64),
        y_vec=np.array(y_exp, dtype=np.int64),
        counter=counter,
        n_est=None,
        d=d,
        start_round=start_round,
        rounds_done=rounds_done,
        params=p,
    )


def test_rbard_null_in_inbox_resets_counter():
    s = rbard_state([0] * 4, [0] * 4, counter=9)
    own = pr.rbard_outbox(s)
    nxt = pr.rbard_apply(s, [own, pr.NULL_MESSAGE])
    assert nxt.counter == 0


def test_rbard_counter_is_one_plus_min_without_nulls():
    s = rbard_state([0] * 4, [0] * 4, counter=9)
    inbox = [
        pr.RbardMessage(4, s.x_vec, s.y_vec),
        pr.RbardMessage(7, s.x_vec, s.y_vec),
    ]
    assert pr.rbard_apply(s, inbox).counter == 5


def test_rbard_decides_when_counter_beats_size_estimate():
    # beta=1, y exponents -1: represented values 0.5, sum 2, n_est = 4/2 = 2;
    # counter becomes 4 > 3 = 1.5 * n_est, so the agent decides.
    s = rbard_state([0] * 4, [-1] * 4, counter=3)
    nxt = pr.rbard_apply(s, [pr.rbard_outbox(s)])
    assert nxt.counter == 4
    assert nxt.n_est == pytest.approx(2.0)
    assert nxt.d == pytest.approx(0.0 - 1.0 + 2.0 / 4.0)


def test_rbard_decision_is_write_once():
    s = rbard_state([0] * 4, [-1] * 4, counter=3)
    s = pr.rbard_apply(s, [pr.rbard_outbox(s)])
    first = s.d
    assert first is not None
    lower = pr.RbardMessage(0, s.x_vec - 3, s.y_vec - 3)
    for _ in range(5):
        s = pr.rbard_apply(s, [pr.rbard_outbox(s), lower])
    assert s.d == first  # vectors moved, decision did not


def test_rbard_passive_agent_emits_null_and_ignores_inbox():
    s = rbard_state([5] * 4, [5] * 4, start_round=3)
    assert not s.active
    assert isinstance(pr.rbard_outbox(s), pr.NullMessage)
    nxt = pr.rbard_apply(s, [pr.RbardMessage(9, s.x_vec - 4, s.y_vec - 4)])
    assert np.array_equal(nxt.x_vec, s.x_vec)
    assert nxt.counter == 0 and nxt.rounds_done == 1
    assert not nxt.active
    nxt = pr.rbard_apply(nxt, [pr.NULL_MESSAGE])
    assert nxt.active  # round 3 is its start round
    assert isinstance(pr.rbard_outbox(nxt), pr.RbardMessage)


def test_rbard_vectors_never_increase():
    s = rbard_state([5] * 4, [5] * 4)
    rng = np.random.default_rng(9)
    for _ in range(8):
        msg = pr.RbardMessage(
            int(rng.integers(0, 9)),
            rng.integers(-10, 10, size=4),
            rng.integers(-10, 10, size=4),
        )
        nxt = pr.rbard_apply(s, [pr.rbard_outbox(s), msg])
        assert (nxt.x_vec <= s.x_vec).all() and (nxt.y_vec <= s.y_vec).all()
        s = nxt


def test_rbard_init_quantizes_the_raw_draws():
    p = small_params(ell=8, beta=0.3)
    s = pr.rbard_init(*pr.init_samples(0.25, p, RngStream(12, agent=1)), p)
    x_raw, y_raw = pr.init_samples(0.25, p, RngStream(12, agent=1))
    assert np.array_equal(s.x_vec, quantize_array(x_raw, p.beta))
    assert np.array_equal(s.y_vec, quantize_array(y_raw, p.beta))


# ---------------------------------------------------------------------------
# estimate accessor


def test_estimate_accessor_across_protocols():
    assert pr.estimate(pr.min_init(2.5)) == 2.5
    p = small_params(ell=2, beta=0.5)
    fresh_r = pr.RState(np.ones(2), np.ones(2), None, p)
    assert pr.estimate(fresh_r) is None
    rbar = pr.rbar_init(*pr.init_samples(0.4, p, RngStream(7, agent=0)), p)
    for _ in range(2):
        rbar = pr.rbar_apply(rbar, [pr.rbar_outbox(rbar)])
    assert pr.estimate(rbar) is not None
    undecided = rbard_state([0] * 4, [3] * 4)
    assert pr.estimate(undecided) is None
