import math
import re

import numpy as np
import pytest

from avgcons import engine as eng
from avgcons import graph as gr
from avgcons import harness as hn
from avgcons import sampling as sp
from avgcons.quantization import dequantize_array, quantize_array
from avgcons.seeds import stable_seed


class ScriptedStream:
    """Stand-in stream feeding predetermined uniforms."""

    def __init__(self, *values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)

    def uniforms(self, k):
        return np.array([self.uniform() for _ in range(k)])


# ---------------------------------------------------------------------------
# exponential sampling


def test_inverse_cdf_with_injected_uniform():
    assert sp.sample_exponentials(1.0, 1, ScriptedStream(math.exp(-2.0)))[0] == pytest.approx(2.0)
    assert sp.sample_exponentials(2.0, 1, ScriptedStream(math.exp(-2.0)))[0] == pytest.approx(1.0)


def test_sample_exponential_rejects_bad_rate():
    with pytest.raises(ValueError):
        sp.sample_exponentials(0.0, 1, ScriptedStream(0.5))
    with pytest.raises(ValueError):
        sp.sample_exponentials(-1.0, 3, ScriptedStream(0.5, 0.5, 0.5))


def test_empirical_mean_at_rate_four():
    stream = sp.RngStream(101, purpose="mean-check")
    xs = sp.sample_exponentials(4.0, 100_000, stream)
    assert 0.2475 <= xs.mean() <= 0.2525


def test_batch_sampling_is_bit_identical_to_scalar_calls():
    s1 = sp.RngStream(5, trial=1, agent=2, purpose="p")
    s2 = sp.RngStream(5, trial=1, agent=2, purpose="p")
    batch = sp.sample_exponentials(3.0, 16, s1)
    singles = np.concatenate([sp.sample_exponentials(3.0, 1, s2) for _ in range(16)])
    assert np.array_equal(batch, singles)


# ---------------------------------------------------------------------------
# streams


def test_identical_keys_reproduce_identical_sequences():
    a = sp.RngStream(9, trial=3, agent=1, purpose="init")
    b = sp.RngStream(9, trial=3, agent=1, purpose="init")
    assert np.array_equal(a.uniforms(100), b.uniforms(100))


def test_distinct_agents_and_purposes_give_distinct_sequences():
    base = sp.RngStream(9, trial=3, agent=1, purpose="init").uniforms(8)
    other_agent = sp.RngStream(9, trial=3, agent=2, purpose="init").uniforms(8)
    other_purpose = sp.RngStream(9, trial=3, agent=1, purpose="inputs").uniforms(8)
    assert not np.array_equal(base, other_agent)
    assert not np.array_equal(base, other_purpose)


# Parts at and either side of each 32-bit word boundary, 0 among them.
KEY_PARTS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 7]


@pytest.mark.parametrize("purpose", ["init", "inputs", "starts", "protocol", "verify-min",
                                     "verify-tail-50-0.1-1.0-None"])
def test_streams_are_seeded_from_the_plain_key_list(purpose):
    # numpy's SeedSequence of [seed, trial, agent, purpose hash], which is
    # what pins every trace's draws.
    for seed in KEY_PARTS:
        for trial in (0, 1, 2**32):
            for agent in (0, 1, 2**32):
                key = [seed, trial, agent, stable_seed("purpose", purpose)]
                want = np.random.default_rng(np.random.SeedSequence(entropy=key)).random(8)
                got = sp.RngStream(seed, trial=trial, agent=agent, purpose=purpose).uniforms(8)
                assert np.array_equal(got, np.maximum(want, 2.0**-53)), key


def test_a_negative_key_part_is_refused():
    for key in ({"seed": -1}, {"seed": 0, "trial": -1}, {"seed": 0, "agent": -2**40}):
        with pytest.raises(ValueError, match="non-negative"):
            sp.RngStream(**key)


def test_uniforms_live_in_half_open_unit_interval():
    us = sp.RngStream(77).uniforms(10_000)
    assert (us > 0).all() and (us <= 1).all()


class _ZeroGenerator:
    """A generator whose every draw is its exact 0."""

    def random(self, k=None, out=None):
        if out is None:
            return np.zeros(k)
        out.fill(0.0)
        return out


def test_an_exact_zero_uniform_draws_as_the_least_nonzero_one():
    # The generator gives 0 with probability 2**-53 a value.  Its draw must
    # be that of the least nonzero output, 2**-53: positive, normal for
    # quantize_array, and inside the span exponent_bound allows.
    p = sp.params_rbar(0.4, 0.4, 0.0, 1.0)
    width = p.b - p.a + 1.0
    stream = sp.RngStream(3)
    stream._gen = _ZeroGenerator()
    least = quantize_array(sp.sample_exponentials(width, 1, ScriptedStream(1.0 - 2.0**-53)), p.beta)[0]
    for rate in (1.0, width):
        xs = sp.sample_exponentials(rate, 4, stream)
        assert (xs > 0).all()
        assert xs.tobytes() == sp.sample_exponentials(rate, 4, ScriptedStream(*[2.0**-53] * 4)).tobytes()
        assert quantize_array(xs, p.beta).max() - least + 1 <= eng.exponent_bound(p)


@pytest.mark.parametrize("protocol", ["r", "rbar", "rbard"])
def test_an_agent_drawing_only_exact_zeros_gets_the_greatest_draw_in_every_entry(protocol,
                                                                                  monkeypatch):
    # run_trial draws each agent's uniforms straight into its rows of the
    # block; agent 1's generator gives only the exact 0.
    class ZeroForAgent1(sp.RngStream):
        def __post_init__(self):
            super().__post_init__()
            if self.agent == 1:
                self._gen = _ZeroGenerator()

    monkeypatch.setattr(eng, "RngStream", ZeroForAgent1)
    n, inputs = 3, (0.2, 0.7, 1.0)
    p = sp.ProtocolParams(0.3, 0.2, 0.0, 1.0, ell=6, beta=None if protocol == "r" else 0.1,
                          size_bound=n if protocol == "rbard" else None)
    cfg = eng.TrialConfig(protocol, p, inputs, gr.DynamicSchedule("csc", n, seed=1), (1,) * n,
                          t_max=4, seed=5)
    x, y = eng.run_trial(cfg).init_raw[:, 1]
    for row, rate in ((x, inputs[1] - p.a + 1.0), (y, 1.0)):
        assert row.tobytes() == np.full(p.ell, sp.draw_range(rate)[1]).tobytes()


def test_agent_streams_are_empirically_uncorrelated():
    xs = sp.RngStream(55, agent=0, purpose="init").uniforms(100_000)
    ys = sp.RngStream(55, agent=1, purpose="init").uniforms(100_000)
    rho = np.corrcoef(xs, ys)[0, 1]
    assert abs(rho) < 0.02


# ---------------------------------------------------------------------------
# parameter formulas


def test_params_r_rejects_out_of_range():
    with pytest.raises(ValueError):
        sp.params_r(0.5, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        sp.params_r(0.3, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        sp.params_r(0.3, 0.2, 2.0, 1.0)


def test_params_r_boundary_case():
    # 27 ln(4/0.499) / 0.499^2 = 225.69..., ceiling 226.
    p = sp.params_r(0.499, 0.499, 1.0, 1.0)
    assert p.ell == 226
    assert p.beta is None


def test_params_r_headline_case():
    # 27 ln(20) * 4 / 0.09 = 3594.878..., ceiling 3595.
    assert sp.params_r(0.3, 0.2, 0.0, 1.0).ell == 3595


def test_params_rbar_values():
    p = sp.params_rbar(0.4, 0.4, 0.0, 1.0)
    # 108 ln(20) * 4 / 0.16 = 8088.477..., ceiling 8089.
    assert p.ell == 8089
    assert p.beta == pytest.approx(0.4 / 16.0, rel=1e-12)
    assert p.beta == pytest.approx(0.025, rel=1e-12)


def test_params_rbar_width_scaling_is_quadratic_before_ceiling():
    def raw(b):
        return 108 * math.log(8 / 0.4) * (b + 1.0) ** 2 / 0.4**2

    assert raw(3.0) / raw(1.0) == pytest.approx(4.0, rel=1e-12)


def test_params_rbard_takes_the_larger_branch():
    p = sp.params_rbard(0.4, 0.3, 0.0, 1.0, 12)
    # branches: ceil(108 ln(80) * 4 / 0.16) = 11832, ceil(243 ln(2880)) = 1936.
    assert p.ell == 11832
    assert p.beta == pytest.approx(0.025, rel=1e-12)

    # At N = 10^6 the firing branch is ceil(243 ln(2e13)) = 7443, still
    # below the accuracy branch; at N = 10^10 it reaches 11919 and wins.
    assert sp.params_rbard(0.4, 0.3, 0.0, 1.0, 10**6).ell == 11832
    assert sp.params_rbard(0.4, 0.3, 0.0, 1.0, 10**10).ell == 11919


def test_params_rbard_small_bound_keeps_accuracy_branch():
    for eps in (0.1, 0.2, 0.3):
        p = sp.params_rbard(eps, 0.3, 0.0, 1.0, 1)
        first = math.ceil(108 * math.log(24 / 0.3) * 4 / eps**2)
        assert p.ell == first


def test_protocol_params_validation():
    with pytest.raises(ValueError):
        sp.ProtocolParams(epsilon=0.3, eta=0.2, a=0.0, b=1.0, ell=0)
    with pytest.raises(ValueError):
        sp.ProtocolParams(epsilon=0.3, eta=0.2, a=0.0, b=1.0, ell=5, beta=-0.1)


# The grid's one rule, 1 < 1 + beta < inf, refuses inf and NaN, for which
# beta <= 0 is false, and 1e-17, as 1 + 1e-17 is 1 in floats.
@pytest.mark.parametrize("beta", [math.inf, math.nan, 1e-17, -0.1],
                         ids=["inf", "nan", "1e-17", "negative"])
def test_params_reject_a_beta_off_the_grid(beta):
    with pytest.raises(ValueError, match="beta must be > 0 with 1 \\+ beta > 1 in floats, and finite"):
        sp.ProtocolParams(0.3, 0.2, 0.0, 1.0, ell=4, beta=beta)
    with pytest.raises(ValueError, match="beta must be > 0 with 1 \\+ beta > 1 in floats, and finite"):
        sp.ConcentrationParams(ell=4, rate=1.0, alpha=0.2, beta=beta)


# ---------------------------------------------------------------------------
# the range table

HALF_BELOW = math.nextafter(0.5, 0.0)
# Each field's in-range edge and the first value past it.
EDGES = {**dict.fromkeys(("epsilon", "eta", "alpha"), (HALF_BELOW, 0.5)), "rate": (5e-324, 0.0),
         "slack_sigmas": (0.0, -5e-324), **dict.fromkeys(("seed", "s_max"), (0, -1)),
         **dict.fromkeys(("n", "t", "trials", "ell", "size_bound", "t_max", "reps", "delay", "c",
                          "product_cases", "c_cases"), (1, 0)),
         # 1 + 2**-53 rounds to 1 in floats; the next float up does not.
         "beta": (math.nextafter(2**-53, 1.0), 2**-53),
         "start_rounds": ((1, 1, 1), (0, 1, 1)),
         "inputs": ((0.1, 0.2, 0.3), (0.1, 0.2, math.inf))}


def experiment(name, value, build=lambda obj: hn.ExperimentConfig(**obj)):
    """An rbard ExperimentConfig, or what build makes of its JSON, with name set to value."""
    kind = {"delay": "delayed", "c": "c_connected"}.get(name, "csc")
    return build({"protocol": "rbard", "trials": 1, "n": 3, "size_bound": 3, "schedule_kind": kind,
                  name: value})


def trial(name, value):
    """A min TrialConfig on a 3-ring, with name set to value."""
    fields = {"inputs": (0.1, 0.2, 0.3), "start_rounds": (1, 1, 1), "t_max": 3, "seed": 0, name: value}
    return eng.TrialConfig("min", None, schedule=gr.DynamicSchedule("fixed", 3, graph=gr.ring_graph(3)),
                           **fields)


def sites():
    """(field, site, call(value)) for every field of RANGES and every type or
    function that takes it."""
    out = []
    for name in ("epsilon", "eta", "slack_sigmas", "seed", "s_max", "trials", "n", "ell", "beta",
                 "size_bound", "t_max", "delay", "c", "inputs"):
        out.append((name, "ExperimentConfig", lambda v, name=name: experiment(name, v)))
        # JSON holds inputs as a list; the config reads it back as a tuple.
        out.append((name, "experiment_from_json", lambda v, name=name: experiment(
            name, list(v) if name == "inputs" else v, hn.experiment_from_json)))
    protocol = dict(epsilon=0.3, eta=0.2, a=0.0, b=1.0)
    for name in ("epsilon", "eta", "ell", "beta", "size_bound"):
        out.append((name, "ProtocolParams",
                    lambda v, name=name: sp.ProtocolParams(**{**protocol, "ell": 4, name: v})))
    for name in ("epsilon", "eta"):
        for formula in (sp.params_r, sp.params_rbar):
            out.append((name, formula.__name__,
                        lambda v, name=name, f=formula: f(**{**protocol, name: v})))
    for name in ("epsilon", "eta", "size_bound"):
        out.append((name, "params_rbard",
                    lambda v, name=name: sp.params_rbard(**{**protocol, "size_bound": 3, name: v})))
    for name in ("ell", "rate", "alpha", "beta"):
        out.append((name, "ConcentrationParams", lambda v, name=name: sp.ConcentrationParams(
            **{"ell": 10, "rate": 1.0, "alpha": 0.1, name: v})))
    out.append(("beta", "quantize_array", lambda v: quantize_array([1.0], v)))
    out.append(("beta", "dequantize_array", lambda v: dequantize_array([0, 1], v)))
    # No draws, so a rate at the edge does not overflow -ln(U)/rate.
    out.append(("rate", "sample_exponentials", lambda v: sp.sample_exponentials(v, 0, sp.RngStream(0))))
    out.append(("reps", "empirical_tail", lambda v: sp.empirical_tail(
        sp.ConcentrationParams(ell=10, rate=1.0, alpha=0.1), v, sp.RngStream(0))))
    for name in ("seed", "t_max", "start_rounds", "inputs"):
        out.append((name, "TrialConfig", lambda v, name=name: trial(name, v)))
    out.append(("t_max", "check_trial_size",
                lambda v: eng.check_trial_size(eng.PROTOCOLS["min"], 3, v, None)))
    for name, kind in (("delay", "delayed"), ("c", "c_connected")):
        out.append((name, "flooding_length", lambda v, name=name: gr.flooding_length(3, **{name: v})))
        out.append((name, "DynamicSchedule",
                    lambda v, name=name, kind=kind: gr.DynamicSchedule(kind, 3, **{name: v})))
    out.append(("n", "make_graph", gr.make_graph))
    out.append(("n", "flooding_length", gr.flooding_length))
    out.append(("n", "DynamicSchedule", lambda v: gr.DynamicSchedule("csc", v)))
    schedule = gr.DynamicSchedule("csc", 3)
    out.append(("t", "graph_at", schedule.graph_at))
    out.append(("t", "in_edges", lambda v: schedule.in_edges((v, v + 1))))
    out.append(("c", "is_c_in_connected", lambda v: gr.is_c_in_connected(gr.complete_graph(3), v)))
    for name in ("product_cases", "c_cases"):
        out.append((name, "verify_graph_claims", lambda v, name=name: hn.verify_graph_claims(
            **{"product_cases": 1, "c_cases": 1, name: v})))
    return out


SITES = sites()


def test_every_field_of_the_range_table_is_checked_somewhere():
    assert {name for name, _, _ in SITES} == set(sp.RANGES) == set(EDGES)


@pytest.mark.parametrize("name,site,call", SITES, ids=[f"{site}-{name}" for name, site, _ in SITES])
def test_each_site_takes_the_edge_of_a_range_and_refuses_the_first_value_past_it(name, site, call):
    inside, outside = EDGES[name]
    call(inside)
    message = f"{name} must be {sp.RANGES[name][1]}, got {outside}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(outside)


# ---------------------------------------------------------------------------
# concentration checks


def test_empirical_tail_within_analytic_bound():
    cp = sp.ConcentrationParams(ell=100, rate=1.0, alpha=0.2)
    freq = sp.empirical_tail(cp, 10_000, sp.RngStream(7, purpose="tail"))
    bound = sp.chernoff_bound(100, 0.2)
    assert bound == pytest.approx(0.5272, abs=1e-3)
    assert freq <= bound


def test_empirical_tail_degenerate_single_sample():
    # One sample, tiny alpha: the event is almost sure, the bound vacuous.
    cp = sp.ConcentrationParams(ell=1, rate=1.0, alpha=0.01)
    freq = sp.empirical_tail(cp, 10_000, sp.RngStream(8, purpose="tail1"))
    assert freq >= 0.9
    assert freq <= sp.chernoff_bound(1, 0.01) <= 2.0


def test_empirical_tail_rounded_variant_same_bound():
    cp = sp.ConcentrationParams(ell=100, rate=3.0, alpha=0.2, beta=0.1)
    freq = sp.empirical_tail(cp, 10_000, sp.RngStream(9, purpose="tail-q"))
    assert freq <= 0.5273


def test_min_of_exponentials_behaves_like_summed_rate():
    stream = sp.RngStream(31, purpose="lemma-min")
    mean, surv = sp.min_exponential_stats(
        [1.0, 2.0, 3.0, 4.0, 5.0], [0.02, 0.05, 0.1], 100_000, stream
    )
    assert abs(mean - 1.0 / 15.0) <= 0.01 / 15.0
    for freq, x in zip(surv, [0.02, 0.05, 0.1]):
        assert abs(freq - math.exp(-15.0 * x)) <= 0.01
