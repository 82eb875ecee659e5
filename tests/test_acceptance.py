"""Acceptance suite: one test per headline guarantee, run at desk scale.

Every test prints one [PASS]/[FAIL] line (visible with `pytest -s` or in
the captured output report).  Statistical criteria carry the tolerated
failure probability plus three binomial sigmas of slack, so a correct
implementation passes deterministically under the fixed seeds used here.
"""
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from avgcons import graph as gr
from avgcons import quantization as qz
from avgcons.engine import run_trial
from avgcons.harness import (
    ExperimentConfig,
    build_params,
    evaluate_trial,
    monte_carlo,
    offline_minima,
    summary_from_records,
    trial_config,
    verify_bound_claims,
    verify_graph_claims,
)

SEED = 20250811
JOBS = 2


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")


def _slack(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


# ---------------------------------------------------------------------------
# 1-2: full-vector protocol under random per-round strongly connected graphs


def test_criterion_1_stationary_within_n_minus_1_rounds():
    t0 = time.perf_counter()
    fractions = {}
    for n in (4, 8, 16):
        cfg = ExperimentConfig(
            protocol="r", trials=100, n=n, seed=SEED + n,
            epsilon=0.3, eta=0.2, a=0.0, b=1.0, t_max=4 * (n - 1),
        )
        assert build_params(cfg).ell == 3595  # ceil(27 ln(4/eta) (b-a+1)^2 / eps^2)
        summary = monte_carlo(cfg, jobs=JOBS)
        fractions[n] = summary.claims["stationary_by_bound"]["observed"]
    elapsed = time.perf_counter() - t0
    ok = all(f == 1.0 for f in fractions.values()) and elapsed < 60.0
    _report(1, ok, f"estimates bit-identical and constant from n-1 "
                   f"(100/100 trials at n=4,8,16; {elapsed:.1f}s)")
    assert all(f == 1.0 for f in fractions.values())
    assert elapsed < 60.0


def test_criterion_2_accuracy_failure_rate():
    cfg = ExperimentConfig(
        protocol="r", trials=200, n=8, seed=SEED + 2,
        epsilon=0.3, eta=0.2, a=0.0, b=1.0, t_max=28,
    )
    summary = monte_carlo(cfg, jobs=JOBS)
    bound = 0.2 + _slack(0.2, 200)
    ok = summary.failure_fraction <= bound
    _report(2, ok, f"stationary estimate outside band in "
                   f"{summary.failure_fraction:.3f} of 200 trials (bound {bound:.3f})")
    assert ok


# ---------------------------------------------------------------------------
# 3-4: sampling concentration facts


def test_criterion_3_minimum_of_exponentials():
    results = [r for r in verify_bound_claims(SEED, reps=100)
               if r.name == "min_of_exponentials"]
    assert len(results) == 1
    _report(3, results[0].passed, results[0].detail)
    assert results[0].passed


def test_criterion_4_mean_deviation_bounds():
    results = [r for r in verify_bound_claims(SEED, reps=10_000)
               if r.name.startswith("tail_")]
    assert len(results) == 12  # 3 (ell, alpha) pairs x 2 rates x {plain, rounded}
    ok = all(r.passed for r in results)
    _report(4, ok, f"{sum(r.passed for r in results)}/12 empirical tails under "
                   "2 exp(-ell alpha^2 / 3) + slack")
    assert ok


# ---------------------------------------------------------------------------
# 5-6: quantized protocol, one shared 50-trial batch


RBAR_N = 6
RBAR_CFG = ExperimentConfig(
    protocol="rbar", trials=50, n=RBAR_N, seed=SEED + 5,
    epsilon=0.4, eta=0.4, a=0.0, b=1.0,
    t_max=8089 * (RBAR_N + 1),  # one full rotation past the ell*n bound
)


def _rbar_worker(trial: int) -> dict:
    # Every agent holds the same vectors from frozen_at on, and a column that
    # every agent holds at one value holds its offline minimum; ell*n is a
    # wrap, so frozen_at <= ell*n says every vector is at the minima by then.
    trace = run_trial(trial_config(RBAR_CFG, trial))
    rec = evaluate_trial(RBAR_CFG, trace)
    rec["vectors_stationary_at_bound"] = trace.frozen_at is not None and trace.frozen_at <= 8089 * RBAR_N
    rec["trial"] = trial
    return rec


@pytest.fixture(scope="module")
def rbar_records():
    params = build_params(RBAR_CFG)
    assert params.ell == 8089  # ceil(108 ln(8/eta) (b-a+1)^2 / eps^2)
    assert params.beta == 0.4 / 16.0  # eps / (8 (b-a+1)) = 0.025
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(_rbar_worker, range(RBAR_CFG.trials)))


def test_criterion_5_quantized_protocol_stationary_by_ell_n(rbar_records):
    stationary = sum(
        r["stationary_ok"] and r["vectors_stationary_at_bound"] for r in rbar_records
    )
    summary = summary_from_records(RBAR_CFG, rbar_records)
    acc_bound = 0.2 + _slack(0.2, 50)
    ok = stationary == 50 and summary.failure_fraction <= acc_bound
    _report(5, ok, f"stationary-and-agreed from ell*n in {stationary}/50 trials; "
                   f"inaccurate fraction {summary.failure_fraction:.3f} "
                   f"(bound {acc_bound:.3f})")
    assert stationary == 50
    assert summary.failure_fraction <= acc_bound


def test_criterion_6_quantization_level_budget(rbar_records):
    ok_fraction = np.mean([r["levels_ok"] for r in rbar_records])
    bound = 1.0 - 0.2 - _slack(0.2, 50)
    budget = rbar_records[0]["level_budget"]
    worst = max(r["distinct_exponents"] for r in rbar_records)
    ok = ok_fraction >= bound
    _report(6, ok, f"samples inside admissible interval and <= {budget} levels "
                   f"(worst observed {worst}) in {ok_fraction:.3f} of trials "
                   f"(bound {bound:.3f})")
    assert ok


# ---------------------------------------------------------------------------
# 7-8: deciding protocol


def test_criterion_7_decisions_within_smax_plus_2n():
    cfg = ExperimentConfig(
        protocol="rbard", trials=100, n=8, seed=SEED + 7,
        epsilon=0.4, eta=0.3, a=0.0, b=1.0, size_bound=12,
        s_max=5, t_max=2 * (5 + 16),
    )
    assert build_params(cfg).ell == 11832  # max of the two ceiling branches
    summary = monte_carlo(cfg, jobs=JOBS)
    good = summary.claims["decision_good_rate"]["observed"]
    bound = 1.0 - 0.3 - _slack(0.3, 100)
    irrevocable = summary.claims["irrevocability"]["observed"]
    ok = good >= bound and irrevocable == 1.0
    _report(7, ok, f"timely+identical+valid+stationary decisions in {good:.2f} "
                   f"of 100 trials (bound {bound:.3f}); write-once d in "
                   f"{irrevocable * 100:.0f}/100")
    assert good >= bound
    assert irrevocable == 1.0


def test_criterion_8_firing_counter_properties():
    # The counter behavior does not depend on the replication count, so a
    # small explicit ell keeps these 40 runs fast.
    base = dict(
        protocol="rbard", trials=1, n=8, epsilon=0.4, eta=0.3,
        size_bound=12, ell=32, beta=0.025,
    )
    sync_ok = 0
    for i in range(20):
        cfg = ExperimentConfig(seed=SEED + 80 + i, s_max=0, t_max=24, **base)
        trace = run_trial(trial_config(cfg, 0))
        rounds = np.arange(1, 25)[:, None]
        sync_ok += bool((trace.counters == rounds).all())

    stag_ok = 0
    for i in range(20):
        cfg = ExperimentConfig(seed=SEED + 160 + i, s_max=5, t_max=24, **base)
        trace = run_trial(trial_config(cfg, 0))
        stag_ok += bool((trace.counters[:5] < 8).all())

    ok = sync_ok == 20 and stag_ok == 20
    _report(8, ok, f"synchronous C_u(t)=t in {sync_ok}/20; staggered C_u(t)<n "
                   f"for t<=s_max in {stag_ok}/20")
    assert sync_ok == 20 and stag_ok == 20


# ---------------------------------------------------------------------------
# 9-11: graph facts and adversarial schedules


def test_criterion_9_graph_product_lemmas():
    results = {r.name: r for r in verify_graph_claims(SEED, product_cases=500, c_cases=200)}
    prod = results["product_of_n_minus_1_complete"]
    speedup = results["c_in_connected_speedup"]
    ok = prod.passed and speedup.passed
    _report(9, ok, f"{prod.detail}; {speedup.detail}")
    assert ok


def test_criterion_10_blocking_adversary_freezes_odd_entries():
    frozen_runs = 0
    for i in range(10):
        cfg = ExperimentConfig(
            protocol="rbar", trials=1, n=3, seed=SEED + 200 + i,
            epsilon=0.3, eta=0.2, ell=4, schedule_kind="blocking", t_max=50 * 4,
        )
        trace = run_trial(trial_config(cfg, 0))
        odd = [0, 2]  # entries exchanged on loops-only (odd) rounds
        even = [1, 3]
        min_x, min_y = offline_minima(trace)
        init_x, init_y = (qz.quantize_array(half, trace.config.params.beta) for half in trace.init_raw)
        frozen = all(
            np.array_equal(s.x_vec[odd], init_x[u][odd])
            and np.array_equal(s.y_vec[odd], init_y[u][odd])
            for u, s in enumerate(trace.final_states)
        )
        # the complete even rounds do mix the other entries, so the run
        # is not vacuously frozen
        mixed = all(
            np.array_equal(s.x_vec[even], min_x[even])
            and np.array_equal(s.y_vec[even], min_y[even])
            for s in trace.final_states
        )
        frozen_runs += bool(frozen and mixed)
    ok = frozen_runs == 10
    _report(10, ok, f"odd entries untouched after 50*ell rounds in {frozen_runs}/10 seeds")
    assert ok


def test_criterion_11_delay_3_schedule_slows_by_factor_3():
    fractions = {}
    for n in (4, 6):
        cfg = ExperimentConfig(
            protocol="r", trials=50, n=n, seed=SEED + 300 + n,
            epsilon=0.3, eta=0.2, schedule_kind="delayed", delay=3,
            t_max=6 * (n - 1),
        )
        summary = monte_carlo(cfg, jobs=JOBS)
        fractions[n] = summary.claims["stationary_by_bound"]["observed"]
    ok = all(f == 1.0 for f in fractions.values())
    _report(11, ok, "stationary agreement by 3(n-1) in 50/50 trials at n=4 and n=6")
    assert ok


# ---------------------------------------------------------------------------
# 12: rounding algebra at scale


def test_criterion_12_quantization_algebra():
    rng = np.random.default_rng(SEED)
    cases = 100_000
    violations = {}

    for beta in (0.01, 0.1, 1.0):
        xs = np.exp(rng.uniform(np.log(1e-9), np.log(1e9), size=cases))
        ks = qz.quantize_array(xs, beta)
        vals = qz.dequantize_array(ks, beta)
        violations[f"bracketing_b{beta}"] = int(
            ((vals > xs) | (xs >= (1.0 + beta) * vals)).sum()
        )

    beta = 0.1
    pairs = np.sort(
        np.exp(rng.uniform(np.log(1e-9), np.log(1e9), size=(cases, 2))), axis=1
    )
    lo = qz.quantize_array(pairs[:, 0], beta)
    hi = qz.quantize_array(pairs[:, 1], beta)
    violations["monotonicity"] = int((lo > hi).sum())

    xs = np.exp(rng.uniform(np.log(1e-9), np.log(1e9), size=cases))
    ks = qz.quantize_array(xs, beta)
    again = qz.quantize_array(qz.dequantize_array(ks, beta), beta)
    violations["idempotence"] = int((again != ks).sum())

    sets = np.exp(rng.uniform(np.log(1e-9), np.log(1e9), size=(cases, 5)))
    of_min = qz.quantize_array(sets.min(axis=1), beta)
    min_of = qz.quantize_array(sets, beta).min(axis=1)
    violations["min_commutation"] = int((of_min != min_of).sum())

    total = sum(violations.values())
    ok = total == 0
    _report(12, ok, f"bracketing/monotonicity/idempotence/commutation over "
                    f"10^5 cases each: {total} violations")
    assert violations == {k: 0 for k in violations}
