"""What the benchmark scripts in ``bench/`` read of the package.

``bench/`` loads ``avgcons`` from the checkout, rebinds its public
functions to tracing wrappers by name, checks every trial with its own
oracle and digests the trace.  A change to ``src/`` that drops or renames
one of the names it reads breaks the benchmark, so these tests run the
same calls on one tiny trial per protocol.  ``bench/run.py`` is not
imported (it imports mpmath for a version stamp); what it reads of a trace
is restated here.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# One tiny trial per protocol, at the sizes of test_golden's cases.
TRIALS = {
    "min": dict(n=5, seed=3),
    "r": dict(n=4, seed=4, ell=16),
    "rbar": dict(n=4, seed=7, ell=8, beta=0.05),
    "rbard": dict(n=4, seed=10, ell=32, beta=0.05, size_bound=6, s_max=2),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = sys.path[:]
    try:
        common, oracle, tracer = (_load(name) for name in ("common", "oracle", "tracer"))
        yield common.load_package(), oracle, tracer
    finally:
        sys.path[:] = saved


@pytest.fixture(scope="module")
def trials(bench):
    """(TrialConfig, trace) of each protocol's trial, run with every traced
    function wrapped, as a traced benchmark run does."""
    mods, _, tracer = bench
    harness, engine = mods["harness"], mods["engine"]
    owners = [*mods.values(), mods["graph"].DynamicSchedule]
    before = [dict(vars(owner)) for owner in owners]
    t = tracer.Tracer()
    out = {}
    try:
        t.install(mods)
        for tag, kwargs in TRIALS.items():
            tc = harness.trial_config(harness.ExperimentConfig(protocol=tag, trials=1, **kwargs), 0)
            out[tag] = tc, engine.run_trial(tc)
    finally:
        t.uninstall()
    after = [dict(vars(owner)) for owner in owners]
    changed = [f"{getattr(owner, '__name__', owner)}.{k}" for owner, b, a in zip(owners, before, after)
               for k in b.keys() | a.keys() if b.get(k) is not a.get(k)]
    assert not changed, f"not restored after uninstall: {sorted(changed)}"
    assert t.totals()["run_trial"]["calls"] == len(TRIALS)
    return out


def test_every_traced_name_exists_and_uninstall_restores_it(bench, trials):
    mods, _, tracer = bench
    for _, _, owner, attr in tracer.traced_functions(mods):
        assert callable(getattr(owner, attr)), attr


@pytest.mark.parametrize("tag", ["r", "rbar", "rbard"])
def test_the_oracle_accepts_each_trial_and_digests_it(bench, trials, tag):
    mods, oracle, _ = bench
    tc, trace = trials[tag]
    bound = mods["harness"].stationary_bound(tc)
    assert oracle.check_trial(mods, tc, trace, bound) == []
    digest = oracle.trace_sha256(trace)
    assert len(digest) == 64 and int(digest, 16) >= 0


@pytest.mark.parametrize("tag", ["r", "rbar", "rbard"])
def test_a_final_vector_can_be_replaced_as_the_self_test_does(bench, trials, tag):
    mods, oracle, _ = bench
    tc, trace = trials[tag]
    bound = mods["harness"].stationary_bound(tc)
    s = trace.final_states[1]
    good = s.x_vec
    try:
        s.x_vec = good.copy()
        s.x_vec[3] += 1
        assert oracle.check_trial(mods, tc, trace, bound)
    finally:
        s.x_vec = good
    assert oracle.check_trial(mods, tc, trace, bound) == []


def test_each_decision_vector_is_a_pair_of_arrays(trials):
    # As the benchmark's trace_bytes counts them.
    _, trace = trials["rbard"]
    assert trace.decision_vectors
    for pair in trace.decision_vectors.values():
        x, y = pair
        assert isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
    assert sum(a.nbytes for pair in trace.decision_vectors.values() for a in pair) > 0
