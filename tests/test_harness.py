import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from avgcons import engine as eng
from avgcons import graph as gr
from avgcons import harness as hn
from avgcons.cli import cli
from avgcons.quantization import admissible_interval


def tiny_r_config(**kw):
    base = dict(protocol="r", trials=4, n=3, seed=5, epsilon=0.3, eta=0.2, ell=64)
    base.update(kw)
    return hn.ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# monte carlo


def test_single_trial_single_agent():
    cfg = hn.ExperimentConfig(protocol="r", trials=1, n=1, seed=3, ell=256)
    summary = hn.monte_carlo(cfg)
    assert summary.trials == 1
    assert summary.failure_fraction in (0.0, 1.0)
    assert summary.claims["stationary_by_bound"]["observed"] == 1.0


@pytest.mark.parametrize("protocol,extra", [("min", {}), ("r", {"ell": 16})])
def test_a_horizon_short_of_the_bound_fails_stationarity(protocol, extra):
    # csc on 8 agents is due by round 7; a 2-round horizon checks nothing.
    summary = hn.monte_carlo(hn.ExperimentConfig(protocol=protocol, trials=3, n=8, t_max=2,
                                                 **extra))
    assert summary.claims["stationary_by_bound"] == {"observed": 0.0, "bound": 1.0, "op": ">=",
                                                     "passed": False}


def test_same_master_seed_reproduces_the_summary():
    cfg = tiny_r_config()
    assert hn.monte_carlo(cfg).to_json() == hn.monte_carlo(cfg).to_json()


def test_parallel_and_serial_agree():
    serial = hn.monte_carlo(tiny_r_config())
    parallel = hn.monte_carlo(tiny_r_config(), jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_summary_recomputes_from_stored_records(tmp_path):
    cfg = tiny_r_config()
    records_path = tmp_path / "records.jsonl"
    summary_path = tmp_path / "summary.json"
    summary = hn.monte_carlo(cfg, records_path=records_path, summary_path=summary_path)

    records = [json.loads(line) for line in records_path.read_text().splitlines()]
    refolded = hn.summary_from_records(cfg, records)
    assert refolded.to_json() == summary.to_json()

    stored = json.loads(summary_path.read_text())
    assert stored == summary.to_json()


def test_fixed_inputs_are_used_verbatim():
    cfg = tiny_r_config(inputs=(0.25, 0.5, 0.75), trials=2)
    tc = hn.trial_config(cfg, 1)
    assert tc.inputs == (0.25, 0.5, 0.75)


def test_random_inputs_stay_in_range_and_vary_by_trial():
    cfg = tiny_r_config(a=0.2, b=0.9, trials=2)
    t0, t1 = hn.trial_config(cfg, 0), hn.trial_config(cfg, 1)
    for tc in (t0, t1):
        assert all(0.2 <= v <= 0.9 for v in tc.inputs)
    assert t0.inputs != t1.inputs


def test_staggered_starts_hit_smax_exactly():
    cfg = hn.ExperimentConfig(
        protocol="rbard", trials=3, n=6, seed=2, ell=32, beta=0.05,
        size_bound=10, s_max=4,
    )
    for i in range(3):
        tc = hn.trial_config(cfg, i)
        assert max(tc.start_rounds) == 5
        assert min(tc.start_rounds) >= 1
        assert tc.s_max == 4


def test_blocking_schedule_takes_ell_from_params():
    cfg = hn.ExperimentConfig(
        protocol="rbar", trials=1, n=3, seed=0, ell=4, beta=0.025,
        schedule_kind="blocking", t_max=8,
    )
    tc = hn.trial_config(cfg, 0)
    assert tc.schedule.kind == "blocking" and tc.schedule.ell == 4


def test_rbard_claims_cover_decisions():
    cfg = hn.ExperimentConfig(
        protocol="rbard", trials=3, n=4, seed=11, ell=128, beta=0.02,
        size_bound=8, s_max=2, epsilon=0.3, eta=0.3,
    )
    summary = hn.monte_carlo(cfg)
    assert set(summary.claims) == {"irrevocability", "decision_good_rate"}
    assert summary.claims["irrevocability"]["observed"] == 1.0
    assert summary.decision_rounds is not None
    stats = [line.split(",")[1] for line in hn.render_csv(summary).splitlines()
             if line.startswith("stat,")]
    assert stats == ["trials", "mean_convergence_round", "max_convergence_round",
                     "max_distinct_exponents", "max_message_bits", "decision_round_min",
                     "decision_round_mean", "decision_round_max"]


def test_samples_in_interval_fails_on_a_draw_outside_the_interval_or_nan():
    cfg = hn.ExperimentConfig(protocol="rbard", trials=1, n=3, seed=2, ell=32, size_bound=4,
                              epsilon=0.3, eta=0.3)
    trace = eng.run_trial(hn.trial_config(cfg, 0))
    p = trace.config.params
    z, upper = admissible_interval(p, trace.n)
    # The check over both matrices at once is the oracle.
    inside = lambda: all(((m >= z) & (m <= upper)).all()
                         for m in (trace.init_x_raw, trace.init_y_raw))
    assert hn.evaluate_trial(cfg, trace)["samples_in_interval"] is inside()
    for m in (trace.init_x_raw, trace.init_y_raw):
        np.clip(m, z, upper, out=m)
    assert hn.evaluate_trial(cfg, trace)["samples_in_interval"] is inside() is True
    for m in (trace.init_x_raw, trace.init_y_raw):
        for bad in (np.nan, z / 2, upper * 2):
            good, m[1, 5] = m[1, 5], bad
            assert hn.evaluate_trial(cfg, trace)["samples_in_interval"] is inside() is False
            m[1, 5] = good


def test_experiment_config_json_roundtrip():
    cfg = tiny_r_config(inputs=(0.1, 0.2, 0.3))
    restored = hn.experiment_from_json(json.loads(json.dumps(cfg.to_json())))
    assert restored == cfg


def test_schema_is_no_argument_and_only_the_int_1_is_read():
    # A settable schema let a config or summary be written that its own
    # reader rejected ("unsupported config schema 2").
    with pytest.raises(TypeError):
        hn.ExperimentConfig(protocol="min", trials=1, n=3, schema=2)
    with pytest.raises(TypeError):
        hn.Summary(protocol="min", trials=1, schema=7)
    cfg = hn.ExperimentConfig(protocol="min", trials=1, n=3)
    summary = hn.Summary(protocol="min", trials=1)
    assert cfg.to_json()["schema"] == summary.to_json()["schema"] == 1
    assert hn.experiment_from_json(cfg.to_json()) == cfg
    assert hn.summary_from_json(summary.to_json()) == summary
    for bad in (True, 1.0, 2, None):
        with pytest.raises(ValueError, match="schema"):
            hn.experiment_from_json({**cfg.to_json(), "schema": bad})
        with pytest.raises(ValueError, match="schema"):
            hn.summary_from_json({**summary.to_json(), "schema": bad})


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        tiny_r_config(trials=0)
    with pytest.raises(ValueError):
        tiny_r_config(s_max=3)  # staggering is rbard-only
    with pytest.raises(ValueError):
        tiny_r_config(inputs=(0.1,))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        tiny_r_config(seed=-1)


@pytest.mark.parametrize("field,message", [("n", "node count must be >= 1, got 0"),
                                           ("t_max", "t_max must be >= 1, got 0"),
                                           ("ell", "ell must be >= 1, got 0"),
                                           ("delay", "delay must be >= 1, got 0"),
                                           ("c", "c must be >= 1, got 0")])
def test_a_zero_size_field_is_refused_when_the_config_is_built(field, message):
    # Each of these configs was built, and refused only when a trial was set up.
    kind = {"delay": "delayed", "c": "c_connected"}.get(field, "csc")
    obj = {"protocol": "r", "trials": 1, "n": 3, "schedule_kind": kind, field: 0}
    for build in (lambda obj: hn.ExperimentConfig(**obj), hn.experiment_from_json):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(obj)


@pytest.mark.parametrize("protocol", ["min", "r", "rbar", "rbard"])
def test_pinned_inputs_outside_a_b_are_rejected_before_any_trial(protocol):
    kw = {"size_bound": 3} if protocol == "rbard" else {}
    with pytest.raises(ValueError, match=r"^input 5\.0 outside \[0\.0, 1\.0\]$"):
        hn.ExperimentConfig(protocol=protocol, trials=2, n=3, inputs=(0.5, 5.0, -3.0), **kw)


def test_json_integers_in_float_fields_give_the_same_digest():
    from_json = hn.experiment_from_json({"protocol": "r", "trials": 1, "n": 3, "a": 0, "b": 1})
    assert type(from_json.a) is float and type(from_json.b) is float
    built = hn.ExperimentConfig(protocol="r", trials=1, n=3, a=0.0, b=1.0)  # as `avgcons run` builds it
    assert hn.trial_config(from_json, 0).digest() == hn.trial_config(built, 0).digest()


def test_python_integers_in_float_fields_give_the_same_digest():
    ints = hn.ExperimentConfig(protocol="rbar", trials=1, n=3, epsilon=0.25, a=0, b=1, beta=1,
                               slack_sigmas=3)
    floats = hn.ExperimentConfig(protocol="rbar", trials=1, n=3, epsilon=0.25, a=0.0, b=1.0,
                                 beta=1.0, slack_sigmas=3.0)
    assert all(type(getattr(ints, k)) is float
               for k in ("epsilon", "eta", "a", "b", "beta", "slack_sigmas"))
    assert hn.trial_config(ints, 0).digest() == hn.trial_config(floats, 0).digest()
    assert ints.to_json() == floats.to_json()


def test_negative_zero_in_a_float_field_gives_the_same_digest():
    # build_params caches by config equality, under which -0.0 == 0.0.
    neg = hn.ExperimentConfig(protocol="r", trials=1, n=3, a=-0.0, b=1.0)
    pos = hn.ExperimentConfig(protocol="r", trials=1, n=3, a=0.0, b=1.0)
    assert str(neg.a) == "0.0" and str(hn.build_params(neg).a) == "0.0"
    assert hn.trial_config(neg, 0).digest() == hn.trial_config(pos, 0).digest()


def test_the_parameter_formula_runs_once_per_config(monkeypatch):
    calls = []
    record = hn.PROTOCOLS["rbar"]

    def counted(*args):
        calls.append(args)
        return record.formula(*args)

    monkeypatch.setitem(hn.PROTOCOLS, "rbar", replace(record, formula=counted))
    hn.build_params.cache_clear()
    try:
        cfg = hn.ExperimentConfig(protocol="rbar", trials=4, n=3, seed=5, epsilon=0.4,
                                  eta=0.4, t_max=20)
        hn.monte_carlo(cfg)
        hn.monte_carlo(cfg)
        assert len(calls) == 1
        hn.monte_carlo(replace(cfg, eta=0.3))
        assert len(calls) == 2
    finally:
        hn.build_params.cache_clear()


@pytest.mark.parametrize("protocol,extra", [("rbar", {}), ("rbard", {"size_bound": 4})])
def test_a_pinned_beta_alone_overrides_the_formula(protocol, extra):
    formula = hn.build_params(hn.ExperimentConfig(protocol=protocol, trials=1, n=3, **extra))
    params = hn.trial_config(
        hn.ExperimentConfig(protocol=protocol, trials=1, n=3, beta=0.1, **extra), 0).params
    assert params.beta == 0.1 != formula.beta
    assert params.ell == formula.ell


def test_render_csv_has_fixed_columns():
    summary = hn.monte_carlo(tiny_r_config())
    csv = hn.render_csv(summary)
    lines = csv.strip().splitlines()
    assert lines[0] == "section,name,observed,bound,passed"
    assert any(line.startswith("claim,accuracy_failure_rate,") for line in lines)
    assert any(line.startswith("stat,trials,4,") for line in lines)


# ---------------------------------------------------------------------------
# property suites


def test_verify_graph_claims_pass():
    results = hn.verify_graph_claims(seed=1, product_cases=60, c_cases=10)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "product_of_n_minus_1_complete" in names
    assert "c_in_connected_speedup" in names


def test_verify_bound_claims_pass():
    results = hn.verify_bound_claims(seed=1, reps=2000)
    assert all(r.passed for r in results)
    assert sum(r.name.startswith("tail_") for r in results) == 12


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_writes_a_parsable_trace(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = cli([
        "run", "--protocol", "min", "--n", "4", "--schedule", "ring",
        "--t-max", "6", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["protocol"] == "min"
    assert len(lines) == 7


def test_cli_missing_required_flag_is_a_usage_error(capsys):
    assert cli(["run", "--protocol", "min"]) == 2  # --n missing
    # One line, as every exit 2; argparse alone would print the usage block first.
    assert capsys.readouterr().err == "error: avgcons run: the following arguments are required: --n\n"


def test_cli_run_c_connected_beyond_the_subset_check_cap(tmp_path):
    out = tmp_path / "trace.jsonl"
    code = cli(["run", "--protocol", "r", "--n", "24", "--schedule", "c_connected:2",
                "--t-max", "3", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--protocol", "min", "--schedule", "nope"], "unknown schedule"),
        (["--protocol", "min", "--schedule", "ring:5"], "takes no parameter"),
        (["--protocol", "rbard", "--bigN", "3"], "size_bound >= n"),  # the paper assumes N >= n
        (["--protocol", "min", "--schedule", "blocking:4"], "min has none"),
        (["--protocol", "rbard", "--bigN", "6", "--s-max", "-1"], "s_max must be >= 0"),
        (["--protocol", "min", "--schedule", "delayed:x"],
         "schedule 'delayed' needs an integer parameter, got 'delayed:x'"),
        # Traces far too large to allocate: 2.2 TiB, and 87 TiB from the
        # default horizon 4 * (s_max + 2n).
        (["--protocol", "r", "--n", "3", "--t-max", "100000000000"], "out of memory"),
        (["--protocol", "rbard", "--n", "3", "--bigN", "3", "--s-max", "1000000000000"],
         "out of memory"),
        (["--protocol", "r", "--bigN", "5"], "protocol 'r' takes no size_bound"),
        (["--protocol", "min", "--bigN", "5"], "protocol 'min' takes no size_bound"),
        # ell ~ 1e62 and ~1e602: too large to resolve at 40 digits.
        (["--protocol", "r", "--n", "3", "--epsilon", "1e-30"], "replica count ell"),
        (["--protocol", "r", "--n", "3", "--b", "1e300"], "replica count ell"),
        (["--protocol", "r", "--b", "inf"], "a and b must be finite"),
        (["--protocol", "rbar", "--a", "nan"], "a and b must be finite"),
        (["--protocol", "min", "--a", "nan"], "a and b must be finite"),
        (["--protocol", "min", "--a=-1e400"], "a and b must be finite"),
        (["--protocol", "min", "--a", "-1e400"], "a and b must be finite"),
        (["--protocol", "r", "--a", "-inf"], "a and b must be finite"),
        (["--protocol", "r", "--n", "3", "--a", "-1e308", "--b", "1e308"],
         "as must b - a + 1, got a=-1e+308, b=1e+308"),
        # Three inputs near b sum past the largest float: theta was inf.
        (["--protocol", "min", "--n", "3", "--b", "1.7976931348623157e308", "--t-max", "2"],
         "the mean of n=3 inputs in [0.0, 1.7976931348623157e+308] can overflow"),
        (["--protocol", "min", "--eta", "5"], "eta must be in (0, 1/2), got 5.0"),
        (["--protocol", "min", "--epsilon", "5"], "epsilon must be in (0, 1/2), got 5.0"),
        (["--protocol", "min", "--epsilon", "nan"], "epsilon must be in (0, 1/2), got nan"),
        (["--protocol", "min", "--a", "3", "--b", "1"], "need a <= b, got a=3.0, b=1.0"),
        # ell ~ 3.2e32 and ~3.2e20 resolve, but no float64 vector that long fits an index.
        (["--protocol", "r", "--n", "3", "--epsilon", "1e-15"], "too large for any array"),
        (["--protocol", "r", "--n", "3", "--epsilon", "1e-9"], "raise epsilon or narrow [a, b]"),
        (["--protocol", "r", "--seed", "-1"], "--seed must be a non-negative integer, got '-1'"),
        (["--protocol", "r", "--seed", "1.5"], "--seed must be a non-negative integer, got '1.5'"),
        # The hint's value must be one every kind with a parameter accepts.
        (["--protocol", "rbar", "--schedule", "blocking"],
         "schedule 'blocking' needs a parameter, e.g. blocking:4"),
    ],
    ids=["unknown-schedule", "ring-with-parameter", "rbard-bound-below-n", "min-on-blocking",
         "negative-s-max", "non-integer-parameter", "horizon-too-long", "s-max-too-large",
         "r-with-size-bound", "min-with-size-bound", "tiny-epsilon", "huge-b", "infinite-b",
         "nan-a", "min-nan-a", "min-infinite-a", "min-infinite-a-spaced", "r-minus-inf-a",
         "r-infinite-width", "min-overflowing-mean",
         "min-eta-above-half", "min-epsilon-above-half", "min-epsilon-nan", "min-a-above-b",
         "ell-1e32", "ell-1e20", "negative-seed", "non-integer-seed",
         "blocking-without-parameter"],
)
def test_cli_run_rejected_configs_are_usage_errors(extra, message, capsys):
    code = cli(["run", "--n", "6", *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("value", ["-1e-3", "-1E+0", "-.5", "-2."])
def test_cli_run_reads_a_negative_number_with_an_exponent_as_a_value(value, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert cli(["run", "--protocol", "r", "--n", "3", "--a", value, "--t-max", "2",
                "--out", str(out)]) == 0
    cfg = hn.ExperimentConfig(protocol="r", trials=1, n=3, a=float(value), t_max=2)
    assert json.loads(out.read_text().splitlines()[0])["config"] == hn.trial_config(cfg, 0).digest()


@pytest.mark.parametrize(
    "argv,sizes",
    [(["--protocol", "r", "--n", "3", "--epsilon", "0.1"], "ell=32354 and n=3 over 8 rounds"),
     (["--protocol", "rbard", "--n", "3", "--bigN", "3", "--epsilon", "0.3"],
      "ell=22980, n=3 and 2211 exponents over 24 rounds"),
     (["--protocol", "min", "--n", "3", "--t-max", "100000"], "n=3 over 100000 rounds")],
    ids=["r", "rbard", "min"],
)
def test_cli_run_larger_than_physical_memory_exits_2_before_sampling(argv, sizes, monkeypatch,
                                                                     capsys):
    # numpy's allocations succeed under overcommit, so a trial too large for
    # the machine would be killed while sampling; it must fail before the
    # inputs are drawn, too, which at n = 10^8 would take seconds.
    from avgcons import engine as eng
    from avgcons import protocol as proto

    monkeypatch.setattr(eng, "_physical_memory", lambda: 1 << 20)
    monkeypatch.setattr(proto, "init_samples", lambda *args: pytest.fail("sampled"))
    monkeypatch.setattr(hn, "RngStream", lambda *args, **kwargs: pytest.fail("drew the inputs"))
    assert cli(["run", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: a trial with ") and err.count("\n") == 1
    assert sizes in err and "GiB of physical memory" in err


def pinned_beta_sweep(tmp_path, beta):
    """argv of a one-trial rbar sweep at n=3, ell=4 with beta pinned."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(hn.ExperimentConfig(
        protocol="rbar", trials=1, n=3, seed=5, ell=4, beta=beta).to_json()))
    return ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("beta,needle", [(1e-15, "error: out of memory: a trial with ell=4, n=3 and "),
                                         (1e-17, "error: beta must be > 0 with 1 + beta > 1")])
def test_cli_sweep_with_a_beta_of_an_ulp_or_less_exits_2(beta, needle, tmp_path):
    # 1e-15 gives some 10^15 exponents, more than any memory; 1 + 1e-17 is 1.
    src = str(Path(hn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "avgcons", *pinned_beta_sweep(tmp_path, beta)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stderr.startswith(needle) and done.stderr.count("\n") == 1


@pytest.mark.parametrize("beta", [float("inf"), float("nan"), 1e-17, -0.1],
                         ids=["inf", "nan", "1e-17", "negative"])
def test_cli_sweep_with_a_beta_off_the_grid_exits_2_before_sampling(beta, tmp_path, monkeypatch,
                                                                    capsys):
    monkeypatch.setattr(hn, "RngStream", lambda *args, **kwargs: pytest.fail("sampled"))
    assert cli(pinned_beta_sweep(tmp_path, beta)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: beta must be > 0 with 1 + beta > 1 in floats, and finite, got ")
    assert err.count("\n") == 1


def test_cli_sweep_with_ell_and_beta_pinned_runs_on_the_pinned_beta(tmp_path, capsys):
    # At b - a + 1 = 1e15 the formula's beta, eps / (8 (b - a + 1)), is
    # 3.75e-17, off the grid; it used to be checked even with beta pinned.
    obj = {"protocol": "rbar", "trials": 3, "n": 1, "ell": 4, "beta": 0.5, "b": 1e15, "t_max": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(obj))
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) in (0, 1)
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["config"]["beta"] == 0.5
    records = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
    assert len(records) == 3
    assert hn.trial_config(hn.experiment_from_json(obj), 0).params.beta == 0.5


@pytest.mark.parametrize(
    "extra,message",
    [({"t_max": 0}, "t_max must be >= 1, got 0"),
     ({"t_max": 0, "s_max": 3}, "t_max must be >= 1, got 0"),
     # z = eta / (4 (b - a + 2) ell n) underflows; it crashed the evaluation.
     ({"ell": 4, "eta": 5e-324}, "eta=5e-324 is too small for ell=4 and n=4: z = eta / (4 (b - a + 2) "
                                 "ell n) is not a normal float"),
     ({"protocol": "min", "size_bound": None, "b": 1e308},
      "the mean of n=4 inputs in [0.0, 1e+308] can overflow")],
    ids=["t-max-0", "t-max-0-staggered", "eta-underflowing-the-admissible-interval",
         "overflowing-mean"])
def test_cli_sweep_breaking_a_rule_of_its_size_exits_2_before_drawing(extra, message, tmp_path,
                                                                       monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"protocol": "rbard", "trials": 2, "n": 4, "size_bound": 4,
                                    **extra}))
    monkeypatch.setattr(hn, "RngStream", lambda *args, **kwargs: pytest.fail("drew"))
    assert cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,builder,sizes",
    [(["--n", "1500", "--schedule", "complete", "--t-max", "1000000000"], "complete_graph",
      "n=1500 over 1000000000 rounds"),
     (["--n", "400", "--schedule", "complete"], "complete_graph", "n=400 over 1596 rounds"),
     (["--n", "1000000000000", "--schedule", "ring"], "ring_graph",
      "n=1000000000000 over 3999999999996 rounds")],
    ids=["complete-pinned-horizon", "complete-default-horizon", "ring-default-horizon"])
def test_cli_run_larger_than_physical_memory_exits_2_before_building_a_fixed_graph(
        argv, builder, sizes, monkeypatch, capsys):
    # ring and complete build their graph with the schedule; complete at
    # n = 1,500 took 0.5 s and about 240 MB before the size rules ran.  The
    # default horizon is 4 (n - 1) rounds for both, known before the graph.
    monkeypatch.setattr(eng, "_physical_memory", lambda: 1 << 20)
    monkeypatch.setattr(gr, builder, lambda n: pytest.fail("built the graph"))
    assert cli(["run", "--protocol", "min", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out of memory: a trial with {sizes} needs ") and err.count("\n") == 1


def test_cli_run_at_n_1e8_exits_2_before_drawing_its_inputs():
    # It takes about 0.3 s, interpreter start included; drawing and
    # checking 10^8 inputs first took more than 30 s.
    src = str(Path(hn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "avgcons", "run", "--protocol", "min",
                           "--n", "100000000"], env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2 and time.perf_counter() - start < 5.0
    assert done.stderr.startswith("error: out of memory: a trial with n=100000000 over 399999996 ")
    assert done.stderr.count("\n") == 1


def test_cli_sweep_whose_exponent_grid_outgrows_memory_exits_2_before_building_it(
        tmp_path, monkeypatch, capsys):
    # At beta=1e-7 any draws may span some 4 x 10^8 exponents, 3 x 8 B each,
    # which the config alone bounds, so nothing is drawn.
    from avgcons import protocol as proto

    monkeypatch.setattr(eng, "_physical_memory", lambda: 256 << 20)
    monkeypatch.setattr(eng, "_offsets", lambda *args: pytest.fail("built the grid"))
    monkeypatch.setattr(proto, "init_samples", lambda *args: pytest.fail("sampled"))
    monkeypatch.setattr(hn, "RngStream", lambda *args, **kwargs: pytest.fail("drew the inputs"))
    assert cli(pinned_beta_sweep(tmp_path, 1e-7)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: a trial with ell=4, n=3 and ") and err.count("\n") == 1
    assert "exponents over 48 rounds needs" in err and "more than the 0.2 GiB" in err


@pytest.mark.parametrize("kind", ["delayed", "c_connected", "blocking"])
def test_cli_run_accepts_the_usage_hint_of_every_kind_with_a_parameter(kind, tmp_path, capsys):
    assert cli(["run", "--protocol", "rbar", "--n", "6", "--schedule", kind]) == 2
    hint = capsys.readouterr().err.split("e.g. ")[1].strip()
    out = tmp_path / "trace.jsonl"
    assert cli(["run", "--protocol", "rbar", "--n", "6", "--schedule", hint, "--t-max", "2",
                "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "change,needle",
    [({"bogus": 1}, "'bogus'"), ({"trials": "2"}, "'trials'"), ([1, 2], "JSON object"),
     ("str", "JSON object"),
     ({"protocol": "rbard", "beta": 0.05, "size_bound": 3, "s_max": -1}, "s_max must be >= 0"),
     ({"c": 3}, "'csc' takes no c"), ({"schedule_kind": "ring", "delay": 2}, "'ring' takes no delay"),
     ({"schedule_kind": "delayed"}, "'delayed' requires delay"),
     ({"schedule_kind": "bogus"}, "unknown schedule_kind 'bogus'"),
     ({"protocol": "bogus"}, "unknown protocol 'bogus'"),
     ({"protocol": "min", "ell": None, "beta": 0.1}, "protocol 'min' takes no beta"),
     ({"protocol": "min"}, "protocol 'min' takes no ell"),
     ({"beta": 0.1}, "protocol 'r' takes no beta"),
     ({"size_bound": 4}, "protocol 'r' takes no size_bound"),
     ({"protocol": "min", "ell": None, "inputs": [float("nan"), 0.5, 0.2]},
      "inputs must be finite"),
     ({"ell": None, "b": float("inf")}, "a and b must be finite"),
     ({"protocol": "min", "ell": None, "a": -1e400}, "a and b must be finite"),
     ({"ell": None, "a": -1e308, "b": 1e308}, "as must b - a + 1, got a=-1e+308, b=1e+308"),
     ({"protocol": "rbar", "beta": float("inf")}, "beta must be > 0 with 1 + beta > 1 in floats, "
                                                  "and finite, got inf"),
     ({"protocol": "min", "ell": None, "inputs": [5.0, -3.0, 0.5]}, "input 5.0 outside [0.0, 1.0]"),
     ({"protocol": "min", "ell": None, "eta": 5}, "eta must be in (0, 1/2), got 5.0"),
     ({"protocol": "min", "ell": None, "epsilon": 5}, "epsilon must be in (0, 1/2), got 5.0"),
     ({"protocol": "min", "ell": None, "epsilon": float("nan")},
      "epsilon must be in (0, 1/2), got nan"),
     ({"protocol": "min", "ell": None, "a": 3, "b": 1}, "need a <= b, got a=3.0, b=1.0"),
     ({"seed": -2}, "seed must be >= 0, got -2"),
     ({"protocol": "rbard", "ell": None}, "rbard requires size_bound"),
     ({"slack_sigmas": float("nan")}, "slack_sigmas must be finite and >= 0, got nan"),
     ({"slack_sigmas": float("inf")}, "slack_sigmas must be finite and >= 0, got inf"),
     ({"slack_sigmas": -1.0}, "slack_sigmas must be finite and >= 0, got -1.0")],
    ids=["unknown-key", "wrongly-typed-value", "list", "string", "negative-s-max", "csc-with-c",
         "ring-with-delay", "delayed-without-delay", "unknown-schedule-kind", "unknown-protocol",
         "min-with-beta", "min-with-ell", "r-with-beta", "r-with-size-bound", "nan-input",
         "infinite-b", "min-infinite-a", "infinite-width", "infinite-beta",
         "min-input-outside-a-b", "min-eta-above-half",
         "min-epsilon-above-half", "min-epsilon-nan", "min-a-above-b", "negative-seed", "rbard-without-size-bound", "nan-slack-sigmas",
         "infinite-slack-sigmas", "negative-slack-sigmas"],
)
def test_cli_sweep_rejects_a_bad_config_key(tmp_path, capsys, change, needle):
    good = tiny_r_config(trials=2).to_json()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**good, **change} if isinstance(change, dict) else change))
    code = cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert needle in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "summary,needle",
    [
        ([1, 2], "JSON object"),
        ({"trials": 2}, "'protocol'"),
        ({"protocol": "r"}, "'trials'"),
        ({"protocol": "r", "trials": 2, "claims": []}, "'claims'"),
        ({"protocol": "r", "trials": 2, "claims": {"acc": 0.1}}, "'acc'"),
        ({"protocol": "r", "trials": 2, "claims": {"acc": {"observed": 0.1, "bound": 0.2}}},
         "'passed'"),
        ({"protocol": "rbard", "trials": 2, "decision_rounds": [1, 2]}, "'decision_rounds'"),
    ],
    ids=["not-an-object", "no-protocol", "no-trials", "claims-list", "claim-not-an-object",
         "claim-without-passed", "decision-rounds-list"],
)
def test_cli_report_rejects_a_malformed_summary(tmp_path, capsys, summary, needle):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    assert cli(["report", "--summary", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and err.count("\n") == 1


def test_cli_sweep_and_report_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_r_config(trials=2, ell=256).to_json()))
    outdir = tmp_path / "out"
    code = cli(["sweep", "--config", str(cfg_path), "--out", str(outdir)])
    assert code == 0
    assert (outdir / "records.jsonl").exists()
    capsys.readouterr()  # drop the sweep's own output

    code = cli(["report", "--summary", str(outdir / "summary.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("section,name,observed,bound,passed")


def test_cli_verify_bounds_small(capsys):
    assert cli(["verify-bounds", "--seed", "3", "--reps", "500"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_cli_verify_graph_small(capsys):
    assert cli(["verify-graph", "--seed", "3", "--cases", "40", "--c-cases", "5"]) == 0
    out = capsys.readouterr().out
    assert "product_of_n_minus_1_complete" in out


@pytest.mark.parametrize("argv,suite", [(["verify-graph"], "verify_graph_claims"),
                                        (["verify-bounds"], "verify_bound_claims"),
                                        (["verify-graph", "--cases", "7"], "verify_graph_claims")])
def test_cli_verify_passes_only_the_suite_sizes_given(argv, suite, monkeypatch):
    monkeypatch.delenv("AVGCONS_SEED", raising=False)
    calls = []
    monkeypatch.setattr(hn, suite, lambda **kw: calls.append(kw) or [])
    assert cli(argv) == 0
    assert calls == [{"product_cases": 7} if "--cases" in argv else {}]


@pytest.mark.parametrize("extra", [["--cases", "-3"], ["--cases", "0", "--c-cases", "0"],
                                   ["--c-cases", "0"]],
                         ids=["negative-cases", "zero-cases", "zero-c-cases"])
def test_cli_verify_graph_without_cases_is_a_usage_error(extra, capsys):
    assert cli(["verify-graph", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cases" in err and err.count("\n") == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(hn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "avgcons", "verify-bounds", "--reps", "200"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "[PASS]" in done.stdout


def test_importing_the_package_loads_no_process_pool():
    src = str(Path(hn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, avgcons; assert 'concurrent.futures' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_loads_no_mpmath():
    src = str(Path(hn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, avgcons.cli; assert 'mpmath' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "argv,env,needle",
    [(["verify-bounds", "--seed", "-1"], None, "--seed must be a non-negative integer, got '-1'"),
     (["verify-graph", "--seed", "-1"], None, "--seed must be a non-negative integer, got '-1'"),
     (["sweep", "--seed", "-1"], None, "--seed must be a non-negative integer, got '-1'"),
     (["run", "--protocol", "min", "--n", "3"], "-4", "AVGCONS_SEED must be a non-negative integer"),
     (["run", "--protocol", "min", "--n", "3"], "abc", "AVGCONS_SEED must be a non-negative "
                                                       "integer, got 'abc'"),
     (["verify-bounds"], "abc", "AVGCONS_SEED must be a non-negative integer, got 'abc'")],
    ids=["verify-bounds", "verify-graph", "sweep", "env-negative", "env-not-a-number",
         "env-verify-bounds"],
)
def test_cli_rejects_a_bad_seed_from_any_source(argv, env, needle, monkeypatch, tmp_path, capsys):
    if env is None:
        monkeypatch.delenv("AVGCONS_SEED", raising=False)
    else:
        monkeypatch.setenv("AVGCONS_SEED", env)
    if argv[0] == "sweep":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_r_config(trials=1).to_json()))
        argv = [*argv, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and err.count("\n") == 1


@pytest.mark.parametrize("protocol,extra", [("min", {}), ("r", {}), ("rbar", {}),
                                            ("rbard", {"size_bound": 4})])
def test_cli_run_defaults_are_the_experiment_config_defaults(protocol, extra, monkeypatch, tmp_path):
    monkeypatch.delenv("AVGCONS_SEED", raising=False)
    out = tmp_path / "trace.jsonl"
    flags = ["--bigN", str(extra["size_bound"])] if extra else []
    assert cli(["run", "--protocol", protocol, "--n", "3", "--t-max", "2", *flags,
                "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    cfg = hn.ExperimentConfig(protocol=protocol, trials=1, n=3, t_max=2, **extra)
    assert header["config"] == hn.trial_config(cfg, 0).digest()


def test_cli_seed_env_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv("AVGCONS_SEED", "77")
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert cli(["run", "--protocol", "r", "--n", "3", "--t-max", "4", "--out", str(out1)]) == 0
    assert cli(["run", "--protocol", "r", "--n", "3", "--t-max", "4",
                "--seed", "77", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
