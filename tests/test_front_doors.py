"""Fuzzing of both front doors: `avgcons sweep --config` and `avgcons run`.

Each example mutates a small valid input: a type swapped, a bool for an
int, +-0, +-inf, NaN, the 1-ulp edges of a range, ints up to 10^30, an
unknown key or flag, or a key or flag left out.  It runs cli.cli in
process with physical memory taken as 256 MiB, and must exit 0, 1 or 2
within 2 s; an exit 2 prints one stderr line and no traceback, and draws
no inputs first (the spy is the one the off-grid-beta test uses, on
harness.RngStream).
"""
import json
import math
import time
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from avgcons import engine as eng
from avgcons import harness as hn
from avgcons.cli import cli

ULP_BELOW_HALF = math.nextafter(0.5, 0.0)
FLOATS = [0.0, -0.0, 5e-324, -5e-324, ULP_BELOW_HALF, 0.5, math.nextafter(0.5, 1.0), 1.0,
          math.nextafter(1.0, 2.0), -1.0, 1e-300, 1e-7, 2.220446049250313e-16,
          1.1102230246251565e-16, 1.7976931348623157e308, -1.7976931348623157e308,
          math.inf, -math.inf, math.nan]
# An n between the edges and the huge values can fit in memory and still
# fold n^2 ell entries (r at n=64, ell=108,700 takes over 2 s): a long
# trial, not a stall, so the ints are edges and sizes no memory holds.
INTS = [-1, 0, 1, 2, 3, 2**31, 2**63 - 1, 2**63, 2**64, 10**9, 10**30, -10**30]
OTHERS = [True, False, None, "", "3", "min", "rbar", "csc", "ring", "fixed", "delayed", [], [0.5],
          [0.1, 0.2, 0.3], [0.5, math.nan, 0.5], [True, 0.5, 0.5], {}, {"n": 3}]
# Sweeps run their trials one after another, and a huge count is a long
# run, not a stall: trials stays small.
TRIALS = [-1, 0, 1, 3, True, 2.0, "2", None]
DELETE = object()

SWEEPS = [
    {"protocol": "min", "trials": 2, "n": 4},
    {"protocol": "r", "trials": 2, "n": 3, "t_max": 6},
    {"protocol": "rbar", "trials": 1, "n": 3, "ell": 4, "t_max": 20},
    {"protocol": "rbard", "trials": 1, "n": 3, "size_bound": 4, "ell": 4, "s_max": 2},
    {"protocol": "r", "trials": 1, "n": 4, "schedule_kind": "delayed", "delay": 2, "t_max": 8},
    {"protocol": "min", "trials": 1, "n": 5, "schedule_kind": "c_connected", "c": 2, "seed": 7},
    {"protocol": "rbar", "trials": 1, "n": 4, "schedule_kind": "blocking", "ell": 4, "t_max": 8,
     "beta": 0.1},
    {"protocol": "min", "trials": 1, "n": 4, "schedule_kind": "ring", "inputs": [0.1, 0.2, 0.3, 0.4]},
    {"protocol": "r", "trials": 1, "n": 3, "schedule_kind": "complete", "a": -1.0, "b": 0.5,
     "epsilon": 0.4, "eta": 0.3, "slack_sigmas": 0.0},
]
CONFIG_KEYS = [f.name for f in fields(hn.ExperimentConfig)] + ["bogus"]

RUNS = [
    ["--protocol", "min", "--n", "4"],
    ["--protocol", "r", "--n", "3", "--t-max", "6"],
    ["--protocol", "rbar", "--n", "3", "--t-max", "30"],
    ["--protocol", "rbard", "--n", "3", "--bigN", "3", "--s-max", "2"],
    ["--protocol", "min", "--n", "4", "--schedule", "delayed:2"],
    ["--protocol", "r", "--n", "5", "--schedule", "c_connected:2", "--t-max", "5"],
    ["--protocol", "rbar", "--n", "4", "--schedule", "blocking:4", "--t-max", "8"],
    ["--protocol", "min", "--n", "4", "--schedule", "ring", "--seed", "3"],
    ["--protocol", "min", "--n", "4", "--schedule", "complete", "--a", "-1", "--b", "2"],
]
FLAGS = ["--protocol", "--n", "--epsilon", "--eta", "--a", "--b", "--bigN", "--schedule",
         "--t-max", "--seed", "--s-max", "--bogus"]
WORDS = ["0", "-0", "1", "-1", "2", "1e3", "0.5", repr(ULP_BELOW_HALF), "5e-324", "-5e-324",
         "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1.7976931348623157e308", str(10**30),
         str(-10**30), str(2**63), "true", "", "x", "0x10", "1_0", " 3", "min", "rbard"]
SCHEDULES = ["csc", "ring", "complete", "delayed:0", "delayed:1", "delayed:1000000000",
             f"delayed:{10**30}", "c_connected:0", "c_connected:1", f"c_connected:{10**30}",
             "blocking:2", "blocking:3", "blocking:-2", f"blocking:{10**30}", "ring:1", "nope",
             "delayed:", ":", "delayed:1.5", "delayed: 2"]

config_mutations = st.lists(st.sampled_from(CONFIG_KEYS).flatmap(lambda key: st.tuples(
    st.just(key), st.sampled_from([DELETE, *(TRIALS if key == "trials" else
                                           FLOATS + INTS + OTHERS)]))), min_size=1, max_size=3)
argv_mutations = st.lists(st.sampled_from(FLAGS).flatmap(lambda flag: st.tuples(
    st.just(flag), st.sampled_from([DELETE, *WORDS, *(SCHEDULES if flag == "--schedule" else ())]))),
    min_size=1, max_size=3)


@pytest.fixture(scope="module")
def front_door(tmp_path_factory):
    """The temporary directory, and call(argv, capsys): cli.cli at 256 MiB of
    physical memory, with the checks every example shares."""
    mp = pytest.MonkeyPatch()
    built, stream = [], hn.RngStream
    mp.setattr(eng, "_physical_memory", lambda: 256 << 20)
    mp.setattr(hn, "RngStream", lambda *args, **kwargs: built.append(args) or stream(*args, **kwargs))

    def call(argv, capsys):
        built.clear()
        capsys.readouterr()
        start = time.perf_counter()
        code = cli(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (code, err)
        assert elapsed < 2.0, (argv, elapsed)
        assert "Traceback" not in err, err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not built, err

    yield tmp_path_factory.mktemp("front_door"), call
    mp.undo()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(SWEEPS), mutations=config_mutations)
def test_fuzz_sweep_config(front_door, capsys, base, mutations):
    root, call = front_door
    cfg = dict(base)
    for key, value in mutations:
        if value is DELETE:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    (root / "cfg.json").write_text(json.dumps(cfg))
    call(["sweep", "--config", str(root / "cfg.json"), "--out", str(root / "out")], capsys)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(RUNS), mutations=argv_mutations)
def test_fuzz_run_argv(front_door, capsys, base, mutations):
    root, call = front_door
    flags = dict(zip(base[0::2], base[1::2]))
    for flag, value in mutations:
        if value is DELETE:
            flags.pop(flag, None)
        else:
            flags[flag] = value
    argv = [word for flag, value in flags.items() for word in (flag, value)]
    call(["run", *argv, "--out", str(root / "trace.jsonl")], capsys)
