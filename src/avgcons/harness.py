"""Monte Carlo experiment driver.

An experiment is a batch of independent trials of one protocol, each
seeded as (master seed, trial index), reduced to a Summary whose claims,
one per row of CLAIMS, mirror the protocols' guarantees, with binomial
slack so a statistically valid run never flakes.  Aggregation is a
deterministic fold over trial index, so serial and parallel execution
produce identical summaries.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import graph as gr
from .engine import PROTOCOLS, TrialConfig, TrialTrace, convergence_time, check_decision_spec, \
    check_trial_size, message_bits, run_trial
from .quantization import admissible_interval, count_levels
from .sampling import RANGES, ConcentrationParams, ProtocolParams, RngStream, _check_interval, \
    check_ranges, chernoff_bound, draw_range, empirical_tail, min_exponential_stats, rounding_ratio
from .seeds import stable_seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Template for a trial batch; JSON-serializable (schema 1).

    inputs, ell and beta may be pinned explicitly for regression or
    adversarial experiments; otherwise inputs are drawn i.i.d. uniform on
    [a, b] per trial and ell/beta come from the protocol formulas.
    """

    protocol: str
    trials: int
    n: int
    seed: int = 0
    epsilon: float = 0.3
    eta: float = 0.2
    a: float = 0.0
    b: float = 1.0
    size_bound: Optional[int] = None
    schedule_kind: str = "csc"  # a key of graph.SCHEDULE_KINDS
    delay: Optional[int] = None
    c: Optional[int] = None
    s_max: int = 0
    t_max: Optional[int] = None
    inputs: Optional[tuple[float, ...]] = None
    ell: Optional[int] = None
    beta: Optional[float] = None
    slack_sigmas: float = 3.0
    schema: int = field(default=1, init=False)

    def __post_init__(self) -> None:
        for name in ("epsilon", "eta", "a", "b", "beta", "slack_sigmas"):
            if getattr(self, name) is not None:  # so 0, 0.0 and -0.0 give one config digest
                object.__setattr__(self, name, float(getattr(self, name)) + 0.0)
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        protocol = PROTOCOLS[self.protocol]
        if not protocol.randomized and self.schedule_kind == "blocking":
            raise ValueError("blocking schedule rotates over the protocol's replicas; min has none")
        for name in ("ell", "beta", "size_bound"):
            if getattr(self, name) is not None and name not in protocol.fields:
                raise ValueError(f"protocol {self.protocol!r} takes no {name}")
        if protocol.decides and self.size_bound is None:
            raise ValueError(f"{self.protocol} requires size_bound")
        check_ranges(**{name: getattr(self, name) for name in RANGES if name in self.__dataclass_fields__})
        if not protocol.decides and self.s_max != 0:
            raise ValueError("staggered starts are only supported by rbard")
        if self.inputs is not None and len(self.inputs) != self.n:
            raise ValueError("fixed inputs must have length n")
        _check_interval(self.a, self.b, *(self.inputs or ()))
        if self.schedule_kind not in gr.SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule_kind {self.schedule_kind!r}")
        takes = gr.SCHEDULE_KINDS[self.schedule_kind][0]  # blocking's ell is the protocol's
        for name in ("delay", "c"):
            if (getattr(self, name) is None) == (name == takes):
                raise ValueError(f"schedule_kind {self.schedule_kind!r} "
                                 f"{'requires' if name == takes else 'takes no'} {name}")

    def to_json(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["inputs"] = None if self.inputs is None else list(self.inputs)
        return d


def experiment_from_json(obj: dict) -> ExperimentConfig:
    """Schema-1 config from parsed JSON; a missing, unknown or wrongly typed
    key is a ValueError naming the key."""
    return ExperimentConfig(**_fields_from_json(ExperimentConfig, obj, "config",
                                                ("protocol", "trials", "n")))


def _fields_from_json(cls, obj, what: str, required: tuple[str, ...]) -> dict:
    """Keyword arguments of the schema-1 dataclass cls from parsed JSON, less
    the schema, which is no argument; a non-object, or a missing, unknown or
    wrongly typed key, is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if obj.get("schema", 1) != 1:
        raise ValueError(f"unsupported {what} schema {obj.get('schema')!r}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in obj.items():
        if key not in hints:
            raise ValueError(f"unknown {what} key {key!r}")
        kwargs[key] = _json_value(f"{what} key {key!r}", value, hints[key])
    for key in required:
        if key not in kwargs:
            raise ValueError(f"{what} key {key!r} is required")
    kwargs.pop("schema", None)
    return kwargs


def field_type(hint) -> type:
    """X of the field type hint X or Optional[X], as JSON and `run` read it."""
    return get_args(hint)[0] if get_origin(hint) is Union else hint


def _json_value(name: str, value, hint):
    """value checked against the field type hint; an int in a float field
    becomes a float, and inputs become a tuple."""
    kind = field_type(hint)
    # type() rather than isinstance(): JSON true/false must not pass as 1/0.
    if value is None and kind is not hint or type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    if get_origin(kind) is tuple and isinstance(value, list) and all(
            type(v) in (int, float) for v in value):
        return tuple(float(v) for v in value)
    raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


@lru_cache(maxsize=64)
def build_params(cfg: ExperimentConfig) -> Optional[ProtocolParams]:
    """The protocol's formula parameters, a pinned ell or beta replacing the
    formula's; evaluated once per config, since both are frozen."""
    proto = PROTOCOLS[cfg.protocol]
    if proto.formula is None:
        return None
    if cfg.ell is None:
        size_bound = (cfg.size_bound,) if proto.decides else ()  # rbard's N
        params = proto.formula(cfg.epsilon, cfg.eta, cfg.a, cfg.b, *size_bound)
    else:  # the formula's beta only when none is pinned: at a wide [a, b] it underflows
        beta = (cfg.beta if cfg.beta is not None
                else rounding_ratio(cfg.epsilon, cfg.a, cfg.b) if proto.quantized else None)
        params = ProtocolParams(cfg.epsilon, cfg.eta, cfg.a, cfg.b, ell=cfg.ell, beta=beta,
                                size_bound=cfg.size_bound)
    return params if cfg.beta is None else replace(params, beta=cfg.beta)


def build_schedule(cfg: ExperimentConfig, trial: int,
                   params: Optional[ProtocolParams]) -> gr.DynamicSchedule:
    field_name, build = gr.SCHEDULE_KINDS[cfg.schedule_kind]
    # blocking's ell is the protocol's, which cfg.ell pins when it is set.
    param = field_name and getattr(params if field_name == "ell" else cfg, field_name, None)
    return build(cfg.n, stable_seed("schedule", cfg.seed, trial), param)


def trial_config(cfg: ExperimentConfig, trial: int) -> TrialConfig:
    params, protocol = build_params(cfg), PROTOCOLS[cfg.protocol]
    # By default 4x the guarantee round, so a run that never converges is
    # told apart from a slow one; the start rounds below make s_max exact.
    sweep = gr.flooding_length(cfg.n, cfg.delay, cfg.c)
    t_max = cfg.t_max if cfg.t_max is not None else 4 * protocol.bound(cfg.n, sweep, params, cfg.s_max)
    check_trial_size(protocol, cfg.n, t_max, params)  # before complete's n^2 edges or any draw
    # The inputs' mean, and for a randomized protocol the shifted sum n (b - a + 1)
    # and the estimate a - 1 + Y/X, where Y/X is at most the largest draw over the
    # least (rates 1 and b - a + 1), 1 + beta more on the grid; the sum and the
    # ratio are doubled for rounding.  n is bounded by memory now.
    sizes, w = {"mean": cfg.n * max(abs(cfg.a), abs(cfg.b))}, cfg.b - cfg.a + 1.0
    if protocol.randomized:
        least, most = draw_range(1.0)
        beta = params.beta or 0.0
        sizes["shifted sum"] = 2.0 * cfg.n * w
        sizes[f"estimated mean at beta={beta}" if beta else "estimated mean"] = (
            abs(cfg.a - 1.0) + 2.0 * most / least * w * (1.0 + beta))
    for what, size in sizes.items():
        if not math.isfinite(size):
            raise ValueError(f"the {what} of n={cfg.n} inputs in [{cfg.a}, {cfg.b}] can overflow")
    schedule = build_schedule(cfg, trial, params)
    if protocol.quantized:
        admissible_interval(params, cfg.n)  # evaluate_trial's level budget needs a normal z

    if cfg.inputs is not None:
        inputs = cfg.inputs
    else:
        us = RngStream(cfg.seed, trial=trial, agent=0, purpose="inputs").uniforms(cfg.n)
        inputs = tuple(float(cfg.a + (cfg.b - cfg.a) * u) for u in us)

    if cfg.s_max > 0:
        st = RngStream(cfg.seed, trial=trial, agent=0, purpose="starts")
        starts = [1 + int(u * (cfg.s_max + 1)) for u in st.uniforms(cfg.n)]
        starts = [min(s, cfg.s_max + 1) for s in starts]
        # Pin one agent to the last start so s_max is exact, not just a cap.
        starts[int(st.uniform() * cfg.n) % cfg.n] = cfg.s_max + 1
        start_rounds = tuple(starts)
    else:
        start_rounds = (1,) * cfg.n

    return TrialConfig(protocol=cfg.protocol, params=params, inputs=inputs, schedule=schedule,
                       start_rounds=start_rounds, t_max=t_max, seed=cfg.seed, trial=trial)


# ---------------------------------------------------------------------------
# per-trial evaluation


def stationary_bound(tc: TrialConfig) -> Optional[int]:
    """Round by which the trial's vectors must be globally agreed: its round
    bound, or None when the schedule gives no such guarantee (blocking,
    delayed + entry rotation) or the protocol decides instead (rbard)."""
    kind, protocol = tc.schedule.kind, PROTOCOLS[tc.protocol]
    if kind == "blocking" or protocol.decides or (protocol.rotates and kind == "delayed"):
        return None
    return protocol.bound(tc.n, tc.schedule.sweep, tc.params, tc.s_max)


def offline_minima(trace: TrialTrace) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise minima over all agents' initial vectors: the values every
    stationary run must hold."""
    if trace.init_offsets is not None:
        return tuple(np.add(trace.init_offsets.min(axis=1), trace.init_span[0], dtype=np.int64))
    return tuple(trace.init_raw.min(axis=1))


def _at_offline_minima(trace: TrialTrace, vector_pairs) -> bool:
    min_x, min_y = offline_minima(trace)
    distinct = {(id(x), id(y)): (x, y) for x, y in vector_pairs}  # agents share a pair after a freeze
    return all(np.array_equal(x, min_x) and np.array_equal(y, min_y) for x, y in distinct.values())


def _estimates_settled(trace: TrialTrace, bound: int) -> bool:
    """All estimates bit-identical across agents and constant from the
    bound round to the horizon."""
    if bound > trace.t_max:
        return False
    tail = trace.estimates[bound - 1 :]
    ref = tail[0, 0]
    return bool(not math.isnan(ref) and (tail == ref).all())


def evaluate_trial(cfg: ExperimentConfig, trace: TrialTrace) -> dict:
    """Reduce one trace to the flat JSON record the summary fold consumes."""
    tc, protocol = trace.config, PROTOCOLS[trace.config.protocol]
    params, last, bound = tc.params, trace.estimates[-1, 0], stationary_bound(tc)
    rec: dict = {
        "trial": 0,  # overwritten by run_one
        "theta": trace.theta,
        "final_estimate": None if math.isnan(last) else float(last),
        "converged_at": convergence_time(trace, cfg.epsilon) if params else None,
        "stationary_bound": bound,
        "stationary_ok": None,
    }
    if bound is not None:
        # min keeps no vectors: its settled estimate is the minimum itself.
        rec["stationary_ok"] = bool(_estimates_settled(trace, bound) and (
            _at_offline_minima(trace, ((s.x_vec, s.y_vec) for s in trace.final_states))
            if protocol.randomized else last == min(tc.inputs)))

    if params is not None:
        rec["accurate"] = bool(not math.isnan(last) and abs(last - trace.theta) <= cfg.epsilon)

    if protocol.quantized:
        z, upper = admissible_interval(params, trace.n)
        draws = trace.init_raw
        rec["samples_in_interval"] = bool(draws.min() >= z and draws.max() <= upper)  # NaN fails
        report = message_bits(trace)
        rec["distinct_exponents"] = report.distinct_exponents
        rec["level_budget"] = count_levels(z, upper, params.beta)
        rec["levels_ok"] = bool(rec["samples_in_interval"]
                                and report.distinct_exponents <= rec["level_budget"])
        rec["max_message_bits"] = int(report.per_message_max)

    if protocol.decides:
        dr = check_decision_spec(trace, cfg.epsilon)
        rounds, finals = trace.decision_rounds, trace.decisions[-1]
        rec["decision_bound"] = protocol.bound(tc.n, tc.schedule.sweep, params, tc.s_max)
        rec["irrevocable"] = dr.irrevocability
        rec["all_decided_by_bound"] = bool((rounds > 0).all()
                                           and (rounds <= rec["decision_bound"]).all())
        rec["decisions_identical"] = bool(dr.termination and (finals == finals[0]).all())
        rec["decisions_valid"] = dr.validity and dr.termination
        rec["decided_when_stationary"] = bool(
            (rounds > 0).all() and _at_offline_minima(trace, trace.decision_vectors.values()))
        rec["decision_good"] = all(rec[k] for k in ("all_decided_by_bound", "decisions_identical",
                                                    "decisions_valid", "decided_when_stationary"))
        rec["last_decision_round"] = dr.last_decision_round

    return rec


def run_one(cfg: ExperimentConfig, trial: int) -> dict:
    trace = run_trial(trial_config(cfg, trial))
    rec = evaluate_trial(cfg, trace)
    rec["trial"] = trial
    return rec


# ---------------------------------------------------------------------------
# summary fold


# A row of CLAIMS: a claim on the fraction of trials whose record key holds
# (op ">=") or fails ("<="), against 1 (or 0), less (plus) eta * share and its
# binomial slack when tolerant.  It is made when a record sets the key and,
# unless deciding is None, the protocol decides exactly when deciding is True.
Claim = NamedTuple("Claim", [("name", str), ("key", str), ("op", str),
                             ("deciding", Optional[bool]), ("tolerant", bool)])
CLAIMS = (  # the paper's guarantees, in summary order
    Claim("stationary_by_bound", "stationary_ok", ">=", deciding=None, tolerant=False),
    Claim("accuracy_failure_rate", "accurate", "<=", deciding=False, tolerant=True),
    Claim("quantization_levels", "levels_ok", ">=", deciding=False, tolerant=True),
    Claim("irrevocability", "irrevocable", ">=", deciding=True, tolerant=False),
    Claim("decision_good_rate", "decision_good", ">=", deciding=True, tolerant=True),
)


@dataclass
class Summary:
    """Aggregated verdicts of a batch; reproducible from the trial records."""

    protocol: str
    trials: int
    failure_fraction: Optional[float] = None
    mean_convergence_round: Optional[float] = None
    max_convergence_round: Optional[int] = None
    max_distinct_exponents: Optional[int] = None
    max_message_bits: Optional[int] = None
    decision_rounds: Optional[dict] = None
    claims: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    schema: int = field(default=1, init=False)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def summary_from_json(obj: dict) -> Summary:
    """Summary from parsed JSON; a malformed summary is a ValueError naming
    the key."""
    kwargs = _fields_from_json(Summary, obj, "summary", ("protocol", "trials"))
    for name, claim in kwargs.get("claims", {}).items():
        for key in ("observed", "bound", "passed"):
            if not isinstance(claim, dict) or key not in claim:
                raise ValueError(f"summary claim {name!r} needs key {key!r}")
    return Summary(**kwargs)


def _slack(p: float, trials: int, sigmas: float) -> float:
    return sigmas * math.sqrt(p * (1.0 - p) / trials)


def summary_from_records(cfg: ExperimentConfig, records: list[dict]) -> Summary:
    trials, protocol = len(records), PROTOCOLS[cfg.protocol]
    s = Summary(protocol=cfg.protocol, trials=trials, config=cfg.to_json())

    conv = [r["converged_at"] for r in records if r.get("converged_at") is not None]
    if conv:
        s.mean_convergence_round = float(np.mean(conv))
        s.max_convergence_round = int(max(conv))

    # The failure probability a tolerant claim allows, and its binomial slack.
    p = cfg.eta * protocol.share
    slack = _slack(p, trials, cfg.slack_sigmas)
    for c in CLAIMS:
        if c.deciding in (None, protocol.decides) and any(r.get(c.key) is not None for r in records):
            holds = c.op == ">="
            tp, ts = (p, slack) if c.tolerant else (0.0, 0.0)
            observed = float(np.mean([bool(r[c.key]) is holds for r in records]))
            bound = 1.0 - tp - ts if holds else tp + ts
            s.claims[c.name] = {"observed": observed, "bound": bound, "op": c.op,
                                "passed": observed >= bound if holds else observed <= bound}
    s.failure_fraction = s.claims.get("accuracy_failure_rate", {}).get("observed")

    if protocol.quantized:
        s.max_distinct_exponents = max(r["distinct_exponents"] for r in records)
        s.max_message_bits = max(r["max_message_bits"] for r in records)
    if protocol.decides:
        rounds = [r["last_decision_round"] for r in records if r["last_decision_round"]]
        if rounds:
            s.decision_rounds = {"min": int(min(rounds)), "mean": float(np.mean(rounds)),
                                 "max": int(max(rounds))}
    return s


def monte_carlo(
    cfg: ExperimentConfig,
    records_path: Optional[Path] = None,
    summary_path: Optional[Path] = None,
    jobs: int = 1,
) -> Summary:
    """Run the batch, fold the records in trial order, optionally persist
    both.  jobs > 1 runs trials in worker processes; the fold is the same
    either way, so the summary is too."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import, so only when used
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_one, repeat(cfg), range(cfg.trials)))
    else:
        records = [run_one(cfg, i) for i in range(cfg.trials)]

    summary = summary_from_records(cfg, records)
    if records_path is not None:
        with open(records_path, "w") as fp:
            for rec in records:
                fp.write(json.dumps(rec, allow_nan=False) + "\n")
    if summary_path is not None:
        with open(summary_path, "w") as fp:
            json.dump(summary.to_json(), fp, indent=2, allow_nan=False)
            fp.write("\n")
    return summary


def render_csv(summary: Summary) -> str:
    """Fixed-column CSV: section,name,observed,bound,passed.  The stat rows
    are Summary's set numeric fields in field order, then one row per
    decision_rounds key."""
    lines = ["section,name,observed,bound,passed"]
    for f in fields(Summary):
        value = getattr(summary, f.name)
        if f.name == "decision_rounds":
            lines += [f"stat,decision_round_{k},{v},," for k, v in (value or {}).items()]
        elif value is not None and f.name not in ("protocol", "claims", "config", "schema"):
            lines.append(f"stat,{f.name},{value},,")
    for name, c in summary.claims.items():
        lines.append(f"claim,{name},{c['observed']},{c['bound']},{c['passed']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# property suites shared by the CLI and the acceptance tests


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str


def verify_graph_claims(seed: int = 0, product_cases: int = 500, c_cases: int = 200) -> list[ClaimResult]:
    """Empirical checks of the graph-product facts the protocols rest on."""
    check_ranges(product_cases=product_cases, c_cases=c_cases)
    results = []
    rng = random.Random(stable_seed("verify-graph", seed))

    # Product of n-1 strongly connected self-looped graphs is complete.
    bad = 0
    for _ in range(product_cases):
        n = rng.randint(2, 5)
        g = gr.random_c_in_connected(n, 1, rng)
        for _ in range(n - 2):
            g = gr.product(g, gr.random_c_in_connected(n, 1, rng))
        bad += not gr.is_complete(g)
    results.append(ClaimResult("product_of_n_minus_1_complete", bad == 0,
                               f"{product_cases - bad}/{product_cases} complete (n in 2..5)"))

    # Product of ceil(n/c) c-in-connected graphs is complete.
    bad = 0
    total = 0
    for n in range(2, 7):
        for c in (1, 2, 3):
            for _ in range(c_cases):
                total += 1
                g = gr.random_c_in_connected(n, c, rng)
                for _ in range(math.ceil(n / c) - 1):
                    g = gr.product(g, gr.random_c_in_connected(n, c, rng))
                bad += not gr.is_complete(g)
    results.append(ClaimResult("c_in_connected_speedup", bad == 0,
                               f"{total - bad}/{total} complete (n in 2..6, c in 1..3)"))

    # Associativity of the product on random triples.
    bad = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        g, h, k = (gr.random_c_in_connected(n, 1, rng) for _ in range(3))
        bad += gr.product(gr.product(g, h), k) != gr.product(g, gr.product(h, k))
    results.append(ClaimResult("product_associative", bad == 0, f"{200 - bad}/200 triples"))

    # Every schedule generator's output keeps all self-loops.
    bad = 0
    params = {"delay": 3, "c": 2, "ell": 4}
    for field_name, build in gr.SCHEDULE_KINDS.values():
        sched = build(5, seed, params.get(field_name))
        for t in range(1, 31):
            g = sched.graph_at(t)
            bad += not all(v in us for v, us in enumerate(g.in_neighbor_lists))
    results.append(ClaimResult("schedules_keep_self_loops", bad == 0,
                               f"{len(gr.SCHEDULE_KINDS)} kinds x 30 rounds"))
    return results


def verify_bound_claims(seed: int = 0, reps: int = 10_000) -> list[ClaimResult]:
    """Empirical checks of the concentration facts behind the parameters,
    each tail within three binomial sigmas of its bound."""
    check_ranges(reps=reps)  # before any draw
    results = []

    # Minimum of independent exponentials: rate adds up.
    rates = [1.0, 2.0, 3.0, 4.0, 5.0]
    total = sum(rates)
    stream = RngStream(seed, purpose="verify-min")
    mean, surv = min_exponential_stats(rates, [0.02, 0.05, 0.1], 100_000, stream)
    mean_ok = abs(mean - 1.0 / total) <= 0.01 / total
    surv_ok = all(
        abs(f - math.exp(-total * x)) <= 0.01 for f, x in zip(surv, [0.02, 0.05, 0.1])
    )
    results.append(ClaimResult("min_of_exponentials", mean_ok and surv_ok,
                               f"mean={mean:.6f} (expect {1 / total:.6f}), survival gaps within 0.01"))

    # Mean deviation bound, plain and rounded.
    for ell, alpha in ((50, 0.1), (100, 0.2), (300, 0.1)):
        for rate in (1.0, 3.0):
            for beta in (None, 0.1):
                cp = ConcentrationParams(ell=ell, rate=rate, alpha=alpha, beta=beta)
                stream = RngStream(seed, purpose=f"verify-tail-{ell}-{alpha}-{rate}-{beta}")
                freq = empirical_tail(cp, reps, stream)
                bound = chernoff_bound(ell, alpha)
                capped = min(bound, 1.0)
                limit = bound + _slack(capped, reps, 3.0)
                tag = "rounded" if beta else "plain"
                results.append(
                    ClaimResult(
                        f"tail_l{ell}_a{alpha}_r{rate:g}_{tag}",
                        freq <= limit,
                        f"freq={freq:.4f} <= bound {bound:.4f} + slack",
                    )
                )
    return results
