"""Round-based execution of one trial, and checks over the recorded trace.

A round is communication closed: every agent emits its outbox message,
agent v receives the message of u exactly when the edge (u, v) is in the
round's graph (so every agent hears itself), and then every agent applies
its transition; ``run_trial`` computes the transitions that the machines
in ``protocol`` define for the whole network at once.  Snapshots follow
the end-of-round convention: row t-1 of every per-round array reflects
the state at the *end* of round t.

The schedule is a pure function of its own seed, never of the protocol
seed, so the topology cannot react to the agents' random choices.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import IO, Callable, Optional

import numpy as np

from . import protocol as proto
from .graph import DynamicSchedule
from .quantization import quantize_array
from .sampling import ProtocolParams, RngStream, params_r, params_rbar, params_rbard


@dataclass(frozen=True)
class Protocol:
    """What differs between the protocols, other than their rounds: the
    optional ExperimentConfig fields each takes, its sampling.params_*
    formula (None for min), the round bound(schedule, params, s_max) by
    which its guarantee is due, and the share of eta its claims tolerate."""

    fields: tuple[str, ...]
    formula: Optional[Callable[..., ProtocolParams]]
    bound: Callable[[DynamicSchedule, Optional[ProtocolParams], int], int]
    share: float = 1.0


# min and r are stationary after the schedule's flooding length, rbar after
# one rotation per hop (ell*n); rbard decides by round s_max + 2n.
PROTOCOLS = {
    "min": Protocol((), None, lambda sched, p, s_max: sched.sweep),
    "r": Protocol(("ell",), params_r, lambda sched, p, s_max: sched.sweep),
    "rbar": Protocol(("ell", "beta"), params_rbar, lambda sched, p, s_max: p.ell * sched.n, 0.5),
    "rbard": Protocol(("ell", "beta", "size_bound"), params_rbard,
                      lambda sched, p, s_max: s_max + 2 * sched.n),
}


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial depends on; traces are pure functions of this.

    start_rounds stagger activation for the deciding protocol: agent u is
    passive (emitting heartbeats) strictly before round start_rounds[u].
    The other protocols require all-1 start rounds.  checkpoint_rounds
    lists rounds at which full vector snapshots are kept in the trace.
    """

    protocol: str
    params: Optional[ProtocolParams]
    inputs: tuple[float, ...]
    schedule: DynamicSchedule
    start_rounds: tuple[int, ...]
    t_max: int
    seed: int
    trial: int = 0
    checkpoint_rounds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        n = self.schedule.n
        if len(self.inputs) != n or len(self.start_rounds) != n:
            raise ValueError(
                f"inputs ({len(self.inputs)}) and start_rounds ({len(self.start_rounds)}) "
                f"must match schedule.n ({n})"
            )
        if self.protocol != "min" and self.params is None:
            raise ValueError(f"protocol {self.protocol!r} requires params")
        if "beta" in PROTOCOLS[self.protocol].fields and self.params.beta is None:
            raise ValueError(f"protocol {self.protocol!r} requires params.beta")
        if not all(math.isfinite(x) for x in self.inputs):
            raise ValueError(f"inputs must be finite, got {self.inputs}")
        if any(s < 1 for s in self.start_rounds):
            raise ValueError("start rounds must be >= 1")
        if self.protocol != "rbard" and any(s != 1 for s in self.start_rounds):
            raise ValueError(f"protocol {self.protocol!r} requires synchronous starts")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if any(not 1 <= t <= self.t_max for t in self.checkpoint_rounds):
            raise ValueError(f"checkpoint rounds {self.checkpoint_rounds} not in [1, {self.t_max}]")
        if self.protocol == "min" and self.checkpoint_rounds:
            raise ValueError("protocol 'min' keeps no vectors to checkpoint")
        # -0.0 ties 0.0 in a minimum; one sign keeps every engine's result equal.
        object.__setattr__(self, "inputs", tuple(x + 0.0 for x in self.inputs))

    @property
    def n(self) -> int:
        return self.schedule.n

    @property
    def s_max(self) -> int:
        """Last round in which some agent is still passive."""
        return max(self.start_rounds) - 1

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "params": None if self.params is None else self.params.to_json(),
            "inputs": list(self.inputs),
            "schedule": self.schedule.to_json(),
            "start_rounds": list(self.start_rounds),
            "t_max": self.t_max,
            "seed": self.seed,
            "trial": self.trial,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(eq=False)
class TrialTrace:
    """Per-round record of one trial, with the config that produced it.

    estimates[t-1, u] is agent u's estimate at the end of round t (NaN
    while unset); counters likewise, for the deciding protocol only.  That
    protocol's estimate is its decision, so its decisions array is the
    estimates array itself.  init_* arrays hold every agent's generated
    samples (raw, and quantized where applicable), which pin down the
    offline entrywise minima that a stationary run must reach.
    """

    config: TrialConfig
    theta: float
    estimates: np.ndarray
    decisions: Optional[np.ndarray] = None
    counters: Optional[np.ndarray] = None
    init_x_raw: Optional[np.ndarray] = None
    init_y_raw: Optional[np.ndarray] = None
    init_x_quant: Optional[np.ndarray] = None
    init_y_quant: Optional[np.ndarray] = None
    final_states: list = field(default_factory=list)
    decision_rounds: Optional[np.ndarray] = None
    decision_vectors: dict = field(default_factory=dict)
    checkpoints: dict = field(default_factory=dict)

    @property
    def t_max(self) -> int:
        return self.estimates.shape[0]

    @property
    def n(self) -> int:
        return self.estimates.shape[1]


def run_trial(cfg: TrialConfig) -> TrialTrace:
    """Run every round of one trial on whole-network matrices, row v
    holding agent v's vector.  Every protocol is entrywise-minimum
    propagation, and the minimum is idempotent and order-free, so this
    gives the bits of the per-agent machines of ``protocol``: an agent's
    vectors are the minimum of the initial rows that have reached it, and
    each derived float is the same formula applied to the same row."""
    trace = _new_trace(cfg)
    (_rotation_rounds if cfg.protocol == "rbar" else _reach_rounds)(cfg, trace)
    return trace


def _new_trace(cfg: TrialConfig) -> TrialTrace:
    """The trace before round 1: every agent's draws, sampled once, and the
    per-round arrays, allocated in full so a horizon too large fails now."""
    p = cfg.params
    draws = None if cfg.protocol == "min" else [
        proto.init_samples(theta, p, RngStream(cfg.seed, trial=cfg.trial, agent=u, purpose="init"))
        for u, theta in enumerate(cfg.inputs)
    ]
    n, t_max = cfg.n, cfg.t_max
    trace = TrialTrace(config=cfg, theta=float(np.mean(cfg.inputs)),
                       estimates=np.full((t_max, n), np.nan))
    if cfg.protocol == "rbard":
        trace.decisions = trace.estimates
        trace.counters = np.zeros((t_max, n), dtype=np.int64)
        trace.decision_rounds = np.full(n, -1, dtype=np.int64)
    if draws is not None:
        trace.init_x_raw = np.stack([x for x, _ in draws])
        trace.init_y_raw = np.stack([y for _, y in draws])
    if cfg.protocol in ("rbar", "rbard"):
        # quantize_array is elementwise, so this quantizes each row.
        trace.init_x_quant = quantize_array(trace.init_x_raw, p.beta)
        trace.init_y_quant = quantize_array(trace.init_y_raw, p.beta)
    return trace


def _reach_rounds(cfg: TrialConfig, trace: TrialTrace) -> None:
    """The rounds of min (one column), r and rbard.  Agent v's reach set,
    an n-bit int, holds the agents whose initial rows reached it; a round
    ORs in its in-neighbours' previous-round sets (for rbard only active
    senders count, only active receivers update, and a heartbeat resets
    the counter).  Only newly reached rows are folded in, and the derived
    float (the min or r estimate, rbard's n_est) is recomputed only when
    the set grew or on the agent's first active round."""
    n, p, protocol = cfg.n, cfg.params, cfg.protocol
    if protocol == "min":
        inits = (np.array(cfg.inputs, dtype=np.float64)[:, None],)
        derive = lambda v: float(xs[v, 0])
    elif protocol == "r":
        inits = (trace.init_x_raw, trace.init_y_raw)
        derive = lambda v: proto.r_estimate(xs[v], ys[v], p)
    else:
        inits = (trace.init_x_quant, trace.init_y_quant)
        derive = lambda v: proto.rbard_size_estimate(ys[v], p)
    rows = [m.copy() for m in inits]
    xs, ys = rows[0], rows[-1]
    rbard = protocol == "rbard"
    starts, s_max, full = cfg.start_rounds, cfg.s_max, (1 << n) - 1
    reach, counter = [1 << v for v in range(n)], [0] * n
    value, decision = [math.nan] * n, [math.nan] * n
    checkpoints = set(cfg.checkpoint_rounds)

    for t in range(1, cfg.t_max + 1):
        ins = cfg.schedule.graph_at(t).in_neighbor_lists
        prev, prev_counter = reach, counter
        reach, counter = prev[:], prev_counter[:]
        for v, src in enumerate(ins):
            heartbeat = False
            if t <= s_max:  # some agent is still passive
                if t < starts[v]:
                    continue  # a passive agent discards its inbox
                heard = [u for u in src if t >= starts[u]]
                heartbeat = len(heard) < len(src)
                src = heard
            if prev[v] != full:
                got = prev[v]
                for u in src:
                    got |= prev[u]
                new = got & ~prev[v]
                if new:
                    reach[v] = got
                    idx = [u for u in range(n) if new >> u & 1]
                    for m, m0 in zip(rows, inits):
                        np.minimum(m[v], m0[idx].min(axis=0), out=m[v])
            if reach[v] != prev[v] or t == starts[v]:
                value[v] = derive(v)
            if rbard:
                counter[v] = 0 if heartbeat else 1 + min([prev_counter[u] for u in src])
                if math.isnan(decision[v]) and proto.rbard_decides(counter[v], value[v]):
                    decision[v] = proto.quantized_estimate(xs[v], ys[v], p)
                    trace.decision_rounds[v] = t
                    trace.decision_vectors[v] = (xs[v].copy(), ys[v].copy())
        if rbard:
            trace.estimates[t - 1] = decision
            trace.counters[t - 1] = counter
        else:
            trace.estimates[t - 1] = value
        if t in checkpoints:
            trace.checkpoints[t] = [(xs[v].copy(), ys[v].copy()) for v in range(n)]

    if protocol == "min":
        trace.final_states = [proto.MinState(x) for x in value]
    elif protocol == "r":
        trace.final_states = [proto.RState(xs[v], ys[v], value[v], p) for v in range(n)]
    else:
        trace.final_states = [
            proto.RbarDState(xs[v], ys[v], counter[v], _unset(value[v]), _unset(decision[v]),
                             starts[v], cfg.t_max, p)
            for v in range(n)
        ]


# Cells (rounds times n^2) in one block of _rotation_rounds: it bounds the
# block's adjacency and masked-minimum arrays at any n.
_BLOCK_CELLS = 1 << 16


def _rotation_rounds(cfg: TrialConfig, trace: TrialTrace) -> None:
    """The rounds of rbar: round t exchanges entry (t-1) mod ell of every
    agent, so only that column of the exponent matrices changes, and no two
    columns interact.  A block of rounds inside one rotation touches each
    of its columns once, so it is one masked minimum over the block's
    in-adjacency A: new[v, i] = min of old[u, i] over u with A[k, v, u],
    k the round of column i.  A block ends at a wrap, where the estimates
    are refreshed, at a checkpoint round, at t_max, or at _BLOCK_CELLS."""
    n, p, t_max = cfg.n, cfg.params, cfg.t_max
    xs, ys = trace.init_x_quant.copy(), trace.init_y_quant.copy()
    est = [math.nan] * n
    stops = sorted({*cfg.checkpoint_rounds, t_max})
    cap = max(1, _BLOCK_CELLS // (n * n))
    t = 1
    while t <= t_max:
        i = (t - 1) % p.ell
        last = min(t - 1 + p.ell - i, stops[bisect.bisect_left(stops, t)], t - 1 + cap)
        adj = cfg.schedule.in_adjacency(t, last + 1)
        for m in (xs, ys):
            cols = m[:, i : i + len(adj)].T  # cols[k, u]: agent u's entry of round t+k
            m[:, i : i + len(adj)] = np.minimum.reduce(
                np.broadcast_to(cols[:, None, :], adj.shape), axis=2, where=adj,
                initial=np.iinfo(m.dtype).max).T
        trace.estimates[t - 1 : last] = est
        if last % p.ell == 0:
            est = [proto.quantized_estimate(xs[v], ys[v], p) for v in range(n)]
            trace.estimates[last - 1] = est
        if last in cfg.checkpoint_rounds:
            trace.checkpoints[last] = [(xs[v].copy(), ys[v].copy()) for v in range(n)]
        t = last + 1
    trace.final_states = [proto.RbarState(xs[v], ys[v], t_max % p.ell, _unset(est[v]), p)
                          for v in range(n)]


def _unset(f: float) -> Optional[float]:
    """None for a float that is not set yet (NaN)."""
    return None if math.isnan(f) else f


def convergence_time(trace: TrialTrace, epsilon: float) -> Optional[int]:
    """Smallest round t* with every estimate inside [theta +- epsilon] in
    every round from t* to the horizon; None if the horizon ends outside."""
    inside = np.abs(trace.estimates - trace.theta) <= epsilon  # NaN compares False
    ok = inside.all(axis=1)
    if not ok[-1]:
        return None
    bad = np.flatnonzero(~ok)
    return 1 if len(bad) == 0 else int(bad[-1]) + 2


@dataclass(frozen=True)
class DecisionReport:
    termination: bool
    irrevocability: bool
    validity: bool
    last_decision_round: Optional[int]


def check_decision_spec(trace: TrialTrace, epsilon: float) -> DecisionReport:
    """Literal evaluation of the three decision predicates over a trace:
    every agent eventually decides (within the horizon), a written
    decision is never changed or erased, and every written decision lies
    within epsilon of the true average."""
    d = trace.decisions
    if d is None:
        raise ValueError("decision checks require a deciding-protocol trace")
    set_mask = ~np.isnan(d)

    termination = bool(set_mask[-1].all())

    irrevocability = True
    for u in range(trace.n):
        rows = np.flatnonzero(set_mask[:, u])
        if len(rows) == 0:
            continue
        first = rows[0]
        tail = d[first:, u]
        if np.isnan(tail).any() or not (tail == d[first, u]).all():
            irrevocability = False
            break

    written = d[set_mask]
    validity = bool((np.abs(written - trace.theta) <= epsilon).all())

    first_rounds = [int(np.flatnonzero(set_mask[:, u])[0]) + 1
                    for u in range(trace.n) if set_mask[:, u].any()]
    last_decision_round = max(first_rounds) if first_rounds else None

    return DecisionReport(termination, irrevocability, validity, last_decision_round)


@dataclass(frozen=True)
class MessageBitsReport:
    """Bit accounting for every message sent in a trial.

    The rule is post hoc and global: a quantized entry costs the width in
    bits of the closed integer range covering every exponent observed in
    the trial, a counter costs ceil(log2(C_max + 1)), a real costs 64,
    and a heartbeat costs 1.  per_round[t-1] totals all n messages of
    round t.
    """

    per_round: np.ndarray
    per_message_max: int
    distinct_exponents: Optional[int]


def message_bits(trace: TrialTrace) -> MessageBitsReport:
    n, t_max = trace.n, trace.t_max
    protocol, params = trace.config.protocol, trace.config.params

    if protocol == "min":
        per_round = np.full(t_max, 64 * n, dtype=np.int64)
        return MessageBitsReport(per_round, 64, None)

    if protocol == "r":
        per_msg = 2 * params.ell * 64
        return MessageBitsReport(np.full(t_max, per_msg * n, dtype=np.int64), per_msg, None)

    exponents = np.concatenate([trace.init_x_quant.ravel(), trace.init_y_quant.ravel()])
    lo, hi = int(exponents.min()), int(exponents.max())
    entry_bits = math.ceil(math.log2(hi - lo + 1)) if hi > lo else 0
    distinct = int(len(np.unique(exponents)))

    if protocol == "rbar":
        cursor_bits = math.ceil(math.log2(params.ell)) if params.ell > 1 else 0
        per_msg = cursor_bits + 2 * entry_bits
        return MessageBitsReport(np.full(t_max, per_msg * n, dtype=np.int64), per_msg, distinct)

    # rbard: heartbeats cost 1 bit; active messages carry the counter and
    # both full vectors.
    c_max = int(trace.counters.max()) if trace.counters.size else 0
    counter_bits = math.ceil(math.log2(c_max + 1)) if c_max > 0 else 0
    full_bits = counter_bits + 2 * params.ell * entry_bits
    rounds = np.arange(1, t_max + 1)[:, None]
    n_active = (rounds >= np.asarray(trace.config.start_rounds)[None, :]).sum(axis=1)
    per_round = (n - n_active) * 1 + n_active * full_bits
    per_message_max = full_bits if n_active.any() else 1
    return MessageBitsReport(per_round.astype(np.int64), per_message_max, distinct)


def dump_trace_jsonl(trace: TrialTrace, fp: IO[str]) -> None:
    """JSON-Lines dump: a metadata header, then one object per round."""
    cfg = trace.config
    header = {
        "config": cfg.digest(),
        "protocol": cfg.protocol,
        "n": trace.n,
        "t_max": trace.t_max,
        "theta": trace.theta,
        "shifted_sum": None if cfg.params is None
        else float(sum(x - cfg.params.a + 1.0 for x in cfg.inputs)),
    }
    fp.write(json.dumps(header) + "\n")
    bits = message_bits(trace).per_round.tolist()
    # A round's agents list is encoded only when its row differs, as bytes,
    # from the round before: an rbar row changes only on a wrap.
    changed = np.ones(trace.t_max, dtype=bool)
    changed[1:] = False
    for a in (trace.estimates, trace.decisions, trace.counters):
        if a is not None:
            rows = a.view(np.int64)
            changed[1:] |= (rows[1:] != rows[:-1]).any(axis=1)
    agents = ""
    for t, new in enumerate(changed.tolist(), 1):
        if new:
            agents = json.dumps([_agent_json(trace, t, u) for u in range(trace.n)])
        fp.write(f'{{"t": {t}, "agents": {agents}, "msg_bits": {bits[t - 1]}}}\n')


def _agent_json(trace: TrialTrace, t: int, u: int) -> dict:
    """Agent u's entry of round t in the JSON-Lines dump."""
    x = trace.estimates[t - 1, u]
    d = None if trace.decisions is None else trace.decisions[t - 1, u]
    return {
        "x": None if math.isnan(x) else x,
        "d": None if d is None or math.isnan(d) else d,
        "C": None if trace.counters is None else int(trace.counters[t - 1, u]),
    }
