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
import os
from dataclasses import dataclass, field
from typing import IO, Callable, Optional

import numpy as np

from . import protocol as proto
from .graph import DynamicSchedule
from .quantization import dequantize_array, quantize_array
from .sampling import ProtocolParams, RngStream, params_r, params_rbar, params_rbard


@dataclass(frozen=True)
class Protocol:
    """What differs between the protocols: the optional ExperimentConfig
    fields each takes, its sampling.params_* formula (None for min), the
    round bound(schedule, params, s_max) by which its guarantee is due,
    the share of eta its claims tolerate, and whether it sends one vector
    entry per round, rotating through the entries."""

    fields: tuple[str, ...]
    formula: Optional[Callable[..., ProtocolParams]]
    bound: Callable[[DynamicSchedule, Optional[ProtocolParams], int], int]
    share: float = 1.0
    rotates: bool = False

    # Whether it averages through sampled vectors, stores them as exponents
    # on the (1+beta) grid, and writes an irrevocable decision.
    randomized = property(lambda self: self.formula is not None)
    quantized = property(lambda self: "beta" in self.fields)
    decides = property(lambda self: "size_bound" in self.fields)


# min and r are stationary after the schedule's flooding length, rbar after
# one rotation per hop (ell*n); rbard decides by round s_max + 2n.
PROTOCOLS = {
    "min": Protocol((), None, lambda sched, p, s_max: sched.sweep),
    "r": Protocol(("ell",), params_r, lambda sched, p, s_max: sched.sweep),
    "rbar": Protocol(("ell", "beta"), params_rbar, lambda sched, p, s_max: p.ell * sched.n, 0.5,
                     rotates=True),
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
        protocol = PROTOCOLS[self.protocol]
        n = self.schedule.n
        if len(self.inputs) != n or len(self.start_rounds) != n:
            raise ValueError(
                f"inputs ({len(self.inputs)}) and start_rounds ({len(self.start_rounds)}) "
                f"must match schedule.n ({n})"
            )
        if (self.params is None) == protocol.randomized:
            raise ValueError(f"protocol {self.protocol!r} "
                             f"{'requires' if protocol.randomized else 'takes no'} params")
        if protocol.quantized and self.params.beta is None:
            raise ValueError(f"protocol {self.protocol!r} requires params.beta")
        if not all(math.isfinite(x) for x in self.inputs):
            raise ValueError(f"inputs must be finite, got {self.inputs}")
        if any(s < 1 for s in self.start_rounds):
            raise ValueError("start rounds must be >= 1")
        if not protocol.decides and any(s != 1 for s in self.start_rounds):
            raise ValueError(f"protocol {self.protocol!r} requires synchronous starts")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if any(not 1 <= t <= self.t_max for t in self.checkpoint_rounds):
            raise ValueError(f"checkpoint rounds {self.checkpoint_rounds} not in [1, {self.t_max}]")
        if not protocol.randomized and self.checkpoint_rounds:
            raise ValueError(f"protocol {self.protocol!r} keeps no vectors to checkpoint")
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


@dataclass(eq=False, slots=True)
class FinalVectors:
    """One agent's vectors at the end of the horizon."""

    x_vec: np.ndarray
    y_vec: np.ndarray


@dataclass(eq=False)
class TrialTrace:
    """Per-round record of one trial, with the config that produced it.

    estimates[t-1, u] is agent u's estimate at the end of round t (NaN
    while unset); counters likewise, for the deciding protocol only.  That
    protocol's estimate is its decision, so its decisions array is the
    estimates array itself.  init_* arrays hold every agent's generated
    samples (raw, and quantized where applicable), which pin down the
    offline entrywise minima that a stationary run must reach.
    final_states[u] holds agent u's vectors after round t_max (min keeps
    none); the rest of its final state is in the last rows of the arrays.
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
    frozen, final = (_rotation_rounds if PROTOCOLS[cfg.protocol].rotates else _reach_rounds)(cfg, trace)
    trace.final_states = [FinalVectors(x, y) for x, y in zip(*final)]
    for t in sorted(t for t in cfg.checkpoint_rounds if t > frozen):  # rows are final by then
        trace.checkpoints[t] = [(s.x_vec, s.y_vec) for s in trace.final_states]
    return trace


def _physical_memory() -> int:
    """Bytes of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _new_trace(cfg: TrialConfig) -> TrialTrace:
    """The trace before round 1: every agent's draws, sampled once, and the
    per-round arrays, allocated in full so a horizon too large fails now.
    numpy's allocations succeed under overcommit and fail only when touched,
    so arrays and draws that exceed physical memory are a MemoryError before
    anything is sampled, and an exponent grid (1/beta wide) before it is built."""
    p, protocol = cfg.params, PROTOCOLS[cfg.protocol]
    n, t_max = cfg.n, cfg.t_max
    # Per round, the estimates (and counters); per replica, the raw draws and
    # working copies (quantized: exponents, final ones, 4 offsets of <= 4 B).
    ell = p.ell if protocol.randomized else 0
    need = 8 * n * (t_max * (2 if protocol.decides else 1) + ell * (8 if protocol.quantized else 4))

    def fit(total: int, sizes: str) -> None:
        if total > (memory := _physical_memory()):
            raise MemoryError(f"a trial with {sizes} over {t_max} rounds needs {total / 2**30:.1f} GiB, "
                              f"more than the {memory / 2**30:.1f} GiB of physical memory")
    fit(need, f"ell={ell} and n={n}" if ell else f"n={n}")
    trace = TrialTrace(config=cfg, theta=float(np.mean(cfg.inputs)),
                       estimates=np.full((t_max, n), np.nan))
    if protocol.decides:
        trace.decisions = trace.estimates
        trace.counters = np.zeros((t_max, n), dtype=np.int64)
        trace.decision_rounds = np.full(n, -1, dtype=np.int64)
    if protocol.randomized:
        trace.init_x_raw, trace.init_y_raw = np.empty((n, ell)), np.empty((n, ell))
        for u, theta in enumerate(cfg.inputs):
            stream = RngStream(cfg.seed, trial=cfg.trial, agent=u, purpose="init")
            trace.init_x_raw[u], trace.init_y_raw[u] = proto.init_samples(theta, p, stream)
    if protocol.quantized:
        # quantize_array is elementwise, so this quantizes each row.
        trace.init_x_quant = quantize_array(trace.init_x_raw, p.beta)
        trace.init_y_quant = quantize_array(trace.init_y_raw, p.beta)
        lo, hi = _exponent_span(trace)  # 3 x 8 B per exponent: _offsets' or message_bits'
        fit(need + 24 * (hi - lo + 1), f"ell={ell}, n={n} and {hi - lo + 1} exponents")
    return trace


def _reach_rounds(cfg: TrialConfig, trace: TrialTrace) -> tuple:
    """The rounds of min (one column), r and rbard; returns its frozen round
    and final x and y matrices (none for min).  Agent v's reach set, an n-bit
    int, holds the agents whose initial rows reached it; a round ORs in its
    in-neighbours' previous-round sets (for rbard only active senders count,
    only active receivers update, and a heartbeat resets the counter).  Only
    newly reached rows are folded in, and the min or r estimate is recomputed
    only when the set grew or on the agent's first active round.  rbard's
    rows are _offsets, and its n_est only rises as the set grows, so growth
    marks it stale, a lower bound, recomputed only when the decision test
    passes on it.  Once every agent is active, every set is full and every
    counter equal, no round can change a vector, and rbard's counters all go
    up by one a round, so the rest is filled in with no graph drawn."""
    n, p, protocol = cfg.n, cfg.params, PROTOCOLS[cfg.protocol]
    if not protocol.randomized:
        inits = (np.array(cfg.inputs, dtype=np.float64)[:, None],)
        derive = lambda v: float(xs[v, 0])
    elif protocol.quantized:
        grid, keep, inits = _offsets(trace)
        derive = lambda v: proto.rbard_size_estimate(grid[ys[v]], p)
    else:
        inits, keep = (trace.init_x_raw, trace.init_y_raw), np.copy
        derive = lambda v: proto.r_estimate(xs[v], ys[v], p)
    rows = [m.copy() for m in inits]
    xs, ys = rows[0], rows[-1]
    decides = protocol.decides
    starts, s_max, full = cfg.start_rounds, cfg.s_max, (1 << n) - 1
    reach, counter, stale = [1 << v for v in range(n)], [0] * n, [False] * n
    value, decision = [math.nan] * n, [math.nan] * n

    def decide(v: int, t: int) -> None:
        decision[v] = proto.r_estimate(grid[xs[v]], grid[ys[v]], p)
        trace.decision_rounds[v] = t
        trace.decision_vectors[v] = (keep(xs[v]), keep(ys[v]))

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
                    idx = []
                    while new:  # the set bits of new, lowest first
                        idx.append((new & -new).bit_length() - 1)
                        new &= new - 1
                    for m, m0 in zip(rows, inits):
                        np.minimum(m[v], m0[idx].min(axis=0), out=m[v])
            if reach[v] != prev[v] or t == starts[v]:
                stale[v] = decides and t != starts[v]
                if not stale[v]:
                    value[v] = derive(v)
            if decides:
                counter[v] = 0 if heartbeat else 1 + min([prev_counter[u] for u in src])
                if math.isnan(decision[v]) and proto.rbard_decides(counter[v], value[v]):
                    value[v], stale[v] = derive(v) if stale[v] else value[v], False
                    if proto.rbard_decides(counter[v], value[v]):
                        decide(v, t)
        trace.estimates[t - 1] = decision if decides else value
        if decides:
            trace.counters[t - 1] = counter
        if t in cfg.checkpoint_rounds:
            trace.checkpoints[t] = [(keep(xs[v]), keep(ys[v])) for v in range(n)]
        if t > s_max and reach.count(full) == n and len(set(counter)) == 1:
            break
    # Frozen after round t (or t == t_max): fill in the rounds after it.
    trace.estimates[t:] = decision if decides else value
    if decides:
        trace.counters[t:] = counter[0] + np.arange(1, cfg.t_max - t + 1)[:, None]
        for v in [v for v in range(n) if math.isnan(decision[v])]:
            value[v] = derive(v) if stale[v] else value[v]
            r = next((r for r in range(t + 1, cfg.t_max + 1)
                      if proto.rbard_decides(counter[0] + r - t, value[v])), None)
            if r is not None:
                decide(v, r)
                trace.estimates[r - 1 :, v] = decision[v]
    return t, (keep(xs), keep(ys)) if protocol.quantized else rows if protocol.randomized else ()


def _exponent_span(trace: TrialTrace) -> tuple[int, int]:
    """The least and greatest of the trial's initial exponents."""
    ms = (trace.init_x_quant, trace.init_y_quant)
    return min(int(m.min()) for m in ms), max(int(m.max()) for m in ms)


def _offsets(trace: TrialTrace) -> tuple[np.ndarray, Callable, tuple[np.ndarray, np.ndarray]]:
    """dequantize_array over the initial exponents' span lo..hi, the map back
    to int64 exponents, and the initial matrices as offsets k - lo in the
    narrowest dtype that holds hi - lo: the minimum commutes with the shift."""
    lo, hi = _exponent_span(trace)
    grid = dequantize_array(np.arange(lo, hi + 1), trace.config.params.beta)
    return grid, lambda m: np.add(m, lo, dtype=np.int64), tuple(
        (m - lo).astype(np.min_scalar_type(hi - lo)) for m in (trace.init_x_quant, trace.init_y_quant))


# Cells (rounds times n^2) in the in-adjacency array of one segment of
# _rotation_rounds, drawn in one call and reduced in one masked minimum.
_SEGMENT_CELLS = 1 << 22


def _rotation_rounds(cfg: TrialConfig, trace: TrialTrace) -> tuple:
    """The rounds of rbar, on _offsets; returns its frozen round and final
    exponent matrices.  Round t exchanges entry (t-1) mod ell of every
    agent, so only that column changes, and no two columns interact.  A
    segment of rounds inside one rotation touches each of its columns once,
    so it is one masked minimum over the in-adjacency A of its live rounds:
    new[v, i] = min of old[u, i] over u with A[k, v, u], k the round of
    column i.  A column that every agent holds at one value is at its
    offline minimum for good, so its rounds are not drawn; once every column
    is, the next wrap fixes the estimates and the rest of the trace is
    filled in.  A segment ends at a wrap, where the estimates are refreshed,
    at a checkpoint round, at t_max, or at _SEGMENT_CELLS; its live rounds
    are drawn in one call, as batched schedule generation needs."""
    n, p, t_max = cfg.n, cfg.params, cfg.t_max
    grid, keep, (xs, ys) = _offsets(trace)
    live = lambda cols: (xs[:, cols] != xs[:1, cols]).any(0) | (ys[:, cols] != ys[:1, cols]).any(0)
    est = [math.nan] * n
    stops = sorted({*cfg.checkpoint_rounds, t_max})
    segment = max(1, _SEGMENT_CELLS // (n * n))
    t = 1
    while t <= t_max:
        i = (t - 1) % p.ell
        last = min(t - 1 + p.ell - i, stops[bisect.bisect_left(stops, t)])
        c = i + np.flatnonzero(live(slice(i, i + last - t + 1)))
        if len(c) > segment:
            c = c[:segment]
            last = int(c[-1]) - i + t
        adj = cfg.schedule.in_adjacency((c - i + t).tolist())
        for m in (xs, ys):  # cols[j, v, u]: agent u's entry of the j-th live round
            cols = np.broadcast_to(m[:, c].T[:, None, :], adj.shape)
            m[:, c] = np.minimum.reduce(cols, axis=2, where=adj, initial=np.iinfo(m.dtype).max).T
        trace.estimates[t - 1 : last] = est
        if last % p.ell == 0:
            est = [proto.r_estimate(grid[xs[v]], grid[ys[v]], p) for v in range(n)]
            trace.estimates[last - 1] = est
        if last in cfg.checkpoint_rounds:
            trace.checkpoints[last] = [(keep(xs[v]), keep(ys[v])) for v in range(n)]
        if last % p.ell == 0 and not live(slice(None)).any():
            break
        t = last + 1
    # Frozen after round last (or last == t_max): fill in the rounds after it.
    trace.estimates[last:] = est
    return last, (keep(xs), keep(ys))


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
    protocol, params = PROTOCOLS[trace.config.protocol], trace.config.params

    if not protocol.quantized:  # min sends one real, r two vectors of ell
        per_msg = 64 * (2 * params.ell if protocol.randomized else 1)
        return MessageBitsReport(np.full(t_max, per_msg * n, dtype=np.int64), per_msg, None)

    lo, hi = _exponent_span(trace)
    entry_bits = math.ceil(math.log2(hi - lo + 1)) if hi > lo else 0
    # Row by row, so that no temporary is the size of a matrix.
    distinct = int(np.count_nonzero(sum(np.bincount(row - lo, minlength=hi - lo + 1)
                                        for m in (trace.init_x_quant, trace.init_y_quant)
                                        for row in m)))

    if protocol.rotates:  # a cursor and one entry of each vector
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
