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

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Callable, Optional

import numpy as np

from . import protocol as proto
from .graph import DynamicSchedule
from .quantization import count_levels, dequantize_array, quantize_offsets
from .sampling import (ProtocolParams, RngStream, _check_interval, check_ranges, draw_range, inverse_cdf,
                       params_r, params_rbar, params_rbard)


@dataclass(frozen=True)
class Protocol:
    """What differs between the protocols: the optional ExperimentConfig
    fields each takes, its sampling.params_* formula (None for min), the
    round bound(n, sweep, params, s_max) by which its guarantee is due
    (sweep: graph.flooding_length), the share of eta its claims tolerate,
    and whether it sends one vector entry per round, rotating through them."""

    fields: tuple[str, ...]
    formula: Optional[Callable[..., ProtocolParams]]
    bound: Callable[[int, int, Optional[ProtocolParams], int], int]
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
    "min": Protocol((), None, lambda n, sweep, p, s_max: sweep),
    "r": Protocol(("ell",), params_r, lambda n, sweep, p, s_max: sweep),
    "rbar": Protocol(("ell", "beta"), params_rbar, lambda n, sweep, p, s_max: p.ell * n, 0.5,
                     rotates=True),
    "rbard": Protocol(("ell", "beta", "size_bound"), params_rbard,
                      lambda n, sweep, p, s_max: s_max + 2 * n),
}


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial depends on; traces are pure functions of this.

    start_rounds stagger activation for the deciding protocol: agent u is
    passive (emitting heartbeats) strictly before round start_rounds[u].
    The other protocols require all-1 start rounds.
    """

    protocol: str
    params: Optional[ProtocolParams]
    inputs: tuple[float, ...]
    schedule: DynamicSchedule
    start_rounds: tuple[int, ...]
    t_max: int
    seed: int
    trial: int = 0

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
        check_ranges(seed=self.seed, start_rounds=self.start_rounds, inputs=self.inputs)
        check_trial_size(protocol, n, self.t_max, self.params)
        if not math.isfinite(np.mean(self.inputs)):  # finite inputs whose sum overflows
            raise ValueError(f"inputs must be finite, as must their mean, got {self.inputs}")
        if not protocol.decides and any(s != 1 for s in self.start_rounds):
            raise ValueError(f"protocol {self.protocol!r} requires synchronous starts")
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
    estimates array itself.  init_raw holds every agent's draws, x then y,
    in one (2, n, ell) block; a quantized protocol's init_offsets holds
    their exponents as offsets k - lo in the narrowest dtype that holds
    hi - lo, with init_span the (lo, hi) of the trial's initial exponents.
    They pin down the offline entrywise minima that a stationary run must
    reach.
    final_states[u] holds agent u's vectors after round t_max (min keeps
    none); the rest of its final state is in the last rows of the arrays.
    Past round frozen_at (a wrap for rbar; None if the horizon ends first)
    no vector or estimate changes, and agents share one read-only pair in
    final_states and in the decision_vectors of agents deciding later.
    """

    config: TrialConfig
    theta: float
    estimates: np.ndarray
    decisions: Optional[np.ndarray] = None
    counters: Optional[np.ndarray] = None
    init_raw: Optional[np.ndarray] = None
    init_offsets: Optional[np.ndarray] = None
    init_span: Optional[tuple[int, int]] = None
    final_states: list = field(default_factory=list)
    decision_rounds: Optional[np.ndarray] = None
    decision_vectors: dict = field(default_factory=dict)
    frozen_at: Optional[int] = None

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
    runner = _rotation_rounds if PROTOCOLS[cfg.protocol].rotates else _reach_rounds
    trace.frozen_at, finals = runner(cfg, trace)
    trace.final_states = [FinalVectors(x, y) for x, y in finals]
    return trace


def _final_pairs(pairs: list, keep: Callable, frozen: bool) -> list:
    """Every agent's final (x, y), read-only, as keep maps its pair of rows;
    after a freeze every pair equals the first, so all agents share one."""
    if frozen:
        return [_read_only(*map(keep, pairs[0]))] * len(pairs)
    return [_read_only(*map(keep, pair)) for pair in pairs]


def _read_only(*ms: np.ndarray) -> tuple:
    for m in ms:
        m.flags.writeable = False
    return ms


def _physical_memory() -> int:
    """Bytes of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@lru_cache(maxsize=64)
def exponent_bound(params: ProtocolParams) -> int:
    """A bound on the span of any trial's initial exponents: a draw at a rate
    in [1, b - a + 1] lies in sampling.draw_range's least at b - a + 1 and
    greatest at 1 (and is normal, as quantize_array needs), plus one exponent
    each side for the rounding of the logarithm and the division."""
    lo = max(draw_range(params.b - params.a + 1.0)[0], np.finfo(np.float64).tiny)
    return count_levels(lo, draw_range(1.0)[1], params.beta) + 2


def trial_bytes(protocol: Protocol, n: int, t_max: int, params: Optional[ProtocolParams]) -> int:
    """An upper bound, from the config alone, on the bytes a trial holds at
    once, past buffers of fixed size (quantize_offsets' pieces, the segments
    of _rotation_rounds): 8 B per round and agent for the estimates (and
    counters); per agent and entry, the draws (2 x 8 B), then for r two
    rounds of rows of both matrices (2 x 2 x 8 B), and for a quantized
    protocol 4 offsets (the initial pair, and for rbar a working pair, for
    rbard two rounds of y rows) in the dtype that holds the span
    exponent_bound allows, int64 final vectors (2 x 8 B), and int64 decision
    vectors (2 x 8 B) for a deciding one; 8 vectors of ell floats for one
    agent's formulas; and per exponent of the span, 4 buckets of
    quantize_offsets' table (a bucket is over a quarter of a grid step wide)
    at 48 B each, more than _offsets' grid or message_bits' counts take
    later.  The draws are made in place in their block; their column of
    rates, 2 x 8 B an agent, is less than the rows or final vectors, which
    come later."""
    ell = params.ell if protocol.randomized else 0
    exponents = exponent_bound(params) if protocol.quantized else 0
    width = np.min_scalar_type(exponents).itemsize
    entry = 32 + 4 * width + 16 * protocol.decides if protocol.quantized else 48
    return 8 * n * t_max * (2 if protocol.decides else 1) + (n * entry + 64) * ell + 192 * exponents


def check_trial_size(protocol: Protocol, n: int, t_max: int, params: Optional[ProtocolParams]) -> None:
    """The trial-size rules, from the config alone: t_max >= 1, N >= n for a
    deciding protocol, as the paper assumes, and physical memory holds the
    trial_bytes of the trial.  Checked before anything is built or drawn:
    numpy's allocations succeed under overcommit and fail only when touched."""
    check_ranges(t_max=t_max)
    if protocol.decides and (params.size_bound is None or params.size_bound < n):
        raise ValueError(f"rbard needs size_bound >= n, got {params.size_bound} < {n}")
    ell = params.ell if protocol.randomized else 0
    exponents = exponent_bound(params) if protocol.quantized else 0
    if (need := trial_bytes(protocol, n, t_max, params)) > (memory := _physical_memory()):
        sizes = (f"ell={ell}, n={n} and {exponents} exponents" if exponents
                 else f"ell={ell} and n={n}" if ell else f"n={n}")
        raise MemoryError(f"a trial with {sizes} over {t_max} rounds needs {need / 2**30:.1f} GiB, "
                          f"more than the {memory / 2**30:.1f} GiB of physical memory")


def _new_trace(cfg: TrialConfig) -> TrialTrace:
    """The trace before round 1: every agent's draws, sampled once, and the
    per-round arrays, allocated in full; TrialConfig has checked that they
    fit, with the exponent grid.  Each agent's stream writes its x and then
    its y uniforms straight into its rows of the block, and one inverse_cdf
    over the block makes them draws in place: init_samples' bits, with no
    per-agent temporaries."""
    p, protocol = cfg.params, PROTOCOLS[cfg.protocol]
    n, t_max = cfg.n, cfg.t_max
    trace = TrialTrace(config=cfg, theta=float(np.mean(cfg.inputs)),
                       estimates=np.full((t_max, n), np.nan))
    if protocol.decides:
        trace.decisions = trace.estimates
        trace.counters = np.zeros((t_max, n), dtype=np.int64)
        trace.decision_rounds = np.full(n, -1, dtype=np.int64)
    if protocol.randomized:
        _check_interval(p.a, p.b, *cfg.inputs)
        trace.init_raw = draws = np.empty((2, n, p.ell))
        for u in range(n):
            stream = RngStream(cfg.seed, trial=cfg.trial, agent=u, purpose="init")
            for half in draws[:, u]:  # x, then y
                stream.uniforms(p.ell, out=half)
        rates = np.ones((2, n, 1))
        rates[0, :, 0] = np.subtract(cfg.inputs, p.a) + 1.0  # theta - a + 1 for x, 1 for y
        inverse_cdf(draws, rates, out=draws)
    if protocol.quantized:
        # Rounding is elementwise, so this quantizes each row.
        trace.init_offsets, lo, hi = quantize_offsets(draws, p.beta)
        trace.init_span = lo, hi
    return trace


def _reach_rounds(cfg: TrialConfig, trace: TrialTrace) -> tuple:
    """The rounds of min, r and rbard; returns frozen_at and _final_pairs
    (none for min).  Agent v's reach set, an n-bit int, holds the agents
    whose initial values reached it; a round ORs in its in-neighbours'
    previous-round sets (for rbard only active senders count, only active
    receivers update, and a heartbeat resets the counter).  For min, bit b
    is the agent with the b-th least input (a stable sort, so ties keep
    agent order), so the least input a set holds is that of its lowest bit,
    and min keeps no rows.  For r and rbard, bit v is agent v, and a row,
    the minimum of a set's initial rows, is a function of the set alone:
    rows maps each set an agent holds to its row, a (2, ell) block of both
    matrices for r, y alone for rbard.  A singleton's row is a view of its
    agent's initial row.  A set first held in round t is the np.minimum of
    the round t - 1 rows of its agent and of each in-neighbour that adds
    initial rows not yet covered, the first call writing into a spare array
    or a new one and the rest into that; no row is written after, so the
    round t - 1 rows hold all round.  At the end of a round the arrays of
    the sets no agent holds become spare (a singleton's view stays): a new
    array for each new set costs more page faults.  rbard reads x only at a
    decision and at the end, as the minimum of the set's initial x rows.
    The r estimate is recomputed when the set grew or on the agent's first
    active round; a full set's estimate, n_est, decision and x row are
    computed once and shared.  rbard's rows are _offsets, and its n_est
    only rises as the set grows, so growth marks it stale, a lower bound,
    recomputed only when the decision test passes on it.  Once every agent
    is active, every set is full and every counter equal, no round can
    change a vector, and rbard's counters all go up by one a round, so the
    rest is filled in with no graph drawn: the agents share one row, and
    the undecided ones, sharing one size estimate, decide together."""
    n, p, protocol = cfg.n, cfg.params, PROTOCOLS[cfg.protocol]
    bits, rows, keep = range(n), {}, np.asarray  # r's final vectors are row views
    if not protocol.randomized:
        bits = np.argsort(np.argsort(cfg.inputs, kind="stable")).tolist()  # each agent's rank
        least = sorted(cfg.inputs)
        derive = lambda v: least[(reach[v] & -reach[v]).bit_length() - 1]
    elif protocol.quantized:
        grid, keep, (xs, ys) = _offsets(trace)
        rows = {1 << v: y for v, y in enumerate(ys)}
        # A full set's rows are a slice, which copies none.
        members = lambda s: slice(None) if s == full else [u for u in range(n) if s >> u & 1]
        pair = lambda v: (xs[members(reach[v])].min(axis=0), rows[reach[v]])
        derive = lambda v: proto.rbard_size_estimate(np.take(grid, rows[reach[v]]), p)
        decide = lambda v: (xy := pair(v), proto.r_estimate(*(np.take(grid, m) for m in xy), p))
    else:
        rows = {1 << v: block for v, block in enumerate(trace.init_raw.swapaxes(0, 1))}
        pair = lambda v: rows[reach[v]]
        derive = lambda v: proto.r_estimate(*pair(v), p)
    shared, spare = {}, []  # f(v) of a full set, by f; arrays of dropped rows

    def once(f: Callable, v: int):
        """f(v), computed once for all full sets: their rows are equal.  No f
        calls once: shared holds f, and that cycle would keep the rows alive
        past the trial, until the garbage collector runs."""
        if reach[v] != full:
            return f(v)
        if f not in shared:
            shared[f] = f(v)
        return shared[f]

    decides = protocol.decides
    starts, s_max, full = cfg.start_rounds, cfg.s_max, (1 << n) - 1
    reach, counter, stale = [1 << b for b in bits], [0] * n, [False] * n
    value, decision = [math.nan] * n, [math.nan] * n
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
                reach[v] = got
                if rows and got not in rows:  # a new set: prev[v] and its row are still held
                    row, had, out = rows[prev[v]], prev[v], spare.pop() if spare else None
                    for u in src:
                        if prev[u] & ~had:  # u adds initial rows
                            row = out = np.minimum(row, rows[prev[u]], out=out)
                            had |= prev[u]
                    rows[got] = row
            if reach[v] != prev[v] or t == starts[v]:
                stale[v] = decides and t != starts[v]
                if not stale[v]:
                    value[v] = once(derive, v)
            if decides:
                counter[v] = 0 if heartbeat else 1 + min([prev_counter[u] for u in src])
                if math.isnan(decision[v]) and proto.rbard_decides(counter[v], value[v]):
                    value[v], stale[v] = once(derive, v) if stale[v] else value[v], False
                    if proto.rbard_decides(counter[v], value[v]):
                        xy, decision[v] = once(decide, v)
                        trace.decision_rounds[v] = t
                        trace.decision_vectors[v] = _read_only(*map(keep, xy))
        if rows:  # drop the sets no agent holds; their arrays, not singletons' views, are spare
            spare += [rows.pop(s) for s in rows.keys() - set(reach) if s & (s - 1)]
        trace.estimates[t - 1] = decision if decides else value
        if decides:
            trace.counters[t - 1] = counter
        if frozen := t > s_max and reach.count(full) == n and len(set(counter)) == 1:
            break
    # Frozen after round t (or t == t_max): fill in the rounds after it.
    finals = _final_pairs([once(pair, v) for v in range(n)], keep, frozen) if protocol.randomized else []
    trace.estimates[t:] = decision if decides else value
    if decides:
        trace.counters[t:] = counter[0] + np.arange(1, cfg.t_max - t + 1)[:, None]
        waiting = [v for v in range(n) if math.isnan(decision[v])]
        if waiting and t < cfg.t_max:
            n_est = once(derive, 0)
            r = next((r for r in range(t + 1, cfg.t_max + 1)
                      if proto.rbard_decides(counter[0] + r - t, n_est)), None)
            if r is not None:
                trace.estimates[r - 1 :, waiting] = once(decide, 0)[1]
                trace.decision_rounds[waiting] = r
                trace.decision_vectors.update(dict.fromkeys(waiting, finals[0]))
    return t if frozen else None, finals


def _offsets(trace: TrialTrace) -> tuple[np.ndarray, Callable, tuple[np.ndarray, np.ndarray]]:
    """dequantize_array over the initial exponents' span lo..hi, the map back
    to int64 exponents, and the trace's two initial offset matrices k - lo:
    the minimum commutes with the shift."""
    lo, hi = trace.init_span
    grid = dequantize_array(np.arange(lo, hi + 1), trace.config.params.beta)
    return grid, lambda m: np.add(m, lo, dtype=np.int64), tuple(trace.init_offsets)


# Edges in one segment of _rotation_rounds, drawn in one in_edges call: the
# fold's two flat intp indices take 16 bytes an edge, 2 MiB in all.
_SEGMENT_EDGES = 1 << 17


def _rotation_rounds(cfg: TrialConfig, trace: TrialTrace) -> tuple:
    """The rounds of rbar, on a copy of _offsets; returns frozen_at and _final_pairs.
    Round t exchanges entry (t-1) mod ell of every agent, so only that
    column changes, and no two columns interact.  A segment of
    rounds inside one rotation touches each of its columns once, so it is
    one unbuffered np.minimum.at over the in_edges (k, u, v) of its live
    rounds, entry [v, i] folding in [u, i] for column i of round k, in any
    order: the minimum is order-free and idempotent.  A column that every
    agent holds at one value is at its offline minimum for good, so its
    rounds are not drawn; once every column is, the next wrap fixes the
    estimates and the rest of the trace is filled in.  A segment ends at a
    wrap, where the estimates are refreshed, at t_max, or at _SEGMENT_EDGES;
    its live rounds are drawn in one call, as batched schedule generation
    needs."""
    n, p, t_max = cfg.n, cfg.params, cfg.t_max
    grid, keep, inits = _offsets(trace)
    xs, ys = (m.copy() for m in inits)
    live = lambda cols: (xs[:, cols] != xs[:1, cols]).any(0) | (ys[:, cols] != ys[:1, cols]).any(0)
    est = [math.nan] * n
    segment = max(1, _SEGMENT_EDGES // cfg.schedule.edges_per_round)
    t = 1
    while t <= t_max:
        i = (t - 1) % p.ell
        last = min(t - 1 + p.ell - i, t_max)
        c = i + np.flatnonzero(live(slice(i, i + last - t + 1)))
        if len(c) > segment:
            c = c[:segment]
            last = int(c[-1]) - i + t
        k, u, v = cfg.schedule.in_edges((c - i + t).tolist())
        at = lambda e: np.multiply(e, p.ell, dtype=np.intp) + c[k]  # entry [e, c[k]], flat
        for flat in (xs.reshape(-1), ys.reshape(-1)):  # views: the copies are C-ordered
            np.minimum.at(flat, at(v), flat[at(u)])  # every old entry is read before any is lowered
        trace.estimates[t - 1 : last] = est
        if last % p.ell == 0:
            est = [proto.r_estimate(np.take(grid, xs[v]), np.take(grid, ys[v]), p) for v in range(n)]
            trace.estimates[last - 1] = est
        if frozen := last % p.ell == 0 and not live(slice(None)).any():
            break
        t = last + 1
    # Frozen after round last (or last == t_max): fill in the rounds after it.
    trace.estimates[last:] = est
    return last if frozen else None, _final_pairs(list(zip(xs, ys)), keep, frozen)


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
    """The three decision predicates over a trace, as column reductions:
    every agent eventually decides (within the horizon), every row from an
    agent's first written one on holds that decision (so it is never
    changed or erased), and every written decision lies within epsilon of
    the true average."""
    d = trace.decisions
    if d is None:
        raise ValueError("decision checks require a deciding-protocol trace")
    written = ~np.isnan(d)
    decided = written.any(axis=0)
    first = written.argmax(axis=0)  # each agent's first written row, 0 if none
    kept = (d == d[first, np.arange(trace.n)]) | (np.arange(trace.t_max)[:, None] < first) | ~decided
    valid = np.abs(d[written] - trace.theta) <= epsilon
    last = int(first.max()) + 1 if decided.any() else None
    return DecisionReport(bool(written[-1].all()), bool(kept.all()), bool(valid.all()), last)


@dataclass(frozen=True)
class MessageBitsReport:
    """Bit accounting for every message sent in a trial.

    The rule is post hoc and global: a quantized entry costs the width in
    bits of the closed integer range covering every exponent observed in
    the trial, a counter that of 0..C_max and rbar's cursor that of
    0..ell-1 (the width of 0..m is m.bit_length(), the least b with
    2**b > m), a real costs 64, and a heartbeat costs 1.  per_round[t-1]
    totals all n messages of round t.
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

    lo, hi = trace.init_span
    entry_bits = (hi - lo).bit_length()
    # Row by row, so that no temporary is the size of a matrix.
    counts = np.zeros(hi - lo + 1, dtype=np.intp)
    for row in trace.init_offsets.reshape(-1, params.ell):
        counts += np.bincount(row, minlength=hi - lo + 1)
    distinct = int(np.count_nonzero(counts))

    if protocol.rotates:  # a cursor and one entry of each vector
        cursor_bits = (params.ell - 1).bit_length()
        per_msg = cursor_bits + 2 * entry_bits
        return MessageBitsReport(np.full(t_max, per_msg * n, dtype=np.int64), per_msg, distinct)

    # rbard: heartbeats cost 1 bit; active messages carry the counter and
    # both full vectors.
    c_max = int(trace.counters.max()) if trace.counters.size else 0
    counter_bits = c_max.bit_length()
    full_bits = counter_bits + 2 * params.ell * entry_bits
    rounds = np.arange(1, t_max + 1)[:, None]
    n_active = (rounds >= np.asarray(trace.config.start_rounds)[None, :]).sum(axis=1)
    per_round = (n - n_active) * 1 + n_active * full_bits
    per_message_max = full_bits if n_active.any() else 1
    return MessageBitsReport(per_round.astype(np.int64), per_message_max, distinct)


def dump_trace_jsonl(trace: TrialTrace, fp: IO[str]) -> None:
    """JSON-Lines dump: a metadata header, then one object per round."""
    cfg = trace.config
    shifted = None if cfg.params is None else float(sum(x - cfg.params.a + 1.0 for x in cfg.inputs))
    fp.write(json.dumps({"config": cfg.digest(), "protocol": cfg.protocol, "n": trace.n,
                         "t_max": trace.t_max, "theta": trace.theta, "shifted_sum": shifted},
                        allow_nan=False) + "\n")
    bits = message_bits(trace).per_round
    # A run starts where msg_bits or the agents row (as bytes) differs from the round
    # before, an rbar row only on a wrap; its lines differ only in t, and are joined
    # up to 1,024 and about 64 KiB a write.
    changed = np.ones(trace.t_max, dtype=bool)
    changed[1:] = bits[1:] != bits[:-1]
    for a in (trace.estimates, trace.decisions, trace.counters):
        if a is not None:
            rows = a.view(np.int64)
            changed[1:] |= (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(changed).tolist() + [trace.t_max]
    for lo, hi in zip(starts, starts[1:]):  # row lo of each per-round array, NaN and no array null
        x, d, c = ([None if math.isnan(v) else v for v in a[lo].tolist()] if a is not None
                   else [None] * trace.n for a in (trace.estimates, trace.decisions, trace.counters))
        agents = json.dumps([{"x": x[u], "d": d[u], "C": c[u]} for u in range(trace.n)],
                            allow_nan=False)
        tail = f', "agents": {agents}, "msg_bits": {int(bits[lo])}}}\n'
        sep = tail + '{"t": '
        step = max(1, min(1024, (1 << 16) // len(sep)))
        for at in range(lo + 1, hi + 1, step):
            fp.write('{"t": ' + sep.join(map(str, range(at, min(at + step, hi + 1)))) + tail)
