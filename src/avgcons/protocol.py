"""Per-agent state machines of the four consensus protocols, and the
estimate formulas they share with the engine.

Each protocol is a pure triple of functions: an initializer (built, for
the randomized protocols, from the raw draws of init_samples), an outbox
accessor mapping state -> message, and a transition mapping
(state, inbox) -> new state.  The machines never see the communication
graph: a caller decides who hears whom and hands every agent the list of
messages it received, always including the agent's own (self-loops are
mandatory).  States are never mutated in place.

The machines define the protocols, and the tests check ``engine.run_trial``
against them; the engine runs none of them and takes only the estimate
formulas from here.  init_samples is one agent's draws, the per-agent
reference for the block the engine draws in place.  The protocol tags, and
what differs between the protocols as data, are defined in
``engine.PROTOCOLS``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .quantization import dequantize_array, quantize_array
from .sampling import ProtocolParams, _check_interval, sample_exponentials

# ---------------------------------------------------------------------------
# messages


class NullMessage:
    """Heartbeat emitted by an agent that has not started yet."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NullMessage()"


NULL_MESSAGE = NullMessage()


@dataclass(eq=False, slots=True)
class MinMessage:
    x: float


@dataclass(eq=False, slots=True)
class RMessage:
    x_vec: np.ndarray
    y_vec: np.ndarray


@dataclass(eq=False, slots=True)
class RbarMessage:
    index: int  # which vector entry this round carries (0-based)
    x_entry: int
    y_entry: int


@dataclass(eq=False, slots=True)
class RbardMessage:
    counter: int
    x_vec: np.ndarray
    y_vec: np.ndarray


Message = Union[NullMessage, MinMessage, RMessage, RbarMessage, RbardMessage]


# ---------------------------------------------------------------------------
# min


@dataclass(eq=False, slots=True)
class MinState:
    x: float


def min_init(theta: float) -> MinState:
    return MinState(x=float(theta))


def min_outbox(s: MinState) -> MinMessage:
    return MinMessage(s.x)


def min_apply(s: MinState, inbox: Sequence[Message]) -> MinState:
    if not inbox:
        raise ValueError("empty inbox: self-loop delivery is mandatory")
    return MinState(x=min(s.x, *(m.x for m in inbox)))


# ---------------------------------------------------------------------------
# r: full float vectors every round


@dataclass(eq=False, slots=True)
class RState:
    x_vec: np.ndarray  # ell positive floats, entrywise non-increasing
    y_vec: np.ndarray
    x: Optional[float]  # current estimate, unset until the first update
    params: ProtocolParams


def init_samples(theta: float, params: ProtocolParams, stream) -> tuple[np.ndarray, np.ndarray]:
    """The two replicated raw draws every randomized protocol starts from:
    ell exponentials at rate theta - a + 1, then ell at rate 1.

    Shifting by -a+1 keeps every rate >= 1 for inputs in [a, b].
    """
    _check_interval(params.a, params.b, theta)
    x_raw = sample_exponentials(theta - params.a + 1.0, params.ell, stream)
    y_raw = sample_exponentials(1.0, params.ell, stream)
    return x_raw, y_raw


def r_init(x_raw: np.ndarray, y_raw: np.ndarray, params: ProtocolParams) -> RState:
    return RState(x_vec=x_raw, y_vec=y_raw, x=None, params=params)


def r_outbox(s: RState) -> RMessage:
    return RMessage(s.x_vec, s.y_vec)


def r_apply(s: RState, inbox: Sequence[Message]) -> RState:
    p = s.params
    for m in inbox:
        if len(m.x_vec) != p.ell or len(m.y_vec) != p.ell:
            raise ValueError(f"vector length mismatch: expected ell={p.ell}")
    x_vec = np.minimum.reduce([s.x_vec] + [m.x_vec for m in inbox])
    y_vec = np.minimum.reduce([s.y_vec] + [m.y_vec for m in inbox])
    return RState(x_vec=x_vec, y_vec=y_vec, x=r_estimate(x_vec, y_vec, p), params=p)


# ---------------------------------------------------------------------------
# rbar: quantized, one entry pair per round


@dataclass(eq=False, slots=True)
class RbarState:
    x_vec: np.ndarray  # ell int64 exponents, entrywise non-increasing
    y_vec: np.ndarray
    cursor: int  # entry sent/updated next round, in [0, ell)
    x: Optional[float]  # estimate, recomputed when the cursor wraps
    params: ProtocolParams


def rbar_init(x_raw: np.ndarray, y_raw: np.ndarray, params: ProtocolParams) -> RbarState:
    return RbarState(
        x_vec=quantize_array(x_raw, params.beta),
        y_vec=quantize_array(y_raw, params.beta),
        cursor=0,
        x=None,
        params=params,
    )


def rbar_outbox(s: RbarState) -> RbarMessage:
    i = s.cursor
    return RbarMessage(index=i, x_entry=int(s.x_vec[i]), y_entry=int(s.y_vec[i]))


def rbar_apply(s: RbarState, inbox: Sequence[Message]) -> RbarState:
    """Minimum at the cursor entry only, then advance; the estimate is
    refreshed only when a full rotation completes."""
    i = s.cursor
    x_e = int(s.x_vec[i])
    y_e = int(s.y_vec[i])
    for m in inbox:
        if m.index != i:
            raise ValueError(f"cursor mismatch: got entry {m.index}, expected {i}")
        if m.x_entry < x_e:
            x_e = m.x_entry
        if m.y_entry < y_e:
            y_e = m.y_entry
    # Copy on write, per vector: an entry that did not move lets the new
    # state share the (never-mutated) array, which makes the long
    # stationary tail of a run cheap.
    x_vec, y_vec = s.x_vec, s.y_vec
    if x_e < x_vec[i]:
        x_vec = x_vec.copy()
        x_vec[i] = x_e
    if y_e < y_vec[i]:
        y_vec = y_vec.copy()
        y_vec[i] = y_e
    cursor = i + 1
    x = s.x
    if cursor == s.params.ell:
        cursor = 0
        x = r_estimate(dequantize_array(x_vec, s.params.beta),
                       dequantize_array(y_vec, s.params.beta), s.params)
    return RbarState(x_vec=x_vec, y_vec=y_vec, cursor=cursor, x=x, params=s.params)


# ---------------------------------------------------------------------------
# rbard: quantized full vectors, heartbeat counter, write-once decision


@dataclass(eq=False, slots=True)
class RbarDState:
    x_vec: np.ndarray  # ell int64 exponents
    y_vec: np.ndarray
    counter: int  # min-plus round counter, reset by heartbeats
    n_est: Optional[float]  # ell / sum of represented y values
    d: Optional[float]  # decision value, write-once
    start_round: int
    rounds_done: int
    params: ProtocolParams

    @property
    def active(self) -> bool:
        """Whether the agent participates in the upcoming round."""
        return self.rounds_done + 1 >= self.start_round


def rbard_init(x_raw: np.ndarray, y_raw: np.ndarray, params: ProtocolParams,
               start_round: int = 1) -> RbarDState:
    return RbarDState(
        x_vec=quantize_array(x_raw, params.beta),
        y_vec=quantize_array(y_raw, params.beta),
        counter=0,
        n_est=None,
        d=None,
        start_round=start_round,
        rounds_done=0,
        params=params,
    )


def rbard_outbox(s: RbarDState) -> Message:
    if not s.active:
        return NULL_MESSAGE
    return RbardMessage(counter=s.counter, x_vec=s.x_vec, y_vec=s.y_vec)


def rbard_apply(s: RbarDState, inbox: Sequence[Message]) -> RbarDState:
    """One round: counter update, entrywise minima, size estimate, and
    the decision test.

    A passive agent discards its inbox entirely.  Any heartbeat in the
    inbox resets the counter to 0; otherwise it becomes one more than
    the smallest received counter (own message included).  The decision
    d is written at most once, when the counter exceeds 3/2 of the
    current size estimate, and is never reassigned afterwards.
    """
    t = s.rounds_done + 1
    if t < s.start_round:
        return replace(s, rounds_done=t)

    p = s.params
    real = [m for m in inbox if not isinstance(m, NullMessage)]
    for m in real:
        if len(m.x_vec) != p.ell or len(m.y_vec) != p.ell:
            raise ValueError(f"vector length mismatch: expected ell={p.ell}")

    if len(real) < len(inbox):
        counter = 0
    else:
        counter = 1 + min(m.counter for m in real)

    x_vec = np.minimum.reduce([s.x_vec] + [m.x_vec for m in real])
    y_vec = np.minimum.reduce([s.y_vec] + [m.y_vec for m in real])

    n_est = rbard_size_estimate(dequantize_array(y_vec, p.beta), p)
    d = s.d
    if d is None and rbard_decides(counter, n_est):
        d = r_estimate(dequantize_array(x_vec, p.beta), dequantize_array(y_vec, p.beta), p)

    return RbarDState(
        x_vec=x_vec,
        y_vec=y_vec,
        counter=counter,
        n_est=n_est,
        d=d,
        start_round=s.start_round,
        rounds_done=t,
        params=p,
    )


# ---------------------------------------------------------------------------
# shared helpers

State = Union[MinState, RState, RbarState, RbarDState]


def estimate(state: State) -> Optional[float]:
    """Uniform accessor: the current output of any protocol state.

    The deciding protocol's output is its decision value; the others
    expose their running estimate (None until first computed).
    """
    if isinstance(state, RbarDState):
        return state.d
    return state.x


# The estimate formulas: pure functions of one agent's values.


def r_estimate(x_vals: np.ndarray, y_vals: np.ndarray, p: ProtocolParams) -> float:
    """The r estimate, and of represented values the rbar estimate and rbard
    decision: 1/mean of the minima estimates the shifted input sum (x) and
    the network size (y), and their ratio, shifted back, the average."""
    return p.a - 1.0 + float(y_vals.sum() / x_vals.sum())


def rbard_size_estimate(y_vals: np.ndarray, p: ProtocolParams) -> float:
    """rbard's network-size estimate n_est: ell over the represented y sum."""
    return p.ell / float(y_vals.sum())


def rbard_decides(counter: int, n_est: float) -> bool:
    """rbard's decision test: the counter exceeds 3/2 of the size estimate."""
    return counter > 1.5 * n_est
