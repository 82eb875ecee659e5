"""Exponential sampling, protocol parameter formulas, and tail checks.

Sampling is inverse-CDF: -ln(U)/rate with U uniform on (0, 1].  This is
exact, branch-free, and reproducible across platforms up to float
rounding, which matters because consensus checks elsewhere compare
values bit for bit.

Randomness is organized as keyed streams: a stream is addressed by
(master seed, trial, agent, purpose) and two streams with the same key
yield the same sample sequence, while distinct agents or purposes get
independent sequences.  Trials can therefore run in parallel with no
shared RNG state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from typing import Optional

import numpy as np

from .quantization import _base, dequantize_array, quantize_array
from .seeds import stable_seed


@dataclass(frozen=True)
class ProtocolParams:
    """Run parameters shared by the randomized protocols.

    epsilon: admissible estimation error, in (0, 1/2).
    eta: tolerated probability of an inaccurate run, in (0, 1/2).
    a, b: interval known to contain every input value.
    ell: replication count of the sampled vectors.
    beta: rounding ratio of the quantized variants (None when unused).
    size_bound: known upper bound N on the network size (deciding
        variant only).

    The factory functions params_r / params_rbar / params_rbard derive
    ell and beta from the protocol formulas; experiments that pin ell
    explicitly (e.g. the blocking-adversary run) construct this class
    directly.
    """

    epsilon: float
    eta: float
    a: float
    b: float
    ell: int
    beta: Optional[float] = None
    size_bound: Optional[int] = None

    def __post_init__(self) -> None:
        check_ranges(epsilon=self.epsilon, eta=self.eta, ell=self.ell, size_bound=self.size_bound)
        _check_interval(self.a, self.b)
        if self.ell > np.iinfo(np.intp).max // 8:  # bytes of one float64 vector
            raise ValueError(f"replica count ell, about 10^{len(str(self.ell)) - 1}, is too large "
                             f"for any array: raise epsilon or narrow [a, b]")
        if self.beta is not None:
            _base(self.beta)  # the grid's rule, 1 < 1 + beta < inf

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _stable_ceil(make_expr) -> int:
    """Ceiling of a Decimal expression, cross-checked at two precisions.

    The replication counts are ceilings of log expressions that can sit
    arbitrarily close to an integer; evaluating at 40 and 80 digits and
    demanding agreement rules out a boundary flip from rounding, and a
    count too large for 40 digits (tiny epsilon, huge b - a).
    """
    values = []
    for prec in (40, 80):
        with localcontext(Context(prec=prec)):
            values.append(int(make_expr().to_integral_value(ROUND_CEILING)))
    if values[0] != values[1]:
        raise ValueError(f"replica count ell, about 10^{len(str(values[1])) - 1}, cannot be "
                         f"resolved: its ceiling differs at 40 and 80 digits")
    return values[0]


# Every single-field range rule, name -> (test, phrase), stated once: each
# config, formula and function that takes one of these values checks it here.
RANGES = {
    **dict.fromkeys(("epsilon", "eta", "alpha"), (lambda v: 0 < v < 0.5, "in (0, 1/2)")),
    "rate": (lambda v: v > 0, "> 0"),
    "slack_sigmas": (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    **dict.fromkeys(("seed", "s_max"), (lambda v: v >= 0, ">= 0")),
    **dict.fromkeys(("trials", "ell", "size_bound", "t_max", "reps", "delay", "c",
                     "product_cases", "c_cases"), (lambda v: v >= 1, ">= 1")),
    "start_rounds": (lambda v: all(s >= 1 for s in v), "all >= 1"),
}


def check_ranges(**values) -> None:
    """Each value against the rule RANGES holds for its name, None (an unset
    optional field) passing; one out of range is a ValueError."""
    for name, value in values.items():
        test, phrase = RANGES[name]
        if value is not None and not test(value):
            raise ValueError(f"{name} must be {phrase}, got {value}")


def _check_interval(a: float, b: float, *inputs: float) -> None:
    """The rules on a and b, checked before the formulas see them, then on each input."""
    if not math.isfinite(b - a + 1.0):  # also false when a or b is not finite
        raise ValueError(f"a and b must be finite, as must b - a + 1, got a={a}, b={b}")
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    for theta in inputs:
        if not a <= theta <= b:
            raise ValueError(f"input {theta} outside [{a}, {b}]")


def rounding_ratio(epsilon: float, a: float, b: float) -> float:
    """beta = eps / (8 w), w = b - a + 1: the quantized variants' rounding ratio."""
    return epsilon / (8.0 * (b - a + 1.0))


def _replicas(k: int, c: int, epsilon: float, eta: float, a: float, b: float) -> int:
    """ceil(k ln(c/eta) w^2 / eps^2), w = b - a + 1: the replica count of
    the params_* formulas, after the range checks."""
    check_ranges(epsilon=epsilon, eta=eta)
    _check_interval(a, b)
    w = b - a + 1.0
    return _stable_ceil(lambda: k * (c / Decimal(eta)).ln() * Decimal(w) ** 2 / Decimal(epsilon) ** 2)


def params_r(epsilon: float, eta: float, a: float, b: float) -> ProtocolParams:
    """Parameters for the full-vector protocol: ell = ceil(27 ln(4/eta) w^2 / eps^2)."""
    return ProtocolParams(epsilon, eta, a, b, ell=_replicas(27, 4, epsilon, eta, a, b))


def params_rbar(epsilon: float, eta: float, a: float, b: float) -> ProtocolParams:
    """Quantized variant: ell = ceil(108 ln(8/eta) w^2 / eps^2), beta = eps / (8 w)."""
    return ProtocolParams(epsilon, eta, a, b, ell=_replicas(108, 8, epsilon, eta, a, b),
                          beta=rounding_ratio(epsilon, a, b))


def params_rbard(epsilon: float, eta: float, a: float, b: float, size_bound: int) -> ProtocolParams:
    """Deciding variant: ell = max(ceil(108 ln(24/eta) w^2/eps^2), ceil(243 ln(6 N^2/eta)))."""
    check_ranges(size_bound=size_bound)  # before it reaches a logarithm
    ell = max(_replicas(108, 24, epsilon, eta, a, b),
              _stable_ceil(lambda: 243 * (6 * Decimal(size_bound) ** 2 / Decimal(eta)).ln()))
    return ProtocolParams(epsilon, eta, a, b, ell=ell, beta=rounding_ratio(epsilon, a, b),
                          size_bound=size_bound)


@dataclass
class RngStream:
    """Keyed, positioned stream of uniforms on (0, 1].

    Identical (seed, trial, agent, purpose) keys reproduce identical
    sequences bit for bit; the generator's occasional exact 0 is mapped
    to 1 so downstream -ln(U) stays finite.
    """

    seed: int
    trial: int = 0
    agent: int = 0
    purpose: str = "protocol"
    position: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        key = [self.seed, self.trial, self.agent, stable_seed("purpose", self.purpose)]
        self._gen = np.random.default_rng(np.random.SeedSequence(entropy=key))

    def uniforms(self, k: int) -> np.ndarray:
        """k uniforms on (0, 1], advancing the stream by k."""
        us = self._gen.random(k)
        us[us == 0.0] = 1.0
        self.position += k
        return us

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])


def sample_exponentials(rate: float, size: int, stream) -> np.ndarray:
    """Batch of Exp(rate) samples via inverse CDF: -ln(U)/rate."""
    check_ranges(rate=rate)
    return -np.log(stream.uniforms(size)) / rate


@dataclass(frozen=True)
class ConcentrationParams:
    """Configuration of one empirical tail experiment.

    ell samples of Exp(rate) per repetition; the deviation event is
    |mean - 1/rate| >= alpha/rate, widened to (alpha + beta + alpha*beta)/rate
    when the samples are rounded with ratio beta first.
    """

    ell: int
    rate: float
    alpha: float
    beta: Optional[float] = None

    def __post_init__(self) -> None:
        check_ranges(ell=self.ell, rate=self.rate, alpha=self.alpha)
        if self.beta is not None:
            _base(self.beta)  # the grid's rule, 1 < 1 + beta < inf


def chernoff_bound(ell: int, alpha: float) -> float:
    """Analytic deviation bound 2 exp(-ell alpha^2 / 3) for the mean of
    ell i.i.d. exponentials (same form with or without rounding)."""
    return 2.0 * float(np.exp(-ell * alpha * alpha / 3.0))


def empirical_tail(cp: ConcentrationParams, reps: int, stream) -> float:
    """Frequency of the deviation event over `reps` repetitions."""
    check_ranges(reps=reps)
    xs = sample_exponentials(cp.rate, reps * cp.ell, stream).reshape(reps, cp.ell)
    threshold = cp.alpha / cp.rate
    if cp.beta is not None:
        xs = dequantize_array(quantize_array(xs, cp.beta), cp.beta)
        threshold = (cp.alpha + cp.beta + cp.alpha * cp.beta) / cp.rate
    deviations = np.abs(xs.mean(axis=1) - 1.0 / cp.rate)
    return float(np.mean(deviations >= threshold))


def min_exponential_stats(
    rates: list[float], xs: list[float], reps: int, stream
) -> tuple[float, list[float]]:
    """Empirical mean and survival frequencies of min of independent
    exponentials with the given rates.

    The minimum should behave like a single exponential of rate
    sum(rates): mean 1/sum(rates), survival P(min > x) = exp(-sum(rates) x).
    Returns (mean, [frequency of min > x for each x]).
    """
    # Exp(r) is Exp(1)/r, and x/1.0 == x, so these are -ln(U)/r bit for bit.
    units = sample_exponentials(1.0, reps * len(rates), stream).reshape(reps, len(rates))
    mins = (units / np.asarray(rates, dtype=np.float64)).min(axis=1)
    return float(mins.mean()), [float(np.mean(mins > x)) for x in xs]
