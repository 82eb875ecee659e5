"""Exponential sampling, protocol parameter formulas, and tail checks.

Sampling is inverse-CDF: -ln(U)/rate with U uniform on [2**-53, 1 - 2**-53].
This is exact, branch-free, and reproducible across platforms up to float
rounding, which matters because consensus checks elsewhere compare values
bit for bit.

Randomness is organized as keyed streams: a stream is addressed by
(master seed, trial, agent, purpose) and two streams with the same key
yield the same sample sequence, while distinct agents or purposes get
independent sequences.  Trials can therefore run in parallel with no
shared RNG state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Context, Decimal, localcontext
from functools import lru_cache
from typing import Optional

import numpy as np

from .seeds import entropy_words, stable_seed


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
        check_ranges(epsilon=self.epsilon, eta=self.eta, ell=self.ell, beta=self.beta,
                     size_bound=self.size_bound)
        _check_interval(self.a, self.b)
        if self.ell > np.iinfo(np.intp).max // 8:  # bytes of one float64 vector
            raise ValueError(f"replica count ell, about 10^{len(str(self.ell)) - 1}, is too large "
                             f"for any array: raise epsilon or narrow [a, b]")

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


# Every single-value range rule, name -> (test, phrase), stated once: each
# config, formula and function that takes one of these values checks it here.
RANGES = {
    **dict.fromkeys(("epsilon", "eta", "alpha"), (lambda v: 0 < v < 0.5, "in (0, 1/2)")),
    "rate": (lambda v: v > 0, "> 0"),
    "slack_sigmas": (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"),
    **dict.fromkeys(("seed", "s_max"), (lambda v: v >= 0, ">= 0")),
    **dict.fromkeys(("n", "t", "trials", "ell", "size_bound", "t_max", "reps", "delay", "c",
                     "product_cases", "c_cases"), (lambda v: v >= 1, ">= 1")),
    # The grid's finite base 1 + beta: below 1 + ulp every power is 1 and
    # brackets nothing, and at infinity every exponent maps to 0 or 1.
    "beta": (lambda v: 1.0 < 1.0 + v < math.inf, "> 0 with 1 + beta > 1 in floats, and finite"),
    "start_rounds": (lambda v: all(s >= 1 for s in v), "all >= 1"),
    "inputs": (lambda v: all(map(math.isfinite, v)), "finite"),
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


_LEAST_U = 2.0**-53  # the generator's least nonzero output


@lru_cache(maxsize=64)  # bounded: the verify suites name a purpose per tail case
def _purpose_words(purpose: str) -> tuple[int, ...]:
    return tuple(entropy_words(stable_seed("purpose", purpose)))


@dataclass
class RngStream:
    """Keyed stream of uniforms on [2**-53, 1 - 2**-53].

    Identical (seed, trial, agent, purpose) keys reproduce identical
    sequences bit for bit; the generator's occasional exact 0 is mapped
    to its least nonzero output, 2**-53, so -ln(U) is finite and positive.
    The generator is numpy's default_rng on the SeedSequence of
    [seed, trial, agent, stable_seed("purpose", purpose)], given as the
    uint32 words numpy would make of that list, with no array per int.
    """

    seed: int
    trial: int = 0
    agent: int = 0
    purpose: str = "protocol"

    def __post_init__(self) -> None:
        words = [*entropy_words(self.seed), *entropy_words(self.trial), *entropy_words(self.agent),
                 *_purpose_words(self.purpose)]
        self._gen = np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))

    def uniforms(self, k: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """k uniforms on [2**-53, 1 - 2**-53], advancing the stream by k,
        written into out (contiguous, of k floats) if given.  Every output
        but the exact 0 is a multiple of 2**-53, so the maximum maps 0 alone."""
        us = self._gen.random(k, out=out)
        return np.maximum(us, _LEAST_U, out=us)

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])


def inverse_cdf(us, rate, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The Exp(rate) draws -ln(U)/rate of uniforms U, elementwise, into out
    if given (which may be us).  Negation is exact and rounding symmetric,
    so ln(U)/(-rate) is the same float."""
    return np.divide(np.log(us, out=out), np.negative(rate), out=out)


def draw_range(rate: float) -> tuple[float, float]:
    """The least and greatest Exp(rate) draw RngStream's uniforms give:
    inverse_cdf of its greatest uniform, 1 - 2**-53, and of its least."""
    return tuple(float(inverse_cdf(u, rate)) for u in (1.0 - _LEAST_U, _LEAST_U))


def sample_exponentials(rate: float, size: int, stream) -> np.ndarray:
    """Batch of Exp(rate) samples via inverse CDF: -ln(U)/rate."""
    check_ranges(rate=rate)
    return inverse_cdf(stream.uniforms(size), rate)


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
        check_ranges(ell=self.ell, rate=self.rate, alpha=self.alpha, beta=self.beta)


def chernoff_bound(ell: int, alpha: float) -> float:
    """Analytic deviation bound 2 exp(-ell alpha^2 / 3) for the mean of
    ell i.i.d. exponentials (same form with or without rounding)."""
    return 2.0 * float(np.exp(-ell * alpha * alpha / 3.0))


def empirical_tail(cp: ConcentrationParams, reps: int, stream) -> float:
    """Frequency of the deviation event over `reps` repetitions."""
    from .quantization import dequantize_array, quantize_array  # it imports this module

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
    us = stream.uniforms(reps * len(rates)).reshape(reps, len(rates))
    mins = inverse_cdf(us, np.asarray(rates, dtype=np.float64)).min(axis=1)
    return float(mins.mean()), [float(np.mean(mins > x)) for x in xs]
