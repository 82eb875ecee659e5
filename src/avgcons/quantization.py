"""Logarithmic rounding of positive reals onto a (1+beta) grid.

A quantized value is stored and transmitted as the signed integer
exponent k representing (1+beta)**k, never as a float: taking minima
becomes integer comparison, repeated rounding is exactly idempotent, and
message-size accounting is well defined.  The represented value is the
largest power of (1+beta) not exceeding the input, i.e. rounding always
goes downward on the logarithmic scale.
"""
from __future__ import annotations

import math

import numpy as np

_PIECE = 1 << 14


def quantize(x: float, beta: float) -> int:
    """Exponent k with (1+beta)**k <= x < (1+beta)**(k+1), on quantize_array's grid."""
    return int(quantize_array([x], beta)[0])


def quantize_array(xs: np.ndarray, beta: float) -> np.ndarray:
    """Exponents k with (1+beta)**k <= x < (1+beta)**(k+1), elementwise, for
    normal floats x (a subnormal power of 1+beta repeats over long runs of k).

    The float estimate floor(ln x / ln(1+beta)) can land one off at exact
    powers of (1+beta); the correction loops restore the defining
    bracketing, which is what every property of the rounding relies on.
    The powers are np.power's, as in dequantize_array.  Every step is
    elementwise, so the input goes in cache-sized pieces, each with a table
    of the powers over its estimated span and two steps above, unless that
    would outsize the piece (spans are unbounded) or a loop leaves it.
    """
    xs, base = np.asarray(xs, dtype=np.float64), _base(beta)
    if not np.all(xs >= np.finfo(np.float64).tiny) or not np.all(np.isfinite(xs)):
        raise ValueError("all values must be finite normal positive floats")
    flat, ks = xs.reshape(-1), np.empty(xs.size, dtype=np.int64)
    for at in range(0, xs.size, _PIECE):
        x, k = flat[at : at + _PIECE], ks[at : at + _PIECE]
        k[:] = np.floor(np.log(x) / np.log(base))
        lo, span = int(k.min()), int(np.ptp(k)) + 3
        table = None if span > len(x) else np.power(base, np.arange(lo, lo + span, dtype=float))
        power = lambda es: (table[es - lo] if table is not None and lo <= es.min()
                            and es.max() < lo + span else np.power(base, es.astype(np.float64)))
        # Converges in one step apart from pathological float noise, hence the loops.
        while (low := power(k + 1) <= x).any():
            k[low] += 1
        while (high := power(k) > x).any():
            k[high] -= 1
    return ks.reshape(xs.shape)


def dequantize(k: int, beta: float) -> float:
    """The represented value (1+beta)**k, on dequantize_array's grid."""
    return float(dequantize_array([k], beta)[0])


def dequantize_array(ks: np.ndarray, beta: float) -> np.ndarray:
    """The represented values (1+beta)**k, elementwise, by np.power: the one grid."""
    return np.power(_base(beta), np.asarray(ks, dtype=np.float64))


def _base(beta: float) -> float:
    """The grid's base 1 + beta; below 1 + ulp every power is 1 and brackets nothing."""
    if not 1.0 + beta > 1.0:
        raise ValueError(f"beta must be > 0 with 1 + beta > 1 in floats, got {beta}")
    return 1.0 + beta


def count_levels(c: float, d: float, beta: float) -> int:
    """Number of distinct exponents taken by values in [c, d].

    This is the exact count floor(log_{1+beta} d) - floor(log_{1+beta} c) + 1,
    not the looser ceil/floor bound, which can undercount by one when an
    interval endpoint is an exact power.
    """
    if not 0 < c <= d:
        raise ValueError(f"need 0 < c <= d, got c={c}, d={d}")
    return quantize(d, beta) - quantize(c, beta) + 1


def admissible_interval(params, n: int) -> tuple[float, float]:
    """Interval [z, ln(1/z)] that holds all samples of n agents run with the
    ProtocolParams params w.h.p.: z = eta / (4 (b - a + 2) ell n), which
    eta < 1/2, a <= b and ell >= 1 keep below 1/16, as its derivation needs."""
    z = params.eta / (4.0 * (params.b - params.a + 2.0) * params.ell * n)
    return z, math.log(1.0 / z)
