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


@np.errstate(over="ignore")  # here and in _log_quantize, powers past the largest float are inf
def quantize_array(xs: np.ndarray, beta: float) -> np.ndarray:
    """Exponents k with (1+beta)**k <= x < (1+beta)**(k+1), elementwise, for
    normal floats x (a subnormal power of 1+beta repeats over long runs of k).

    By lookup in buckets of the floats that share their top 12 + m bits,
    m = ceil(-log2 log2(1+beta)) + 1, each under 3/4 of a grid step wide:
    x takes k0 + (thr <= x), k0 = _log_quantize of its bucket's lower edge
    and thr = np.power(1+beta, k0 + 1), np.power's grid as in
    dequantize_array.  The grid increases with k, so exactly one k brackets
    x, and a bucket holds at most one grid point, so that k is k0 or k0 + 1.
    A table with more entries than values, or buckets of under 2^8 floats
    (beta < ~8e-14, where np.power's error would eat the margin), takes the
    log path.
    """
    xs, base = np.asarray(xs, dtype=np.float64), _base(beta)
    flat = xs.reshape(-1)
    if not xs.size:
        return np.empty(xs.shape, dtype=np.int64)
    least, most, tiny = flat.min(), flat.max(), np.finfo(np.float64).tiny
    if not tiny <= least <= most < math.inf:  # NaN fails each comparison
        raise ValueError("all values must be finite normal positive floats")
    shift = 51 - math.ceil(-math.log2(math.log2(base)))  # 52 - m
    j0, j1 = (int(v.view(np.int64)) >> max(shift, 0) for v in (least, most))
    if shift < 8 or j1 - j0 >= xs.size:
        return _log_quantize(flat, base).reshape(xs.shape)
    # Where buckets merge binades (beta >= 3) the lowest edge can be 0.
    edges = np.maximum((np.arange(j0, j1 + 1) << shift).view(np.float64), tiny)
    k0 = _log_quantize(edges, base)
    thr = np.power(base, (k0 + 1).astype(np.float64))
    size, ks = min(_PIECE, xs.size), np.empty(xs.size, dtype=np.int64)
    js, above, powers = np.empty(size, dtype=np.int64), np.empty(size, dtype=bool), np.empty(size)
    for at in range(0, xs.size, _PIECE):
        x, k = flat[at : at + _PIECE], ks[at : at + _PIECE]
        j, up, t = js[: len(x)], above[: len(x)], powers[: len(x)]
        np.subtract(np.right_shift(x.view(np.int64), shift, out=j), j0, out=j)
        np.less_equal(np.take(thr, j, out=t, mode="clip"), x, out=up)
        np.add(np.take(k0, j, out=k, mode="clip"), up, out=k)
    return ks.reshape(xs.shape)


def _log_quantize(flat: np.ndarray, base: float) -> np.ndarray:
    """quantize_array of a 1-d array of normal floats by logarithm and
    correction, exact at any base.

    The float estimate floor(ln x / ln base) can land one off at exact
    powers of base; the correction loops restore the defining bracketing.
    Every step is elementwise, so the input goes in cache-sized pieces, each
    with one table of the powers over its estimated exponents lo..hi,
    widened to lo - 1 .. hi + 2 for the loop steps, unless that would
    outsize the piece (spans are unbounded).  The loops track bounds on k,
    so both read the table with no scan of k, and call np.power only once a
    step leaves it.
    """
    ks = np.empty(flat.size, dtype=np.int64)
    for at in range(0, flat.size, _PIECE):
        x, k = flat[at : at + _PIECE], ks[at : at + _PIECE]
        k[:] = np.floor(np.log(x) / np.log(base))
        least, most = int(k.min()), int(k.max())  # bounds on k, kept through the loops
        lo, hi = least - 1, most + 2
        table = np.power(base, np.arange(lo, hi + 1, dtype=float)) if hi - lo < len(x) else None
        power = lambda es, a, b: (table[es - lo] if table is not None and lo <= a and b <= hi
                                  else np.power(base, es.astype(np.float64)))
        # Converges in one step apart from pathological float noise, hence the loops.
        while (low := power(k + 1, least + 1, most + 1) <= x).any():
            k[low] += 1
            most += 1
        while (high := power(k, least, most) > x).any():
            k[high] -= 1
            least -= 1
    return ks


def dequantize_array(ks: np.ndarray, beta: float) -> np.ndarray:
    """The represented values (1+beta)**k, elementwise, by np.power: the one grid."""
    return np.power(_base(beta), np.asarray(ks, dtype=np.float64))


def _base(beta: float) -> float:
    """The grid's finite base 1 + beta; below 1 + ulp every power is 1 and
    brackets nothing, and at infinity every exponent maps to 0 or 1."""
    if not 1.0 < 1.0 + beta < math.inf:
        raise ValueError(f"beta must be > 0 with 1 + beta > 1 in floats, and finite, got {beta}")
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
    eta < 1/2, a <= b and ell >= 1 keep below 1/16, as its derivation needs,
    and which must be a normal float, as count_levels needs."""
    if (z := params.eta / (4.0 * (params.b - params.a + 2.0) * params.ell * n)) < np.finfo(np.float64).tiny:
        raise ValueError(f"eta={params.eta} is too small for ell={params.ell} and n={n}: "
                         f"z = eta / (4 (b - a + 2) ell n) is not a normal float")
    return z, math.log(1.0 / z)
