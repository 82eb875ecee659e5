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

from .sampling import check_ranges

_PIECE = 1 << 14


def quantize(x: float, beta: float) -> int:
    """Exponent k with (1+beta)**k <= x < (1+beta)**(k+1), on quantize_array's grid."""
    return int(quantize_array([x], beta)[0])


def quantize_array(xs: np.ndarray, beta: float) -> np.ndarray:
    """Exponents k with (1+beta)**k <= x < (1+beta)**(k+1), elementwise, for
    normal floats x (a subnormal power of 1+beta repeats over long runs of k):
    quantize_offsets' offsets plus lo, as int64."""
    offsets, lo, _ = quantize_offsets(xs, beta)
    return np.add(offsets, lo, dtype=np.int64)


def quantize_offsets(xs: np.ndarray, beta: float) -> tuple[np.ndarray, int, int]:
    """The exponents of quantize_array as offsets k - lo, elementwise, in
    np.min_scalar_type(hi - lo), with lo and hi, the exponents of the least
    and greatest x (rounding is monotone); an empty xs has lo = hi = 0.  The
    offsets are written piece by piece, with no int64 array of xs's size.

    By lookup in buckets of the floats that share their top 12 + m bits,
    m = ceil(-log2 log2(1+beta)) + 1, each under 3/4 of a grid step wide:
    x takes the offset (k0 - lo) + (thr <= x), k0 = _log_quantize of its
    bucket's lower edge and thr = _grid(1+beta, k0 + 1).  The grid increases with k, so exactly
    one k brackets x, and a bucket holds at most one grid point, so that k
    is k0 or k0 + 1.  A table with more entries than values, or buckets of
    under 2^8 floats (beta < ~8e-14, where np.power's error would eat the
    margin), takes the log path, piece by piece too.
    """
    xs, base = np.asarray(xs, dtype=np.float64), _base(beta)
    flat = xs.reshape(-1)
    if not xs.size:
        return np.empty(xs.shape, dtype=np.uint8), 0, 0
    least, most, tiny = flat.min(), flat.max(), np.finfo(np.float64).tiny
    if not tiny <= least <= most < math.inf:  # NaN fails each comparison
        raise ValueError("all values must be finite normal positive floats")
    shift = 51 - math.ceil(-math.log2(math.log2(base)))  # 52 - m
    j0, j1 = (int(v.view(np.int64)) >> max(shift, 0) for v in (least, most))
    if shift < 8 or j1 - j0 >= xs.size:
        lo, hi = _log_quantize(np.array([least, most]), base).tolist()
        piece = lambda x, k: np.subtract(_log_quantize(x, base), lo, out=k, casting="unsafe")
    else:
        # Where buckets merge binades (beta >= 3) the lowest edge can be 0.
        edges = np.maximum((np.arange(j0, j1 + 1) << shift).view(np.float64), tiny)
        k0 = _log_quantize(edges, base)
        thr = _grid(base, k0 + 1)
        lo, hi = (int(k0[j]) + bool(thr[j] <= v) for j, v in ((0, least), (-1, most)))
        # k0[0] is lo - 1 when least is at or above thr[0]; as every value in
        # the first bucket then is, its offset wraps below 0 and back again.
        table = np.subtract(k0, lo, out=np.empty(len(k0), np.min_scalar_type(hi - lo)), casting="unsafe")
        size = min(_PIECE, xs.size)
        js, above, powers = np.empty(size, dtype=np.int64), np.empty(size, dtype=bool), np.empty(size)

        def piece(x: np.ndarray, k: np.ndarray) -> None:
            j, up, t = js[: len(x)], above[: len(x)], powers[: len(x)]
            np.subtract(np.right_shift(x.view(np.int64), shift, out=j), j0, out=j)
            np.less_equal(np.take(thr, j, out=t, mode="clip"), x, out=up)
            np.add(np.take(table, j, out=k, mode="clip"), up, out=k)

    offsets = np.empty(xs.size, dtype=np.min_scalar_type(hi - lo))
    for at in range(0, xs.size, _PIECE):
        piece(flat[at : at + _PIECE], offsets[at : at + _PIECE])
    return offsets.reshape(xs.shape), lo, hi


def _log_quantize(flat: np.ndarray, base: float) -> np.ndarray:
    """quantize_array of a 1-d array of normal floats by logarithm and
    correction, exact at any base: the float estimate floor(ln x / ln base)
    can land one off at exact powers of base, and the correction loops
    restore the defining bracketing on the grid."""
    ks = np.floor(np.log(flat) / np.log(base)).astype(np.int64)
    # Converges in one step apart from pathological float noise, hence the loops.
    while (low := _grid(base, ks + 1) <= flat).any():
        ks[low] += 1
    while (high := _grid(base, ks) > flat).any():
        ks[high] -= 1
    return ks


def dequantize_array(ks: np.ndarray, beta: float) -> np.ndarray:
    """The represented values (1+beta)**k, elementwise, on the one grid."""
    return _grid(_base(beta), ks)


def _grid(base: float, ks) -> np.ndarray:
    """The grid, base**k elementwise by np.power, for every rounding and
    represented value; a power past the largest float is inf, as the grid
    defines it, not an overflow warning."""
    with np.errstate(over="ignore"):
        return np.power(base, np.asarray(ks, dtype=np.float64))


def _base(beta: float) -> float:
    """The grid's base 1 + beta, under sampling.RANGES' beta rule."""
    check_ranges(beta=beta)
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
