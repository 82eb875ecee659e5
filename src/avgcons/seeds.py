"""Stable integer key derivation for seeding RNGs.

Every source of randomness in this package (graph schedules, protocol
sampling, input generation) is keyed by a tuple of structured parts, so
that re-deriving the same key always yields the same stream, across
processes and platforms.
"""
from __future__ import annotations

import hashlib
from functools import cache, reduce
from itertools import accumulate

import numpy as np


def extend_key(h, part: object):
    """A copy of the key hash h that has also absorbed part."""
    h = h.copy()
    h.update(repr(part).encode("utf-8") + b"\x1f")
    return h


def key_hash(*parts: object):
    """The sha256 state that has absorbed parts in order."""
    return reduce(extend_key, parts, hashlib.sha256())


def seed_of(h) -> int:
    """The 64-bit seed of a key hash."""
    return int.from_bytes(h.digest()[:8], "little", signed=False)


def stable_seed(*parts: object) -> int:
    """Derive a 64-bit seed from structured parts, stable across runs."""
    return seed_of(key_hash(*parts))


def entropy_words(part: int) -> list[int]:
    """The uint32 words numpy's SeedSequence makes of an int entropy part:
    its little-endian 32-bit words, one zero word for 0.  A list of parts
    is the concatenation of their words."""
    if part < 0:
        raise ValueError(f"expected non-negative integer, got {part}")
    words = [part & 0xFFFFFFFF]
    while part := part >> 32:
        words.append(part & 0xFFFFFFFF)
    return words


# CPython's random.Random is MT19937 (Matsumoto & Nishimura, ACM TOMACS
# 8(1), 1998), with a 624-word state.  Output k of its first twist reads
# state words k, k+1 and k+397, so the first 227 read only the seeded state.
MAX_MT_WORDS = 227


@cache
def _mt_constants() -> tuple[tuple[np.ndarray, ...], ...]:
    """init_genrand(19650218), the state init_by_array starts from; 0..623;
    and the twist's and the tempering's masks, all as 0-d uint32 arrays,
    which a ufunc takes faster than numpy scalars.  Built on first use, not
    at import."""
    u32 = lambda words: tuple(np.array(w, dtype=np.uint32) for w in words)
    genrand = accumulate(range(1, 624), lambda w, i: (1812433253 * (w ^ w >> 30) + i) & 0xFFFFFFFF,
                         initial=19650218)
    return u32(genrand), u32(range(624)), u32((0x80000000, 0x7FFFFFFF, 0x9908B0DF, 0x9D2C5680, 0xEFC60000))


def mt_words(keys: np.ndarray, count: int) -> np.ndarray:
    """random.Random(key).getrandbits(32), count <= MAX_MT_WORDS times, for
    every uint64 key in [2**32, 2**64) at once (a smaller key seeds from one
    word, not two), as a (count, len(keys)) uint32 array.  init_by_array's
    first loop runs to its wrap in one running word a, then again beside
    its second loop's running word b, the two stacked as one (2, len(keys))
    array ab.  Output k of the twist is state word k + 397 xor a mix of
    state words k and k + 1, so the outputs' rows hold state words 2..count
    until those are mixed, and no other state is stored."""
    (g, num, (upper, lower, twist, mask7, mask15)), u32 = _mt_constants(), np.uint32
    plus = ((keys & 0xFFFFFFFF).astype(u32), ((keys >> 32) + 1).astype(u32))  # key[j] + j
    ab, tmp = np.empty((2, len(keys)), dtype=u32), np.empty((2, len(keys)), dtype=u32)
    # Each row's loop multiplier, repeated: a ufunc broadcasting a column is slower.
    mult = np.repeat(np.array([[1664525], [1566083941]], dtype=u32), len(keys), axis=1)
    shr, xor, mul, add, sub = np.right_shift, np.bitwise_xor, np.multiply, np.add, np.subtract
    (a, b), (tmp_a, tmp_b), (mult_a, mult_b), s30 = ab, tmp, mult, num[30]
    a[:] = g[0]
    for i in range(1, 625):  # a: the first loop's rows 1..623, then row 1 again at its wrap
        shr(a, s30, tmp_a)
        xor(a, tmp_a, a)
        mul(a, mult_a, a)
        xor(a, g[i] if i < 624 else row1, a)
        add(a, plus[(i - 1) % 2], a)
        if i == 1:
            row1 = a.copy()
    # Outputs 0 and 1 start at 0; row count, past the outputs, holds state word count.
    out, chunk = np.zeros((count + 1, len(keys)), dtype=u32), np.empty((2, 8, len(keys)), dtype=u32)

    def mixed(word: np.ndarray, following: np.ndarray) -> np.ndarray:  # up to 8 rows each
        y, t = chunk[0, : len(word)], chunk[1, : len(word)]
        np.bitwise_and(word, upper, y)
        np.bitwise_and(following, lower, t)
        y |= t
        np.bitwise_and(y, num[1], t)
        t *= twist
        y >>= num[1]
        y ^= t
        return y

    wrapped = a.copy()
    b[:], a[:] = a, row1
    for i in range(2, 624):  # a: the first loop's row i again; b: the second loop's row i
        shr(ab, s30, tmp)
        xor(ab, tmp, ab)
        mul(ab, mult, ab)
        xor(a, g[i], a)
        add(a, plus[(i - 1) % 2], a)
        xor(b, a, b)
        sub(b, num[i], b)
        if i == 2:  # for output 1, after its row is mixed
            row2 = b.copy()
        if i <= count:
            out[i] = b
        if i == count:  # state words 2..count are in: mix them, in place, in order
            for k in range(2, count, 8):
                hi = min(k + 8, count)
                out[k:hi] = mixed(out[k:hi], out[k + 1 : hi + 1])
        if 0 <= i - 397 < count:
            out[i - 397] ^= b
    shr(b, s30, tmp_b)  # the wrap: row 1, whose first-loop word is wrapped
    xor(b, tmp_b, b)
    mul(b, mult_b, b)
    xor(b, wrapped, b)
    sub(b, num[1], b)
    head = min(count, 2)  # state word 0 is 0x80000000, and b is state word 1
    out[:head] ^= mixed(np.stack([np.full_like(b, upper), b])[:head], np.stack([b, row2])[:head])
    for k in range(0, count, 8):  # the tempering, 8 outputs at a time
        o = out[k : min(k + 8, count)]
        t = chunk[0, : len(o)]
        shr(o, num[11], t)
        xor(o, t, o)
        np.left_shift(o, num[7], t)
        t &= mask7
        xor(o, t, o)
        np.left_shift(o, num[15], t)
        t &= mask15
        xor(o, t, o)
        shr(o, num[18], t)
        xor(o, t, o)
    return out[:count]
