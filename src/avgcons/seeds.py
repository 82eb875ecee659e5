"""Stable integer key derivation for seeding RNGs.

Every source of randomness in this package (graph schedules, protocol
sampling, input generation) is keyed by a tuple of structured parts, so
that re-deriving the same key always yields the same stream, across
processes and platforms.
"""
from __future__ import annotations

import hashlib
from functools import reduce
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


# CPython's random.Random is MT19937 (Matsumoto & Nishimura, ACM TOMACS
# 8(1), 1998), with a 624-word state.  Output k of its first twist reads
# state words k, k+1 and k+397, so the first 227 read only the seeded state.
MAX_MT_WORDS = 227
# init_genrand(19650218), the state init_by_array starts from.
_GENRAND = tuple(map(np.uint32, accumulate(
    range(1, 624), lambda w, i: (1812433253 * (w ^ w >> 30) + i) & 0xFFFFFFFF, initial=19650218)))


def mt_words(keys: np.ndarray, count: int) -> np.ndarray:
    """random.Random(key).getrandbits(32), count <= MAX_MT_WORDS times, for
    every uint64 key in [2**32, 2**64) at once (a smaller key seeds from one
    word, not two), as a (count, len(keys)) uint32 array.  init_by_array's
    first loop runs to its wrap in one running word, then again beside its
    second loop, so only the state words the outputs read are stored."""
    g, u32 = _GENRAND, np.uint32
    plus = ((keys & 0xFFFFFFFF).astype(u32), ((keys >> 32) + 1).astype(u32))  # key[j] + j
    tmp = np.empty(len(keys), dtype=u32)
    shr, xor, mul, add_, s30 = np.right_shift, np.bitwise_xor, np.multiply, np.add, u32(30)  # ~9,300 calls

    def step(word, row, mult, add):  # word = (row ^ (word ^ word >> 30) * mult) + add
        shr(word, s30, tmp)
        xor(tmp, word, tmp)
        mul(tmp, mult, tmp)
        xor(tmp, row, word)
        add_(word, add, word)

    m1, m2 = u32(1664525), u32(1566083941)  # the first and the second loop's
    a = np.full(len(keys), g[0])
    step(a, g[1], m1, plus[0])
    row1 = a.copy()
    for i in range(2, 624):  # a: the first loop's row i
        step(a, g[i], m1, plus[(i - 1) % 2])
    step(a, row1, m1, plus[1])  # the wrap: row 1 again, after row 623
    low, out = np.empty((count + 1, len(keys)), dtype=u32), np.empty((count, len(keys)), dtype=u32)
    b, wrapped, a = a, a.copy(), row1
    for i in range(2, 624):  # b: the second loop's row i
        step(a, g[i], m1, plus[(i - 1) % 2])
        step(b, a, m2, u32(2**32 - i))
        if i <= count:
            low[i] = b
        if 0 <= i - 397 < count:
            out[i - 397] = b
    step(b, wrapped, m2, u32(2**32 - 1))
    low[0], low[1] = 0x80000000, b
    for k in range(count):  # the twist, then the tempering, in place
        y = low[k] & u32(0x80000000) | low[k + 1] & u32(0x7FFFFFFF)
        out[k] ^= y >> u32(1) ^ (y & u32(1)) * u32(0x9908B0DF)
    out ^= out >> u32(11)
    out ^= out << u32(7) & u32(0x9D2C5680)
    out ^= out << u32(15) & u32(0xEFC60000)
    out ^= out >> u32(18)
    return out
