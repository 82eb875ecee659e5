"""Stable integer key derivation for seeding RNGs.

Every source of randomness in this package (graph schedules, protocol
sampling, input generation) is keyed by a tuple of structured parts, so
that re-deriving the same key always yields the same stream, across
processes and platforms.
"""
from __future__ import annotations

import hashlib
from functools import reduce


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
