"""Deterministic named RNG streams.

All randomness in the package flows through one experiment seed expanded into
named sub-streams (fold splits, epoch shuffles, per-graph perturbations, ...).
A stream is identified by the seed plus a tuple of tags; the same
(seed, tags) always yields the same generator state, independent of how many
other streams were created before it.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import InputError


def _tag_to_int(tag: str | int) -> int:
    if isinstance(tag, bool):
        raise TypeError("bool is not a valid stream tag")
    if isinstance(tag, int):
        return tag & 0xFFFFFFFF
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"stream tags must be str or int, got {type(tag).__name__}")


def seeded_rng(seed: int, *tags: str | int) -> np.random.Generator:
    """Generator for the sub-stream named by `tags` under `seed`, which must
    lie in [0, 2**64): a seed outside would alias one inside."""
    if not 0 <= seed < 2**64:
        raise InputError(f"seed must lie in [0, 2**64), got {seed}")
    # the words SeedSequence makes of [seed, *tags]: the seed's 32-bit words, low first, then tags
    words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    entropy = np.array([*words, *map(_tag_to_int, tags)], np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
