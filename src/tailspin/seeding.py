"""Deterministic derivation of per-purpose random streams from one run seed.

All randomness in a run is derived here, so any stage is reproducible in
isolation. Data generation, corruption, init and shuffling draw from numpy
generators seeded with ``derive``; augmentation draws are counter-based,
``splitmix64_array`` of a per-view seed and a slot number. The mixing
function is splitmix64; string labels are folded in via FNV-1a. Both are
documented in the README so alternate implementations can reproduce the
streams.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Elementwise ``splitmix64`` of a uint64 array; arithmetic wraps mod 2^64."""
    z = np.array(x, dtype=np.uint64)
    z += _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def fnv1a64(s: str) -> int:
    h = 0xCBF29CE484222325
    for byte in s.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


def derive(seed: int, *parts: int | str) -> int:
    """Fold purpose labels and integer coordinates into a fresh 64-bit seed."""
    state = splitmix64(int(seed) & _MASK)
    for part in parts:
        if isinstance(part, str):
            v = fnv1a64(part)
        elif isinstance(part, (int, np.integer)):
            v = int(part) & _MASK
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        state = splitmix64(state ^ v)
    return state


def rng_for(seed: int, *parts: int | str) -> np.random.Generator:
    return np.random.default_rng(derive(seed, *parts))
