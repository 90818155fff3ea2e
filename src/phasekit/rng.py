"""Seed derivation for reproducible, scheduling-independent experiments.

Every randomized trial gets its own 64-bit seed derived from the master
seed and the trial's identity, so results do not depend on execution
order or on how trials are grouped.  The derivation rule is fixed:

    state = master_seed
    for each part:                      # strings hashed with FNV-1a 64
        state = splitmix64(state XOR as_u64(part))

splitmix64 is the finalizer from Steele/Lea/Flood (2014); it is a
bijection on 64-bit integers, so distinct inputs never collide for a
single absorption step.  Generators are numpy PCG64 instances, whose
bit stream is fixed by numpy's stream-compatibility guarantee.

The mixing runs on uint64 arrays, so a whole block of trial indices is
absorbed in one pass; scalar seeds are the one-element case.
"""

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# numpy's Generator.random(): the top 53 bits of one 64-bit draw, times 2**-53.
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 2.0 ** -53


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 over a uint64 array; numpy array arithmetic wraps mod 2**64."""
    x = x + _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def splitmix64(x: int) -> int:
    """One splitmix64 mixing step (64-bit avalanche)."""
    return int(_splitmix64(np.array([x & _MASK64], dtype=np.uint64))[0])


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a UTF-8 string, for absorbing string identifiers."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master_seed: int, *parts):
    """Derive a 64-bit stream seed from a master seed and identity parts.

    Parts may be ints or strings; strings are hashed with FNV-1a before
    absorption.  The same (master_seed, parts) always yields the same
    seed on every platform.  A part may also be an integer array, for
    example a block of trial indices; the result is then the uint64 array
    of the seeds for each entry, otherwise a Python int.
    """
    state = np.array([master_seed & _MASK64], dtype=np.uint64)
    batched = False
    for part in parts:
        if isinstance(part, str):
            value = np.uint64(fnv1a64(part))
        elif isinstance(part, np.ndarray):
            value = part.astype(np.uint64)
            batched = True
        else:
            value = np.uint64(int(part) & _MASK64)
        state = _splitmix64(state ^ value)
    return state if batched else int(state[0])


def make_generator(seed: int) -> np.random.Generator:
    """numpy Generator over PCG64 seeded with a 64-bit integer."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def uniform_rows(seeds: np.ndarray, k: int) -> np.ndarray:
    """(T, k) matrix whose row t is make_generator(seeds[t]).random(k).

    The raw PCG64 words are converted as numpy converts them, which skips
    building a Generator per stream.
    """
    raw = np.empty((len(seeds), k), dtype=np.uint64)
    for row, seed in zip(raw, seeds.tolist()):
        row[:] = np.random.PCG64(seed).random_raw(k)
    return (raw >> _DOUBLE_SHIFT) * _DOUBLE_SCALE
