"""Splittable counter-based PRNG (SplitMix64 finalizer).

Every random decision in the package is derived by splitting a 64-bit run
seed with string/int keys, so no global RNG state exists and any draw can
be reproduced from (seed, keys) alone.

Constants are the standard SplitMix64 ones:
    gamma = 0x9E3779B97F4A7C15
    mix   = murmur-style finalizer with multipliers
            0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _key_to_u64(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK
    if isinstance(key, str):
        h = _FNV_OFFSET
        for b in key.encode("utf-8"):
            h = ((h ^ b) * _FNV_PRIME) & _MASK
        return h
    raise TypeError(f"rng split keys must be int or str, got {type(key)!r}")


def split(seed: int, *keys) -> int:
    """Derive an independent 64-bit seed from `seed` and a key path."""
    s = _mix64((int(seed) + _GAMMA) & _MASK)
    for key in keys:
        s = _mix64((s ^ _key_to_u64(key)) + _GAMMA & _MASK)
    return s


def uniforms(seed, n: int) -> np.ndarray:
    """n f64 samples in [0, 1), counter-mode from `seed`.

    `seed` may also be a sequence of seeds: the result is then one row of
    n samples per seed, each equal to that seed's own draw.
    """
    seeds = np.asarray(seed, dtype=np.uint64)[..., None]
    with np.errstate(over="ignore"):
        ctr = seeds + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (ctr ^ (ctr >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def normals(seed: int, n: int) -> np.ndarray:
    """n standard-normal f64 samples via Box-Muller on the uniform stream."""
    m = (n + 1) // 2
    u = uniforms(seed, 2 * m)
    u1 = 1.0 - u[:m]  # avoid log(0)
    u2 = u[m:]
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return out[:n]


def permutation(seed, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): stable argsort of uniforms.

    `seed` may also be a sequence of seeds: the result is then one row per
    seed, each equal to that seed's own permutation.
    """
    return np.argsort(uniforms(seed, n), axis=-1, kind="stable")
