"""Deterministic randomness utilities.

Two mechanisms, both reproducible bit-for-bit from a root seed:

* `RngStreams` — named `numpy.random.Generator` streams.  Each subsystem
  asks for its own stream (e.g. ``streams.get("underlay.degradation")``) so
  adding randomness in one module never perturbs another module's draws.

* `hash_noise` / `hash_uniform` — *stateless* noise functions.  A link-state
  process must be able to answer "what was the jitter at t=86,399 s?"
  without having generated the preceding 86,398 samples.  We hash
  (stream_key, integer time) with a splitmix64-style mixer and map the
  result to a uniform or standard-normal variate.  The functions are
  vectorised over time arrays.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Union

import numpy as np

ArrayLike = Union[int, float, np.ndarray]

_U64 = np.uint64
#: The splitmix64 finaliser's constants as NumPy scalars, built once
#: (converting them per call cost ~15 % of a small `hash_uniform`).
_FINALISER = tuple(_U64(c) for c in (
    0x9E3779B97F4A7C15, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31,
    11))


def _key_to_seed(key: str) -> int:
    """Map a string key to a stable 64-bit integer via BLAKE2b."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStreams:
    """A registry of independent, named random streams.

    >>> streams = RngStreams(root_seed=7)
    >>> g1 = streams.get("traffic")
    >>> g2 = streams.get("underlay")
    >>> streams.get("traffic") is g1   # streams are cached
    True
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, key: str) -> np.random.Generator:
        """Return the generator for `key`, creating it on first use."""
        if key not in self._streams:
            seed_seq = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(_key_to_seed(key),))
            self._streams[key] = np.random.Generator(np.random.PCG64(seed_seq))
        return self._streams[key]

    def seed_for(self, key: str) -> int:
        """A stable 64-bit sub-seed for `key` (for hash-noise streams)."""
        mixed = _key_to_seed(key) ^ (self.root_seed * 0x9E3779B97F4A7C15)
        return mixed & 0xFFFFFFFFFFFFFFFF


def hash_uniform(seed: Union[int, np.ndarray], t: ArrayLike,
                 salt: Union[int, np.ndarray] = 0) -> np.ndarray:
    """Stateless uniform(0,1) noise indexed by integer time.

    The same (seed, floor(t), salt) always yields the same value, so a
    process can be sampled at arbitrary times in arbitrary order.
    `seed` may be a uint64 array (one stream per element, broadcast
    against `t`), which is how link-state snapshots evaluate every link
    of an underlay in one vectorised pass; `salt` may be a uint64 array
    too (broadcast against both), so several salts cost one pass.

    Every simulated outcome depends on these bits (known-answer table
    in ``tests/sim/test_rng.py``).  The arithmetic is modulo 2**64 by
    construction: uint64 *arrays* wrap silently (only NumPy scalars
    warn), so the working array is kept at least 1-d and updated in
    place.
    """
    tf = np.asarray(t, dtype=np.float64)
    scalar = tf.ndim == 0
    x = np.floor(tf[None] if scalar else tf).astype(np.int64).view(np.uint64)
    x *= _U64(0xD1342543DE82EF95)
    if isinstance(seed, np.ndarray):
        scalar = scalar and seed.ndim == 0
        x = x ^ seed.astype(np.uint64, copy=False)
    else:
        x ^= _U64(seed & 0xFFFFFFFFFFFFFFFF)
    if isinstance(salt, np.ndarray):
        scalar = False
        x = x + salt * _U64(0xA24BAED4963EE407)
    else:
        x += _U64((salt * 0xA24BAED4963EE407) & 0xFFFFFFFFFFFFFFFF)
    # splitmix64 finaliser: uint64 -> well-mixed uint64.
    gamma, shift1, mul1, shift2, mul2, shift3, mantissa = _FINALISER
    x += gamma
    shifted = x >> shift1
    x ^= shifted
    x *= mul1
    np.right_shift(x, shift2, out=shifted)
    x ^= shifted
    x *= mul2
    np.right_shift(x, shift3, out=shifted)
    x ^= shifted
    # 53-bit mantissa -> uniform double in [0, 1)
    x >>= mantissa
    out = x.astype(np.float64)
    out *= 1.0 / 9007199254740992.0
    return out[0] if scalar else out


def hash_noise(seed: Union[int, np.ndarray], t: ArrayLike,
               salt: int = 0) -> np.ndarray:
    """Stateless standard-normal noise indexed by integer time.

    Built from two independent uniforms via Box-Muller; deterministic in
    (seed, floor(t), salt).
    """
    u1 = hash_uniform(seed, t, salt=salt * 2 + 1)
    u2 = hash_uniform(seed, t, salt=salt * 2 + 2)
    u1 = np.clip(u1, 1e-12, 1.0)  # avoid log(0)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
