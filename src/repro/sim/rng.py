"""Deterministic randomness utilities.

Two mechanisms, both reproducible bit-for-bit from a root seed:

* `RngStreams` — named `numpy.random.Generator` streams.  Each subsystem
  asks for its own stream (e.g. ``streams.get("underlay.degradation")``) so
  adding randomness in one module never perturbs another module's draws.
  Code that needs one stream per link or pair asks for all of them
  at once (`RngStreams.get_many`), which seeds them in one array pass.

* `hash_noise` / `hash_uniform` — *stateless* noise functions.  A link-state
  process must be able to answer "what was the jitter at t=86,399 s?"
  without having generated the preceding 86,398 samples.  We hash
  (stream_key, integer time) with a splitmix64-style mixer and map the
  result to a uniform or standard-normal variate.  The functions are
  vectorised over time arrays.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


#: The constants of `numpy.random.SeedSequence`'s uint32 hash (its
#: ``hashmix`` and ``mix``; both shift by 16).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF


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
        if self.root_seed < 0:
            raise ValueError(f"root seed must be a non-negative integer, "
                             f"got {self.root_seed}")
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, key: str) -> np.random.Generator:
        """Return the generator for `key`, creating it on first use."""
        if key not in self._streams:
            seed_seq = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(_key_to_seed(key),))
            self._streams[key] = np.random.Generator(np.random.PCG64(seed_seq))
        return self._streams[key]

    def get_many(self, keys: Sequence[str]
                 ) -> Tuple[List[np.random.Generator], np.ndarray]:
        """(`get` of every key, `seed_for` of every key as a uint64
        array), in `keys`' order.

        Each key is hashed once for both.  The generators not created
        yet are seeded in one array pass over their hashes
        (`_spawn_words`: the words ``SeedSequence(entropy=root_seed,
        spawn_key=(hash,))`` hands `PCG64`), so they draw exactly what
        `get`'s would, at a fraction of the cost per key; numpy's own
        sequence checks the first key's words.
        """
        hashes = np.fromiter((_key_to_seed(key) for key in keys),
                             dtype=np.uint64, count=len(keys))
        streams = self._streams
        new = [k for k, key in enumerate(keys) if key not in streams]
        spawned = _spawn_words(self.root_seed, hashes[new])
        if new and not np.array_equal(spawned[0], np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(int(hashes[new[0]]),)
        ).generate_state(4, np.uint64)):
            raise RuntimeError("numpy's SeedSequence no longer hashes as "
                               "_spawn_words does; RngStreams.get_many "
                               "would diverge from get")
        for k, words in zip(new, spawned):
            streams.setdefault(keys[k], np.random.Generator(
                np.random.PCG64(_SpawnWords(words))))
        mixed = hashes ^ np.uint64(
            (self.root_seed * 0x9E3779B97F4A7C15) & _M64)
        return [streams[key] for key in keys], mixed

    def seed_for(self, key: str) -> int:
        """A stable 64-bit sub-seed for `key` (for hash-noise streams)."""
        mixed = _key_to_seed(key) ^ (self.root_seed * 0x9E3779B97F4A7C15)
        return mixed & 0xFFFFFFFFFFFFFFFF


class _SpawnWords(ISeedSequence):
    """The seed words one `SeedSequence` would generate for `PCG64`,
    computed already (`_spawn_words`); `PCG64` seeds itself from them
    as from that sequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds PCG64's 4 uint64 seed words, not "
                             f"{n_words} x {np.dtype(dtype)}")
        return self.words


def _spawn_words(root_seed: int, spawn_keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=root_seed, spawn_key=(k,))
    .generate_state(4, np.uint64)`` of every `k` in the uint64 array
    `spawn_keys`, as the rows of a ``(len(spawn_keys), 4)`` array.

    The sequence mixes the root's uint32 words into a four-word pool
    (the same for every key: `SeedSequence(root_seed).pool`, after
    ``16 + 4 * max(0, words - 4)`` hashes), then each key's low word
    and, when it is not zero, its high word; the generated state hashes
    the pool once more.  Every step is uint32 arithmetic, done here
    over the key axis.
    """
    n_keys = spawn_keys.size
    pool = [np.full(n_keys, word, dtype=np.uint32)
            for word in np.random.SeedSequence(root_seed).pool.tolist()]
    root_words = max(1, -(-root_seed.bit_length() // 32))
    hash_const = (_INIT_A * pow(_MULT_A, 16 + 4 * max(0, root_words - 4),
                                1 << 32)) & _M32
    low = (spawn_keys & np.uint64(_M32)).astype(np.uint32)
    high = (spawn_keys >> np.uint64(32)).astype(np.uint32)
    for word, present in ((low, None), (high, high != 0)):
        for dst in range(len(pool)):
            value = word ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_A) & _M32
            value *= np.uint32(hash_const)
            value ^= value >> np.uint32(16)
            mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                     - np.uint32(_MIX_MULT_R) * value)
            mixed ^= mixed >> np.uint32(16)
            pool[dst] = mixed if present is None else np.where(
                present, mixed, pool[dst])
    state = np.empty((n_keys, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for dst in range(8):
        value = pool[dst % len(pool)] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _M32
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        state[:, dst] = value
    # Word pairs as little-endian uint64, as `generate_state` reads them.
    return state.astype("<u4").view("<u8").astype(np.uint64)


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
