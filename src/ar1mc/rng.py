"""Counter-based random streams for reproducible parallel Monte Carlo.

Every stochastic routine in the package is keyed by a 64-bit unsigned seed.
Streams for sub-tasks (one replication, one block of limit draws, ...) are
derived from a master seed plus an integer path, so any sub-task can be
re-run in isolation and results never depend on scheduling order.

``derive_seed`` and ``generator`` build one stream.  ``philox_keys`` builds
the Philox keys of a whole block of streams that differ only in their last
path entry, and ``keyed_generators`` runs them one after another on a
single re-keyed bit generator; together they give the same draws as
``generator(derive_seed(...))`` per stream, without its per-call cost.
"""

from __future__ import annotations

import numpy as np

# Fixed default used by the CLI when --seed is not given.  Any change here
# changes documented outputs, so treat it as part of the interface.
DEFAULT_SEED = 20177

_U64 = np.uint64
_U32 = np.uint32


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive the 64-bit seed for the stream identified by ``path``.

    Distinct paths give statistically independent streams; the same
    (master_seed, path) pair always gives the same value.
    """
    if master_seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=_U64)[0])


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed (counter-based, splittable)."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    key = np.random.SeedSequence(int(seed)).generate_state(2, dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


# --- block keys: numpy's SeedSequence, one uint32 lane per stream ----------
#
# The constants and the mixing order are those of numpy.random.SeedSequence
# (its pool of 4 words, hashmix, mix and generate_state); the tests check
# this port against SeedSequence itself.

_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = _U32(16)
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int (0 is one word)."""
    if value < 0:
        raise ValueError("stream path entries must be nonnegative integers")
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


class _HashMix:
    """SeedSequence's hashmix with its running multiplier."""

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ _U32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * _U32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _U32(_MIX_MULT_L) - y * _U32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def _pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """The mixed entropy pool; every entropy word is a uint32 lane array."""
    hashmix = _HashMix(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[-1])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _uint64_state(pool: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``generate_state(n_words, uint64)`` of each lane."""
    hashmix = _HashMix(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(_U64) for i in range(2 * n_words)]
    return [lo | (hi << _U64(32)) for lo, hi in zip(state[0::2], state[1::2])]


def _generator_keys(seeds: np.ndarray) -> np.ndarray:
    """(len(seeds), 2) Philox keys that ``generator(seed)`` uses per seed."""
    seeds = np.asarray(seeds, dtype=_U64)
    # A seed below 2**32 is one entropy word, not two; with a pool of 4 the
    # missing word hashes exactly like a zero word, so both give one pool.
    lo = (seeds & _U64(_MASK32)).astype(_U32)
    hi = (seeds >> _U64(32)).astype(_U32)
    return np.stack(_uint64_state(_pool([lo, hi]), 2), axis=1)


def philox_keys(master_seed: int, prefix: tuple[int, ...], r: np.ndarray) -> np.ndarray:
    """Philox keys of the streams ``(master_seed, *prefix, r_i)``, one row each.

    Row i equals the key inside ``generator(derive_seed(master_seed, *prefix,
    r[i]))``; every ``r[i]`` must lie in [0, 2**32).
    """
    if master_seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    r = np.asarray(r)
    if r.ndim != 1 or r.dtype.kind not in "iu":
        raise ValueError("r must be a 1-D integer array")
    if r.size and not (r.min() >= 0 and r.max() <= _MASK32):
        raise ValueError("stream ids r must lie in [0, 2**32)")
    run = _words(int(master_seed))
    # SeedSequence pads the run entropy to the pool size when a spawn key
    # (the path) follows, so that the two cannot collide.
    run += [0] * (_POOL_SIZE - len(run))
    spawn = [w for p in prefix for w in _words(int(p))]
    lanes = r.astype(_U32)
    entropy = [np.full_like(lanes, w) for w in run + spawn] + [lanes]
    seeds = _uint64_state(_pool(entropy), 1)[0]
    return _generator_keys(seeds)


def keyed_generators(keys: np.ndarray):
    """Yield one Generator per row of ``keys``: one object, re-keyed before
    each yield to draw exactly what a fresh ``Generator(Philox(key=keys[i]))``
    would, so each row's draws must finish before the iterator advances."""
    rng = np.random.Generator(np.random.Philox(key=0))
    fresh = rng.bit_generator.state
    for key in np.asarray(keys, dtype=_U64):
        # counter 0, an empty buffer and no cached half word: a fresh Philox
        fresh["state"]["key"] = key
        rng.bit_generator.state = fresh
        yield rng
