"""Counter-based random streams for reproducible parallel Monte Carlo.

Every stochastic routine in the package is keyed by a 64-bit unsigned seed.
Streams for sub-tasks (one replication, one chunk of limit draws, ...) are
derived from a master seed plus an integer path, so any sub-task can be
re-run in isolation and results never depend on scheduling order.

``derive_seed`` and ``generator`` build one stream from a seed.
``substreams`` builds many under one seed without hashing each: Philox is
counter-based, and distinct counters under one key are independent streams
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11;
numpy's ``Philox.jumped`` separates streams the same way).  Stream
``(*prefix, id)`` is ``generator(seed)``'s Philox with counter words 1-3
holding that path, left-aligned and padded with zeros, and word 0 counting
the stream's blocks of four 64-bit values: a stream holds 2^64 - 1 blocks
(about 2^66 values) before its count would carry into the path.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

# Fixed default used by the CLI when --seed is not given.  Any change here
# changes documented outputs, so treat it as part of the interface.
DEFAULT_SEED = 20177


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive the 64-bit seed for the stream identified by ``path``.

    Distinct paths give statistically independent streams; the same
    (master_seed, path) pair always gives the same value.
    """
    if master_seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed (counter-based, splittable)."""
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    key = np.random.SeedSequence(int(seed)).generate_state(2, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substreams(seed: int, prefix: tuple[int, ...], ids: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield one Generator per id: stream ``(*prefix, id)`` under ``seed``.

    Each is ``generator(seed)`` re-counted to draw exactly what a fresh
    ``Philox(key=<its key>, counter=[0, *prefix, id, 0...])`` would, so the
    all-zero path is ``generator(seed)`` itself.  It is one object, so each
    stream's draws must finish before the iterator advances.  The path is at
    most three entries, each in [0, 2**64); the first ``next`` refuses a longer
    one with ValueError, even when ``ids`` is empty.
    """
    rng = generator(seed)
    state = rng.bit_generator.state  # counter 0, an empty buffer, no cached half word
    counter = state["state"]["counter"]
    word = len(prefix) + 1  # the counter word that holds the id; the prefix's are written once
    counter[1:word + 1] = (*prefix, 0)
    for i in ids:
        counter[word] = i
        rng.bit_generator.state = state
        yield rng
