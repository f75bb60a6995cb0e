"""The stream contract in its own terms: a pure-Python Philox4x64-10 (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) reproduces the
words that ``rng.substreams`` draws, so a change of the counter layout, or of
numpy's Philox, fails here by name and not only as a moved report byte.

Stream ``path`` under ``seed`` is Philox keyed by ``generator(seed)``'s key,
with the counter ``[0, *path]`` padded to four words; numpy adds 1 to word 0
before each block of four words, and ``random()`` keeps a word's top 53 bits.
The uniform, pareto2 and rademacher rows are derived here from those words
and the laws' documented arithmetic.  Two parts of numpy are pinned, not
derived: ``standard_normal``'s ziggurat and ``np.add.reduce``'s pairwise
summation order, on which every gaussian path and every sum rests.
"""

import hashlib
import math

import numpy as np
import pytest

from ar1mc.innovations import InnovationModel, sample_innovation_rows
from ar1mc.rng import generator, substreams

_MASK = 2**64 - 1
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_BLOCKS = 3

SEEDS = [0, 7, 2**64 + 3]
# (prefix, ids): replications (1, n, r), the limit laws' chunks (c,), and a
# two-word path
PATHS = {"replication": ((1, 5000), [0, 1, 17, 2**64 - 1]),
         "limit-chunk": ((), [1, 2, 40]),
         "two-word": ((2,), [0, 3])}


def philox_block(counter, key):
    """Philox4x64-10 of one four-word counter under a two-word key."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(_ROUNDS):
        p0, p1 = _MULTIPLIERS[0] * c0, _MULTIPLIERS[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
        k0, k1 = (k0 + _WEYL[0]) & _MASK, (k1 + _WEYL[1]) & _MASK
    return [c0, c1, c2, c3]


def reference_words(seed, path):
    """The first ``4 * _BLOCKS`` raw words of stream ``path`` under ``seed``
    (word 0 would carry into the path only after 2^64 blocks)."""
    key = [int(k) for k in generator(seed).bit_generator.state["state"]["key"]]
    counter = [0, *path, 0, 0, 0][:4]
    words = []
    for _ in range(_BLOCKS):
        counter[0] += 1
        words += philox_block(counter, key)
    return words


def uniforms(words):
    """``random()`` of each word: its top 53 bits times 2^-53."""
    return [(w >> 11) * 2.0**-53 for w in words]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix, ids", PATHS.values(), ids=PATHS)
def test_raw_words(seed, prefix, ids):
    # one iterator, so each stream is re-counted from the one before it
    got = [rng.bit_generator.random_raw(4 * _BLOCKS).tolist() for rng in substreams(seed, prefix, ids)]
    assert got == [reference_words(seed, (*prefix, i)) for i in ids]


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_path_is_the_seeds_generator(seed):
    # the all-zero counter: generator(seed) itself, and stream (0,)
    (rng,) = substreams(seed, (), [0])
    assert rng.bit_generator.random_raw(4 * _BLOCKS).tolist() == reference_words(seed, ())
    assert generator(seed).bit_generator.random_raw(4 * _BLOCKS).tolist() == reference_words(seed, ())


@pytest.mark.parametrize("seed", SEEDS)
def test_random_keeps_53_bits_of_each_word(seed):
    (rng,) = substreams(seed, (1, 5000), [17])
    assert rng.random(4 * _BLOCKS).tolist() == uniforms(reference_words(seed, (1, 5000, 17)))


def one_row(model, n):
    """``sample_innovation_rows``' row of ``n`` values from stream (1, 5000, 17) under seed 7."""
    return sample_innovation_rows(model, substreams(7, (1, 5000), [17]), np.empty((1, n)))[0].tolist()


def test_uniform_row():
    # -a + 2a U, a = sigma sqrt(3): one random() per value
    a = 2.0 * math.sqrt(3.0)
    expected = [u * (2.0 * a) - a for u in uniforms(reference_words(7, (1, 5000, 17)))]
    assert one_row(InnovationModel("uniform", 2.0), len(expected)) == expected


def test_pareto2_row():
    # the magnitudes 1/sqrt(1 - U) from words 0-10, then the signs from word
    # 11: value k is negative where its bit k, least significant first, is set
    words = reference_words(7, (1, 5000, 17))
    expected = [(1 - 2 * ((words[11] >> k) & 1)) / math.sqrt(1.0 - u)
                for k, u in enumerate(uniforms(words[:11]))]
    assert one_row(InnovationModel("pareto2"), 11) == expected


def test_rademacher_row():
    # value k is 1 - 2 (bit k mod 64 of word k // 64): no random() draws
    words = reference_words(7, (1, 5000, 17))
    expected = [1.0 - 2 * ((words[k // 64] >> (k % 64)) & 1) for k in range(100)]
    assert one_row(InnovationModel("rademacher"), 100) == expected


def test_gaussian_pin():
    # numpy's ziggurat standard_normal over one stream, pinned by its bytes:
    # it draws from the raw words above but by no arithmetic written here
    (rng,) = substreams(7, (1, 5000), [17])
    digest = hashlib.sha256(rng.standard_normal(1000).astype("<f8").tobytes()).hexdigest()
    assert digest == "7f1d464ce7e7999706061436d4f7a0de868a774532250ab6d87223205aaf9c13"


def test_summation_pin():
    # numpy's pairwise summation order, which every sum and mean here takes:
    # its float differs from the left-to-right sum (cumsum's last value) and
    # from the correctly rounded one, so a change of order moves it
    x = 1.0 / np.arange(1, 100_001)
    total = float(np.add.reduce(x))
    assert total.hex() == "0x1.82e27a22f3fb2p+3"
    assert total != np.cumsum(x)[-1]
    assert total != math.fsum(x.tolist())
