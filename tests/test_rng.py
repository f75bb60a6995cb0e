import numpy as np
import pytest

from ar1mc.innovations import InnovationModel, sample_innovation_rows, sample_innovations
from ar1mc.rng import _generator_keys, derive_seed, generator, keyed_generators, philox_keys

MASTERS = [0, 1, 7, 20177, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**130 + 17]
SIZES = [50, 5000, 16000, 2**31]


def generator_key(seed):
    return generator(seed).bit_generator.state["state"]["key"]


class TestPhiloxKeys:
    @pytest.mark.parametrize("master", MASTERS)
    def test_block_keys_equal_seed_sequence(self, master):
        r = np.arange(300)
        for n in SIZES:
            expected = [generator_key(derive_seed(master, 1, n, int(i))) for i in r]
            assert np.array_equal(philox_keys(master, (1, n), r), np.array(expected))

    def test_one_word_seeds(self):
        # seeds below 2**32 are one entropy word, not two
        seeds = np.arange(1000)
        expected = [np.random.SeedSequence(int(s)).generate_state(2, dtype=np.uint64)
                    for s in seeds]
        assert np.array_equal(_generator_keys(seeds), np.array(expected))

    def test_any_ids_in_any_order(self):
        r = np.array([5, 2**32 - 1, 0, 5])
        keys = philox_keys(9, (1, 100), r)
        assert np.array_equal(keys, np.array([generator_key(derive_seed(9, 1, 100, int(i)))
                                              for i in r]))
        assert philox_keys(9, (1, 100), np.arange(0)).shape == (0, 2)

    @pytest.mark.parametrize("master, prefix, r", [
        (-1, (1, 100), np.arange(3)),
        (1, (-1, 100), np.arange(3)),
        (1, (1, 100), np.array([2**32])),
        (1, (1, 100), np.array([-1])),
        (1, (1, 100), np.array([0.5])),
    ], ids=["negative-master", "negative-prefix", "wide-id", "negative-id", "float-id"])
    def test_invalid_ids_rejected(self, master, prefix, r):
        with pytest.raises(ValueError):
            philox_keys(master, prefix, r)


class TestKeyedGenerators:
    @pytest.mark.parametrize("model_id", ["gaussian", "uniform", "rademacher", "pareto2"])
    def test_rows_equal_fresh_generators(self, model_id):
        # odd lengths leave a cached half word in the bit generator (pareto2
        # and rademacher draw 32-bit integers), which re-keying must clear
        model = InnovationModel(model_id)
        keys = philox_keys(3, (1, 77), np.arange(6))
        rows = sample_innovation_rows(model, keys, 77)
        expected = [sample_innovations(model, 77, derive_seed(3, 1, 77, r)) for r in range(6)]
        assert np.array_equal(rows, np.array(expected))

    def test_no_keys_yield_nothing(self):
        assert list(keyed_generators(np.empty((0, 2), dtype=np.uint64))) == []
