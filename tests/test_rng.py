import numpy as np
import pytest

from ar1mc.innovations import InnovationModel, sample_innovation_rows
from ar1mc.rng import derive_seed, generator, substreams
from paper_lemmas import fresh_stream

MASTERS = [0, 1, 7, 20177, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**130 + 17]
# the replication paths (1, n) and the P2 limit chunks' empty path
PREFIXES = [(1, 50), (1, 5000), (1, 2**31), (1, 2**64 - 1), ()]


def draws(rng):
    """Floats, then raw words across three Philox blocks of four."""
    return np.concatenate([rng.random(3).view(np.uint64), rng.bit_generator.random_raw(9)])


class TestSubstreams:
    @pytest.mark.parametrize("master", MASTERS)
    def test_streams_equal_fresh_counters(self, master):
        ids = [0, 1, 2, 255, 2**32, 2**64 - 1]
        for prefix in PREFIXES:
            got = [draws(rng) for rng in substreams(master, prefix, ids)]
            assert np.array_equal(got, [draws(fresh_stream(master, *prefix, i)) for i in ids])

    @pytest.mark.parametrize("master", MASTERS)
    def test_zero_path_is_generator(self, master):
        # the normal limit laws draw from generator(seed) itself
        (rng,) = substreams(master, (), [0])
        assert np.array_equal(draws(rng), draws(generator(master)))

    def test_no_ids_yield_nothing(self):
        assert list(substreams(3, (1, 50), [])) == []

    @pytest.mark.parametrize("prefix, ids", [
        ((1, 50), [-1]),
        ((1, 50), [2**64]),
        ((1, -50), [0]),
        ((1, 50, 2), [0]),
    ], ids=["negative-id", "wide-id", "negative-prefix", "long-path"])
    def test_invalid_paths_rejected(self, prefix, ids):
        with pytest.raises((ValueError, OverflowError)):
            next(substreams(3, prefix, ids))


@pytest.mark.parametrize("make", [lambda: derive_seed(-1, 2), lambda: generator(-1),
                                  lambda: next(substreams(-1, (), [0]))],
                         ids=["derive_seed", "generator", "substreams"])
def test_negative_seed_is_named_seed(make):
    # the config key and the CLI flag are both "seed"
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
        make()


class TestSubstreamRows:
    @pytest.mark.parametrize("model_id", ["gaussian", "uniform", "rademacher", "pareto2"])
    def test_rows_equal_fresh_generators(self, model_id):
        # pareto2 and rademacher end each row of 77 values part way through
        # its second sign word; the next row must still start its own stream
        model = InnovationModel(model_id)
        rows = sample_innovation_rows(model, substreams(3, (1, 77), range(6)), np.empty((6, 77)))
        expected = [model.sample(fresh_stream(3, 1, 77, r), 77) for r in range(6)]
        assert np.array_equal(rows, np.array(expected))

    @pytest.mark.parametrize("model_id", ["gaussian", "pareto2"])
    def test_chunks_take_their_own_streams(self, model_id):
        # a block's chunks share one iterator: each takes exactly its rows
        model = InnovationModel(model_id)
        rngs = substreams(3, (1, 77), range(7))
        chunks = [sample_innovation_rows(model, rngs, np.empty((rows, 77))) for rows in (4, 1, 2)]
        assert next(rngs, None) is None
        whole = sample_innovation_rows(model, substreams(3, (1, 77), range(7)), np.empty((7, 77)))
        assert np.array_equal(np.concatenate(chunks), whole)
