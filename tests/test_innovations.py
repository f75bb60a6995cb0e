import dataclasses
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import ar1mc.innovations as innovations
from ar1mc.innovations import (
    ConfigError,
    InnovationModel,
    compute_bn,
    ell_at_bn,
    eval_l,
    sample_innovation_rows,
    sample_innovations,
)
from ar1mc.limits import default_truncation, sample_limit
from ar1mc.process import Regime
from ar1mc.rng import generator, substreams
from paper_lemmas import fresh_stream

ALL_MODELS = [InnovationModel("gaussian", 1.0), InnovationModel("gaussian", 0.5),
              InnovationModel("uniform", 1.0), InnovationModel("rademacher"),
              InnovationModel("pareto2")]


def law_model(monkeypatch, name, finite_variance, ell):
    """A model of a law that is not built in, declared in ``_LAWS`` for one
    test; it takes no sigma and never samples."""
    monkeypatch.setitem(innovations._LAWS, name,
                        innovations._Law(False, finite_variance, ell, None))
    return InnovationModel(name)


def bisect_bn(ell, j, lo=2.0):
    """Independent bisection oracle for b_j on the monotone tail of l(s)/s^2."""
    f = lambda s: ell(s) / (s * s) - 1.0 / j
    if f(lo) <= 0:
        return lo
    hi = lo
    while f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEvalL:
    def test_rademacher_mass_boundary(self):
        model = InnovationModel("rademacher")
        assert eval_l(model, 0.5) == 0.0
        assert eval_l(model, 1.0) == 1.0
        assert eval_l(model, 37.0) == 1.0

    def test_pareto_log_form(self):
        model = InnovationModel("pareto2")
        for x in (1.0, 1.5, 10.0, 400.0):
            assert eval_l(model, x) == pytest.approx(2.0 * math.log(x), rel=1e-14)
        assert eval_l(model, 0.999) == 0.0

    def test_pareto_exact_at_exponentials(self):
        model = InnovationModel("pareto2")
        for k in range(0, 31):
            assert eval_l(model, math.exp(k)) == pytest.approx(2.0 * k, abs=1e-9)

    def test_gaussian_saturates_to_variance(self):
        assert eval_l(InnovationModel("gaussian", 1.0), 8.0) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 6.0])
    def test_gaussian_against_quadrature(self, sigma, x):
        # independent oracle: numeric integral of t^2 * normal density
        dens = lambda t: t * t * math.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        expect, _ = quad(dens, -x, x)
        model = InnovationModel("gaussian", sigma)
        assert eval_l(model, x) == pytest.approx(expect, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x", [0.2, 1.0, 5.0])
    def test_uniform_against_quadrature(self, sigma, x):
        a = sigma * math.sqrt(3.0)
        u = min(x, a)
        expect, _ = quad(lambda t: t * t / (2 * a), -u, u)
        assert eval_l(InnovationModel("uniform", sigma), x) == pytest.approx(expect, rel=1e-12)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            eval_l(InnovationModel("gaussian", 1.0), -0.1)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    def test_nondecreasing_in_x(self, x1, x2):
        lo, hi = sorted((x1, x2))
        for model in ALL_MODELS:
            assert eval_l(model, lo) <= eval_l(model, hi) + 1e-15

    def test_bounded_by_variance_when_finite(self):
        xs = np.linspace(0.0, 40.0, 200)
        for model in ALL_MODELS:
            if model.variance is not None:
                for x in xs:
                    assert eval_l(model, float(x)) <= model.variance + 1e-12


class TestSampling:
    def test_rademacher_support(self):
        e = sample_innovations(InnovationModel("rademacher"), 4, 7)
        assert set(np.unique(e)) <= {-1.0, 1.0}

    def test_pareto_support(self):
        e = sample_innovations(InnovationModel("pareto2"), 100_000, 11)
        assert np.all(np.abs(e) >= 1.0)

    def test_gaussian_sample_variance(self):
        e = sample_innovations(InnovationModel("gaussian", 1.0), 1_000_000, 3)
        assert 0.99 <= e.var() <= 1.01

    @pytest.mark.parametrize("model", [InnovationModel("gaussian", 1.0),
                                       InnovationModel("uniform", 2.0),
                                       InnovationModel("rademacher")])
    def test_mean_zero_within_five_se(self, model):
        n = 1_000_000
        e = sample_innovations(model, n, 13)
        se = math.sqrt(model.variance / n)
        assert abs(e.mean()) <= 5 * se

    def test_seed_determinism(self):
        a = sample_innovations(InnovationModel("pareto2"), 1000, 5)
        b = sample_innovations(InnovationModel("pareto2"), 1000, 5)
        c = sample_innovations(InnovationModel("pareto2"), 1000, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_empty_draw(self):
        with pytest.raises(ValueError):
            sample_innovations(InnovationModel("gaussian", 1.0), 0, 1)


def sign_bits(rng, n):
    """``n`` signs read bit by bit from the next ceil(n/64) raw words of ``rng``:
    value i takes bit i % 64, counted from the least significant, of word i // 64,
    and a set bit means negative."""
    words = rng.bit_generator.random_raw(-(-n // 64))
    i = np.arange(n)
    return ((words[i // 64] >> (i % 64).astype(np.uint64)) & np.uint64(1)) == 1


def per_row_formula(model, rng, n):
    """``n`` draws of ``model`` from ``rng`` by the per-row formula, written with
    numpy's own samplers: the reference for the laws' chunk fills."""
    if model.id == "gaussian":
        return rng.standard_normal(n) * model.sigma
    if model.id == "uniform":
        a = model.sigma * math.sqrt(3.0)
        return rng.random(n) * (2.0 * a) - a
    if model.id == "rademacher":
        return np.where(sign_bits(rng, n), -1.0, 1.0)
    magnitude = 1.0 / np.sqrt(1.0 - rng.random(n))
    return np.where(sign_bits(rng, n), -magnitude, magnitude)


def one_row(model, rng, n):
    """``n`` draws of ``model`` from ``rng``, as a one-row chunk fill."""
    return sample_innovation_rows(model, (rng,), np.empty((1, n)))[0]


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


CHUNK_MODELS = ALL_MODELS + [InnovationModel("uniform", 3.0)]
CHUNK_IDS = ["gaussian", "gaussian@0.5", "uniform", "rademacher", "pareto2", "uniform@3"]


class TestChunkFill:
    """Each law fills a (rows, n) chunk at once, pareto2 and rademacher taking
    one sign per bit of ceil(n/64) raw Philox words per row; every value must
    keep the bits of the per-row formula.  n = 63, 64, 65 and 128 sit at the
    edges of a word."""

    NS = (1, 2, 51, 63, 64, 65, 77, 128, 2000, 2001)

    @pytest.mark.parametrize("model", CHUNK_MODELS, ids=CHUNK_IDS)
    def test_rows_keep_the_per_row_bits(self, model):
        for n in self.NS:
            for rows in (1, 3, 33):
                expected = np.array([per_row_formula(model, fresh_stream(5, n, r), n)
                                     for r in range(rows)])
                got = sample_innovation_rows(model, substreams(5, (n,), range(rows)), np.empty((rows, n)))
                assert_same_bits(got, expected)

    def test_pareto_signs_are_fair_and_apart_from_the_magnitudes(self):
        # 2000 rows of n = 640 (ten sign words each) at a fixed seed.  Each
        # statistic below is a z-score, standard normal under fair signs
        # independent of |e|, and is held to |z| <= 5: P(|Z| > 5) = 5.7e-7, so
        # all 66 hold together with probability above 1 - 4e-5.
        rows, n = 2000, 640
        e = sample_innovation_rows(InnovationModel("pareto2"), substreams(9, (n,), range(rows)),
                                   np.empty((rows, n)))
        negative = e < 0
        # each of the 64 bit positions: Binomial(rows * n / 64, 1/2), sd sqrt(count) / 2
        count = rows * n // 64
        per_bit = negative.reshape(rows, n // 64, 64).sum(axis=(0, 1))
        assert np.max(np.abs(per_bit - count / 2)) <= 5 * math.sqrt(count) / 2
        # all values: Binomial(rows * n, 1/2)
        total = rows * n
        assert abs(np.count_nonzero(negative) - total / 2) <= 5 * math.sqrt(total) / 2
        # Spearman's correlation of the sign with |e| (the sign's ranks are
        # affine in the sign): mean 0 and sd 1/sqrt(total - 1) under independence
        ranks = np.empty(total)
        ranks[np.argsort(np.abs(e).ravel())] = np.arange(total)
        corr = np.corrcoef(negative.ravel(), ranks)[0, 1]
        assert abs(corr) <= 5 / math.sqrt(total - 1)

    # U at the edges of random()'s range [0, 1), each under both signs: bit i
    # of a row's word signs value i, and the two rows flip each other's signs.
    EDGE_U = np.array([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53] * 2)
    EDGE_WORDS = (0xF0, 0x0F)

    class StubGenerator:
        """Writes ``u`` on ``random(out=row)``; its bit generator's
        ``random_raw(size)`` returns ``word`` and then zeros."""

        def __init__(self, u, word):
            self.u = u
            self.bit_generator = SimpleNamespace(
                random_raw=lambda size: np.array([word] + [0] * (size - 1), np.uint64))

        def random(self, out):
            out[:] = self.u

    def edge_fill(self, model_id):
        rngs = iter([self.StubGenerator(self.EDGE_U, word) for word in self.EDGE_WORDS])
        e = sample_innovation_rows(InnovationModel(model_id), rngs, np.empty((2, len(self.EDGE_U))))
        negative = np.array([[(word >> i) & 1 for i in range(len(self.EDGE_U))]
                             for word in self.EDGE_WORDS]) == 1
        return e, negative

    def test_pareto_edge_values_keep_their_bits(self):
        e, negative = self.edge_fill("pareto2")
        magnitude = 1.0 / np.sqrt(1.0 - self.EDGE_U)
        assert_same_bits(e, np.where(negative, -magnitude, magnitude))
        # never -0.0, 0 or NaN: every value is at least 1 in size, its sign the bit's
        assert np.all(np.abs(e) >= 1.0) and np.all(np.isfinite(e))
        assert np.array_equal(np.signbit(e), negative)

    def test_rademacher_edge_values_are_exactly_one(self):
        e, negative = self.edge_fill("rademacher")
        assert_same_bits(e, np.where(negative, -1.0, 1.0))

    @pytest.mark.parametrize("model", CHUNK_MODELS, ids=CHUNK_IDS)
    def test_sample_keeps_the_per_row_bits(self, model):
        for n in self.NS:
            assert_same_bits(one_row(model, generator(n), n), per_row_formula(model, generator(n), n))
            assert_same_bits(sample_innovations(model, n, 8), per_row_formula(model, generator(8), n))
            # the P2 series chunks draw their W1 normals first
            for normals in (1, 3, 33):
                rng, ref = generator(n), generator(n)
                rng.standard_normal(normals)
                ref.standard_normal(normals)
                assert_same_bits(one_row(model, rng, n), per_row_formula(model, ref, n))

    @pytest.mark.parametrize("model", CHUNK_MODELS, ids=CHUNK_IDS)
    def test_explosive_chunks_keep_the_per_row_bits(self, model):
        # two chunks of the P2 series, the second of 3 rows of 2M - 1 values
        rho, mu, y0, seed = -1.5, 0.5, 0.25, 4
        m = default_truncation(rho)
        step = (1 << 16) // (2 * m - 1)
        got = sample_limit(Regime("P2", rho=rho), mu, model, step + 3, seed, y0=y0)
        weights = rho ** -np.arange(m, dtype=float)
        for c, (lo, rows) in enumerate(((0, step), (step, 3))):
            rng = fresh_stream(seed, c)
            w1 = rng.standard_normal(rows)
            eps = per_row_formula(model, rng, rows * (2 * m - 1)).reshape(rows, 2 * m - 1)
            u1 = np.sum(eps[:, :m] * weights, axis=1)
            denom = rho * y0 + np.sum(eps[:, m:] * weights[:-1], axis=1) + mu * rho / (rho - 1.0)
            assert_same_bits(got[lo:lo + rows, 0], w1)
            assert_same_bits(got[lo:lo + rows, 1], (rho * rho - 1.0) * u1 / denom)


class TestBn:
    def test_rademacher_examples(self):
        model = InnovationModel("rademacher")
        assert compute_bn(model, 1) == 2.0
        assert compute_bn(model, 100) == 10.0  # exactly
        assert compute_bn(model, 4) == 2.0     # floor still binding
        assert innovations._positivity_edge(model) == 1.0
        with pytest.raises(ValueError, match="n must be >= 1"):
            compute_bn(model, 0)

    def test_pareto_matches_bisection_oracle(self):
        model = InnovationModel("pareto2")
        expect = bisect_bn(lambda s: 2.0 * math.log(s), 100)
        assert compute_bn(model, 100) == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.id)
    def test_defining_inequalities(self, model):
        b0 = innovations._positivity_edge(model)
        prev = 0.0
        for n in (1, 2, 3, 7, 10, 50, 100, 1000, 10_000):
            bn = compute_bn(model, n)
            assert bn >= b0 + 1.0
            assert n * eval_l(model, bn) <= bn * bn
            assert eval_l(model, bn) / bn ** 2 <= 1.0 / n
            assert bn >= prev  # nondecreasing in n
            prev = bn

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.id)
    def test_smallest_float_satisfying_definition(self, model):
        # Squares are taken as b * b, the correctly rounded product; b ** 2
        # goes through the C library's pow, which may be one ulp off.
        b0 = innovations._positivity_edge(model)
        assert eval_l(model, b0) > 0.0
        if b0 != 1.0:
            assert eval_l(model, math.nextafter(b0, 0.0)) == 0.0

        def holds(b, n):
            ell = eval_l(model, b)
            return b >= b0 + 1.0 and n * ell <= b * b and ell / (b * b) <= 1.0 / n

        ns = set(range(1, 3001)) | set(np.round(np.logspace(0, 7, 120)).astype(int).tolist())
        for n in sorted(ns):
            bn = compute_bn(model, n)
            assert holds(bn, n), (n, bn)
            assert not holds(math.nextafter(bn, 0.0), n), (n, bn)

    def test_gaussian_bn_grows_like_sqrt_n(self):
        model = InnovationModel("gaussian", 1.0)
        for n in (100, 10_000):
            assert compute_bn(model, n) == pytest.approx(math.sqrt(n), rel=1e-3)

    def test_floor_binds_for_a_large_scale(self):
        # b_n = b_0 + 1 = 2 while n l(2) <= 4: for gaussian sigma = 100 up to
        # n = 188, where l(b_n) = l(2) is 2.1e-6 sigma^2, not sigma^2.  Pinned,
        # not endorsed: README states the condition.
        model = InnovationModel("gaussian", 100.0)
        assert compute_bn(model, 100) == 2.0
        assert ell_at_bn(model, 100) == pytest.approx(2.1e-6 * 100.0 ** 2, rel=0.02)
        assert compute_bn(model, 400) == 2000.0

    def test_zero_truncated_moment_rejected(self, monkeypatch):
        dead = law_model(monkeypatch, "dead", True,
                         lambda x, sigma: np.zeros_like(np.asarray(x, dtype=float)))
        with pytest.raises(ValueError):
            compute_bn(dead, 10)

    def test_quadratic_truncated_moment_rejected(self, monkeypatch):
        # l(s)/s^2 stays at 1, so no s below the search cap reaches 1/10
        quad_l = law_model(monkeypatch, "quad", False, lambda x, sigma: x * x)
        with pytest.raises(ValueError, match="slow variation"):
            compute_bn(quad_l, 10)

    def test_custom_positivity_edge_location(self, monkeypatch):
        # all mass at +/-3: l jumps from 0 to 9 at x = 3
        tri = law_model(monkeypatch, "pm3", True,
                        lambda x, sigma: np.where(np.asarray(x, dtype=float) >= 3.0, 9.0, 0.0))
        assert innovations._positivity_edge(tri) == pytest.approx(3.0, rel=1e-12)
        # floor b0 + 1 = 4 binds until 1/j < 9/16
        assert compute_bn(tri, 1) == pytest.approx(4.0, rel=1e-12)
        assert compute_bn(tri, 100) == pytest.approx(30.0, rel=1e-9)

    def test_ell_at_bn_consistency(self):
        model = InnovationModel("pareto2")
        assert ell_at_bn(model, 100) == eval_l(model, compute_bn(model, 100))


class TestBrentPort:
    """The bisection that replaced the Brent port, ``_first_true``, finds the
    roots scipy's ``brentq`` finds, as the smallest float past each root."""

    def test_matches_scipy_on_bn_brackets(self):
        ns = np.unique(np.round(np.logspace(0, 7, 120)).astype(int))
        compared = 0
        for model in ALL_MODELS:
            lo = innovations._positivity_edge(model) + 1.0
            for n in ns:
                n = int(n)
                bn = compute_bn(model, n)
                f = lambda s: eval_l(model, s) / (s * s) - 1.0 / n
                if f(lo) <= 0.0:
                    assert bn == lo
                    continue
                root = brentq(f, lo, 2.0 * bn, xtol=1e-12, rtol=1e-12)
                assert math.isclose(bn, root, rel_tol=4e-12, abs_tol=4e-12), (model.id, n)
                compared += 1
        assert compared > 400

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x - math.cos(x), 0.0, 1.0),
        (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.exp(x) - 1e6, 0.0, 100.0),
        (lambda x: math.atan(x - 0.3), -1e6, 1.0),
        (lambda x: (x - 1.0) ** 5, 0.0, 7.0),
    ], ids=["cos", "cubic", "exp", "atan", "flat-fifth"])
    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_matches_scipy_on_textbook_roots(self, f, lo, hi, tol):
        rises = lambda x: f(x) >= 0.0
        # Doubling needs a positive start; every root here lies above 1e-3.
        ours = innovations._first_true(rises, max(lo, 1e-3), "no root")
        assert rises(ours) and not rises(math.nextafter(ours, 0.0))
        theirs = brentq(f, lo, hi, xtol=tol, rtol=1e-12)
        assert abs(ours - theirs) <= tol + 1e-12 * abs(theirs) + math.ulp(ours)

    def test_endpoint_root_returned(self):
        assert innovations._first_true(lambda x: x >= 2.0, 2.0, "none") == 2.0
        assert innovations._first_true(lambda x: x >= 4.0, 2.0, "none") == 4.0
        assert innovations._first_true(lambda x: x >= 5.0, 2.0, "none") == 5.0

    def test_same_signs_rejected(self):
        with pytest.raises(ValueError, match="never holds"):
            innovations._first_true(lambda x: x * x + 1.0 < 0.0, 1.0, "never holds")

    def test_non_convergence_raised(self):
        cap = innovations._S_MAX
        assert innovations._first_true(lambda x: x >= 0.5 * cap, 1.0, "past cap") == 0.5 * cap
        with pytest.raises(ValueError, match="past cap"):
            innovations._first_true(lambda x: x >= 2.0 * cap, 1.0, "past cap")


class TestModelConfig:
    def test_round_trip_ids(self):
        for cfg, variance in (({"id": "gaussian", "sigma": 2.0}, 4.0),
                              ({"id": "uniform", "sigma": 0.5}, 0.25),
                              ({"id": "rademacher"}, 1.0), ({"id": "pareto2"}, None)):
            model = InnovationModel.from_dict(cfg)
            assert model.id == cfg["id"]
            assert model.variance == variance
            assert model.to_dict() == cfg
        # the field names are the JSON keys
        assert [field.name for field in dataclasses.fields(InnovationModel)] == ["id", "sigma"]

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            InnovationModel.from_dict({"id": "cauchy"})

    def test_sigma_on_parameterless_model_rejected(self):
        with pytest.raises(ConfigError):
            InnovationModel.from_dict({"id": "rademacher", "sigma": 2.0})

    @pytest.mark.parametrize("model_id", ["gaussian", "uniform"])
    @pytest.mark.parametrize("sigma", [1e-320, 1e200, -1.0, math.nan])
    def test_scale_needs_positive_finite_variance(self, model_id, sigma):
        with pytest.raises(ConfigError):
            InnovationModel(model_id, sigma)

    def test_variance_classes(self):
        assert InnovationModel("gaussian", 2.0).variance == 4.0
        assert InnovationModel("pareto2").variance is None

    @pytest.mark.parametrize("cfg, echo", [
        ({"id": "gaussian"}, {"id": "gaussian", "sigma": 1.0}),
        ({"id": "uniform", "sigma": 2}, {"id": "uniform", "sigma": 2.0}),
        ({"id": "pareto2"}, {"id": "pareto2"}),
    ])
    def test_sigma_echoed_as_float(self, cfg, echo):
        config = InnovationModel.from_dict(cfg).to_dict()
        assert config == echo
        assert all(type(v) is float for k, v in config.items() if k == "sigma")

    @pytest.mark.parametrize("model_id", ["gaussian", "uniform", "rademacher", "pareto2", "cauchy"])
    def test_null_sigma_rejected(self, model_id):
        # a JSON null is a value, not a missing key
        with pytest.raises(ConfigError, match="sigma"):
            InnovationModel.from_dict({"id": model_id, "sigma": None})


class TestModelValue:
    """A model is a value: equal ids and scales give equal, hashable,
    picklable models, and equal models share one b_0 cache entry."""

    MODELS = [InnovationModel("gaussian", 1.0), InnovationModel("gaussian", 0.5),
              InnovationModel("uniform", 2.0), InnovationModel("rademacher"),
              InnovationModel("pareto2")]

    def test_equal_models_are_equal(self):
        assert (InnovationModel("gaussian", 1.0) == InnovationModel("gaussian", 1.0)
                == InnovationModel("gaussian", 1) == InnovationModel("gaussian"))
        assert hash(InnovationModel("gaussian", 1.0)) == hash(InnovationModel("gaussian", 1))
        assert (InnovationModel("gaussian", 1.0) != InnovationModel("gaussian", 2.0)
                != InnovationModel("uniform", 2.0))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.id)
    def test_pickle_round_trip(self, model):
        back = pickle.loads(pickle.dumps(model))
        assert back == model
        assert np.array_equal(sample_innovations(back, 50, 3), sample_innovations(model, 50, 3))

    def test_equal_model_hits_bn_cache(self):
        innovations._positivity_edge.cache_clear()
        compute_bn(InnovationModel("gaussian", 1.5), 100)
        compute_bn(InnovationModel("gaussian", 1.5), 200)
        info = innovations._positivity_edge.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    @pytest.mark.parametrize("name, sigma", [("gaussian", "1"), ("gaussian", True),
                                             ("pareto2", 1.0), ("cauchy", None), (["x"], None)])
    def test_constructor_checks_itself(self, name, sigma):
        with pytest.raises(ValueError):
            InnovationModel(name, sigma)
