import dataclasses
import math
import pickle

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
    sample_innovations,
)

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


class TestBn:
    def test_rademacher_examples(self):
        model = InnovationModel("rademacher")
        assert compute_bn(model, 1) == 2.0
        assert compute_bn(model, 100) == 10.0  # exactly
        assert compute_bn(model, 4) == 2.0     # floor still binding
        assert compute_bn(model, 0) == 1.0

    def test_pareto_matches_bisection_oracle(self):
        model = InnovationModel("pareto2")
        expect = bisect_bn(lambda s: 2.0 * math.log(s), 100)
        assert compute_bn(model, 100) == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.id)
    def test_defining_inequalities(self, model):
        b0 = compute_bn(model, 0)
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
        b0 = compute_bn(model, 0)
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
        assert compute_bn(tri, 0) == pytest.approx(3.0, rel=1e-12)
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
            lo = compute_bn(model, 0) + 1.0
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
