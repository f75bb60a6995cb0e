import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import ar1mc.innovations as innovations
from ar1mc.innovations import (
    InnovationModel,
    compute_bn,
    ell_at_bn,
    eval_l,
    gaussian,
    model_from_config,
    pareto_tail2,
    rademacher,
    sample_innovations,
    uniform_sym,
)

ALL_MODELS = [gaussian(1.0), gaussian(0.5), uniform_sym(1.0), rademacher(), pareto_tail2()]


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
        model = rademacher()
        assert eval_l(model, 0.5) == 0.0
        assert eval_l(model, 1.0) == 1.0
        assert eval_l(model, 37.0) == 1.0

    def test_pareto_log_form(self):
        model = pareto_tail2()
        for x in (1.0, 1.5, 10.0, 400.0):
            assert eval_l(model, x) == pytest.approx(2.0 * math.log(x), rel=1e-14)
        assert eval_l(model, 0.999) == 0.0

    def test_pareto_exact_at_exponentials(self):
        model = pareto_tail2()
        for k in range(0, 31):
            assert eval_l(model, math.exp(k)) == pytest.approx(2.0 * k, abs=1e-9)

    def test_gaussian_saturates_to_variance(self):
        assert eval_l(gaussian(1.0), 8.0) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 6.0])
    def test_gaussian_against_quadrature(self, sigma, x):
        # independent oracle: numeric integral of t^2 * normal density
        dens = lambda t: t * t * math.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        expect, _ = quad(dens, -x, x)
        assert eval_l(gaussian(sigma), x) == pytest.approx(expect, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x", [0.2, 1.0, 5.0])
    def test_uniform_against_quadrature(self, sigma, x):
        a = sigma * math.sqrt(3.0)
        u = min(x, a)
        expect, _ = quad(lambda t: t * t / (2 * a), -u, u)
        assert eval_l(uniform_sym(sigma), x) == pytest.approx(expect, rel=1e-12)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            eval_l(gaussian(1.0), -0.1)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    def test_nondecreasing_in_x(self, x1, x2):
        lo, hi = sorted((x1, x2))
        for model in ALL_MODELS:
            assert eval_l(model, lo) <= eval_l(model, hi) + 1e-15

    def test_bounded_by_variance_when_finite(self):
        xs = np.linspace(0.0, 40.0, 200)
        for model in ALL_MODELS:
            if model.has_finite_variance:
                for x in xs:
                    assert eval_l(model, float(x)) <= model.variance + 1e-12


class TestSampling:
    def test_rademacher_support(self):
        e = sample_innovations(rademacher(), 4, 7)
        assert set(np.unique(e)) <= {-1.0, 1.0}

    def test_pareto_support(self):
        e = sample_innovations(pareto_tail2(), 100_000, 11)
        assert np.all(np.abs(e) >= 1.0)

    def test_gaussian_sample_variance(self):
        e = sample_innovations(gaussian(1.0), 1_000_000, 3)
        assert 0.99 <= e.var() <= 1.01

    @pytest.mark.parametrize("model", [gaussian(1.0), uniform_sym(2.0), rademacher()])
    def test_mean_zero_within_five_se(self, model):
        n = 1_000_000
        e = sample_innovations(model, n, 13)
        se = math.sqrt(model.variance / n)
        assert abs(e.mean()) <= 5 * se

    def test_seed_determinism(self):
        a = sample_innovations(pareto_tail2(), 1000, 5)
        b = sample_innovations(pareto_tail2(), 1000, 5)
        c = sample_innovations(pareto_tail2(), 1000, 6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_empty_draw(self):
        with pytest.raises(ValueError):
            sample_innovations(gaussian(1.0), 0, 1)


class TestBn:
    def test_rademacher_examples(self):
        model = rademacher()
        assert compute_bn(model, 1) == 2.0
        assert compute_bn(model, 100) == 10.0  # exactly
        assert compute_bn(model, 4) == 2.0     # floor still binding
        assert compute_bn(model, 0) == 1.0

    def test_pareto_matches_bisection_oracle(self):
        model = pareto_tail2()
        expect = bisect_bn(lambda s: 2.0 * math.log(s), 100)
        assert compute_bn(model, 100) == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
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

    def test_gaussian_bn_grows_like_sqrt_n(self):
        model = gaussian(1.0)
        for n in (100, 10_000):
            assert compute_bn(model, n) == pytest.approx(math.sqrt(n), rel=1e-3)

    def test_zero_truncated_moment_rejected(self):
        dead = InnovationModel("dead", 1.0, lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                               lambda rng, n: np.zeros(n))
        with pytest.raises(ValueError):
            compute_bn(dead, 10)

    def test_custom_positivity_edge_location(self):
        # all mass at +/-3: l jumps from 0 to 9 at x = 3
        tri = InnovationModel(
            "pm3", 9.0,
            lambda x: np.where(np.asarray(x, dtype=float) >= 3.0, 9.0, 0.0),
            lambda rng, n: 3.0 * (rng.integers(0, 2, n) * 2.0 - 1.0),
        )
        assert compute_bn(tri, 0) == pytest.approx(3.0, rel=1e-12)
        # floor b0 + 1 = 4 binds until 1/j < 9/16
        assert compute_bn(tri, 1) == pytest.approx(4.0, rel=1e-12)
        assert compute_bn(tri, 100) == pytest.approx(30.0, rel=1e-9)

    def test_ell_at_bn_consistency(self):
        model = pareto_tail2()
        assert ell_at_bn(model, 100) == eval_l(model, compute_bn(model, 100))


class TestBrentPort:
    """``_brentq`` returns the float scipy's ``brentq`` returns."""

    def test_matches_scipy_on_bn_brackets(self, monkeypatch):
        port = innovations._brentq
        calls = []

        def both(f, lo, hi, xtol, rtol):
            ours = port(f, lo, hi, xtol=xtol, rtol=rtol)
            calls.append((ours, brentq(f, lo, hi, xtol=xtol, rtol=rtol)))
            return ours

        monkeypatch.setattr(innovations, "_brentq", both)
        ns = np.unique(np.round(np.logspace(0, 7, 120)).astype(int))
        for model in ALL_MODELS:
            for n in ns:
                compute_bn(model, int(n))
        assert len(calls) > 400
        mismatches = [(a, b) for a, b in calls if a.hex() != b.hex()]
        assert not mismatches, mismatches[:5]

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.exp(x) - 1e6, 0.0, 100.0),
        (lambda x: math.atan(x - 0.3), -1e6, 1.0),
        (lambda x: (x - 1.0) ** 5, 0.0, 7.0),
    ], ids=["cos", "cubic", "exp", "atan", "flat-fifth"])
    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_matches_scipy_on_textbook_roots(self, f, lo, hi, tol):
        ours = innovations._brentq(f, lo, hi, xtol=tol, rtol=1e-12)
        assert ours.hex() == brentq(f, lo, hi, xtol=tol, rtol=1e-12).hex()

    def test_endpoint_root_returned(self):
        assert innovations._brentq(lambda x: x - 2.0, 2.0, 5.0, 1e-12, 1e-12) == 2.0
        assert innovations._brentq(lambda x: x - 5.0, 2.0, 5.0, 1e-12, 1e-12) == 5.0

    def test_same_signs_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            innovations._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)

    def test_non_convergence_raised(self):
        def fifth(x):
            return (x - 1.0) ** 5

        with pytest.raises(RuntimeError):
            innovations._brentq(fifth, 0.0, 7.0, 1e-12, 1e-12, maxiter=3)
        with pytest.raises(RuntimeError):
            brentq(fifth, 0.0, 7.0, xtol=1e-12, rtol=1e-12, maxiter=3)


class TestModelConfig:
    def test_round_trip_ids(self):
        for cfg, variance in (({"id": "gaussian", "sigma": 2.0}, 4.0),
                              ({"id": "uniform", "sigma": 0.5}, 0.25),
                              ({"id": "rademacher"}, 1.0), ({"id": "pareto2"}, None)):
            model = model_from_config(cfg)
            assert model.name == cfg["id"]
            assert model.variance == variance

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"id": "cauchy"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"id": "gaussian", "scale": 1.0})

    def test_sigma_on_parameterless_model_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"id": "rademacher", "sigma": 2.0})

    @pytest.mark.parametrize("factory", [gaussian, uniform_sym])
    @pytest.mark.parametrize("sigma", [1e-320, 1e200, -1.0, math.nan])
    def test_scale_needs_positive_finite_variance(self, factory, sigma):
        with pytest.raises(ValueError):
            factory(sigma)

    def test_variance_classes(self):
        assert gaussian(2.0).variance == 4.0
        assert pareto_tail2().variance is None
        assert not pareto_tail2().has_finite_variance
