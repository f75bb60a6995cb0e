import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from ar1mc.innovations import gaussian, pareto_tail2, rademacher
from ar1mc.limits import (
    default_truncation,
    growth_dispersion,
    growth_mean,
    growth_mean_sq,
    sample_limit,
)
from ar1mc.montecarlo import ks_two_sample
from ar1mc.process import Regime
from paper_lemmas import (
    brownian_time_change,
    cumulative_growth,
    grid_unit_root_limit,
    sample_growth_functionals,
    sample_time_changed_functionals,
)

C_VALUES = [-3.0, -1.0, -1e-4, 0.0, 1e-6, 0.5, 2.0]


def unit_root(c):
    """The regime whose limit is the unit-root law with constant ``c``."""
    return Regime("P3") if c == 0.0 else Regime("P4", c=c)


class TestGrowthCurve:
    def test_point_values(self):
        assert cumulative_growth(0.0, 0.7) == 0.7
        assert cumulative_growth(1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
        assert cumulative_growth(-1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    @given(s=st.floats(0.0, 1.0))
    def test_small_c_continuity(self, s):
        c = 1e-9
        # series: s + c s^2/2 + c^2 s^3/6, next term below 1e-36
        expect = s + c * s * s / 2.0 + c * c * s ** 3 / 6.0
        assert cumulative_growth(c, s) == pytest.approx(expect, rel=1e-12)
        assert cumulative_growth(-c, s) == pytest.approx(s - c * s * s / 2.0 + c * c * s ** 3 / 6.0, rel=1e-12)

    @pytest.mark.parametrize("c", C_VALUES)
    def test_matches_quadrature(self, c):
        for s in (0.25, 1.0):
            expect, _ = quad(lambda u: math.exp(c * u), 0.0, s)
            assert cumulative_growth(c, s) == pytest.approx(expect, rel=1e-10)

    def test_vectorized(self):
        s = np.linspace(0, 1, 11)
        out = cumulative_growth(0.5, s)
        assert np.allclose(out, [cumulative_growth(0.5, float(v)) for v in s], rtol=1e-15)


class TestTimeChange:
    def test_zero_c_is_identity(self):
        s = np.linspace(0, 1, 9)
        assert np.allclose(brownian_time_change(0.0, s), s, rtol=0, atol=0)

    def test_anchors(self):
        for c in (-2.0, -0.5, 0.7, 3.0):
            assert brownian_time_change(c, 0.0) == 0.0
            assert brownian_time_change(c, 1.0) == pytest.approx(math.expm1(2 * c) / (2 * c), rel=1e-12)

    @pytest.mark.parametrize("c", C_VALUES)
    def test_matches_quadrature_and_monotone(self, c):
        s = np.linspace(0, 1, 41)
        vals = brownian_time_change(c, s)
        assert np.all(np.diff(vals) > 0)
        expect, _ = quad(lambda u: math.exp(2 * c * (1 - u)), 0.0, 0.6)
        assert brownian_time_change(c, 0.6) == pytest.approx(expect, rel=1e-10)


class TestGrowthIntegrals:
    def test_at_zero(self):
        assert growth_mean(0.0) == pytest.approx(0.5, rel=1e-15)
        assert growth_mean_sq(0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert growth_dispersion(0.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    @pytest.mark.parametrize("c", C_VALUES)
    def test_against_quadrature(self, c):
        mean, _ = quad(lambda s: cumulative_growth(c, s), 0.0, 1.0)
        mean_sq, _ = quad(lambda s: cumulative_growth(c, s) ** 2, 0.0, 1.0)
        assert growth_mean(c) == pytest.approx(mean, rel=1e-10)
        assert growth_mean_sq(c) == pytest.approx(mean_sq, rel=1e-10)
        assert growth_dispersion(c) > 0

    def test_series_cutover_is_seamless(self):
        for f in (growth_mean, growth_mean_sq):
            assert f(1e-3 * (1 - 1e-9)) == pytest.approx(f(1e-3 * (1 + 1e-9)), rel=1e-9)


class TestGrowthFunctionals:
    def test_deterministic_integrals_at_zero(self):
        _, _, int_g, int_g2 = sample_growth_functionals(0.0, 1000, 1, 1)
        assert int_g == 0.5
        assert int_g2 == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_ito_isometry_at_zero(self):
        m = 2000
        _, ito, _, _ = sample_growth_functionals(0.0, m, 100_000, 57)
        assert abs(ito.mean()) < 0.01
        # discrete target: sum (k/m)^2 / m
        target = sum((k / m) ** 2 for k in range(m)) / m
        assert ito.var(ddof=1) == pytest.approx(target, rel=0.02)
        assert ito.var(ddof=1) == pytest.approx(1.0 / 3.0, rel=0.03)

    def test_w1_is_standard_normal(self):
        w1, _, _, _ = sample_growth_functionals(0.5, 1000, 50_000, 3)
        assert kstest(w1, "norm").statistic < 0.01

    def test_seed_determinism(self):
        a = sample_growth_functionals(1.0, 500, 100, 9)
        b = sample_growth_functionals(1.0, 500, 100, 9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            sample_growth_functionals(0.0, 50, 10, 1)


class TestStationaryLimit:
    def test_finite_branch_covariance_at_zero_rho(self):
        # mu=1, sigma=1, rho=0: covariance [[2, -1], [-1, 1]]
        d = sample_limit(Regime("P1", rho=0.0), 1.0, gaussian(1.0), 200_000, 13)
        cov = np.cov(d.T)
        assert cov[0, 0] == pytest.approx(2.0, rel=0.03)
        assert cov[0, 1] == pytest.approx(-1.0, rel=0.05)
        assert cov[1, 1] == pytest.approx(1.0, rel=0.03)

    def test_finite_branch_diagonal_when_mu_zero(self):
        d = sample_limit(Regime("P1", rho=0.6), 0.0, gaussian(1.0), 100_000, 17)
        assert abs(np.corrcoef(d.T)[0, 1]) < 0.01
        assert d[:, 1].var(ddof=1) == pytest.approx(1.0 - 0.36, rel=0.03)

    def test_infinite_branch_independent_components(self):
        d = sample_limit(Regime("P1", rho=0.5), 1.0, pareto_tail2(), 100_000, 19)
        assert abs(np.corrcoef(d.T)[0, 1]) < 0.01
        assert kstest(d[:, 0], "norm").statistic < 0.01

    def test_rho_variance_same_in_both_branches(self):
        fin = sample_limit(Regime("P1", rho=0.5), 1.0, gaussian(1.0), 100_000, 23)
        inf = sample_limit(Regime("P1", rho=0.5), 1.0, pareto_tail2(), 100_000, 23)
        assert fin[:, 1].var(ddof=1) == pytest.approx(0.75, rel=0.03)
        assert np.array_equal(fin[:, 1], inf[:, 1])


class TestExplosiveLimit:
    def test_cauchy_case(self):
        # mu=0, y0=0, rho=2, gaussian: ratio of independent N(0, 4/3), scale 3
        d = sample_limit(Regime("P2", rho=2.0), 0.0, gaussian(1.0), 100_000, 61)
        q25, q50, q75 = np.quantile(d[:, 1], [0.25, 0.5, 0.75])
        assert abs(q50) < 0.05
        assert q75 - q25 == pytest.approx(6.0, rel=0.05)

    def test_first_component_standard_normal(self):
        d = sample_limit(Regime("P2", rho=1.2), 1.0, gaussian(1.0), 100_000, 67)
        assert kstest(d[:, 0], "norm").statistic < 0.01

    def test_large_intercept_dominates_denominator(self):
        d = sample_limit(Regime("P2", rho=2.0), 1e12, gaussian(1.0), 1000, 71)
        assert np.max(np.abs(d[:, 1])) < 1e-9

    def test_truncation_invariance(self):
        regime = Regime("P2", rho=2.0)
        m = default_truncation(2.0)
        a = sample_limit(regime, 0.0, gaussian(1.0), 20_000, 73, truncation=m)
        b = sample_limit(regime, 0.0, gaussian(1.0), 20_000, 74, truncation=m + 10)
        assert ks_two_sample(a[:, 1], b[:, 1]) < 0.02

    def test_default_truncation_threshold(self):
        for rho in (1.2, 2.0, 5.0):
            m = default_truncation(rho)
            assert rho ** -m < 1e-12
            assert rho ** -(m - 2) >= 1e-12

    def test_too_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            sample_limit(Regime("P2", rho=1.2), 1.0, gaussian(1.0), 100, 1, truncation=20)

    def test_depends_on_innovation_model(self):
        # no invariance principle: two-point innovations give a visibly
        # different ratio law than gaussian ones (ks noise here is ~0.01)
        regime = Regime("P2", rho=2.0)
        a = sample_limit(regime, 1.0, gaussian(1.0), 40_000, 75)
        b = sample_limit(regime, 1.0, rademacher(), 40_000, 75)
        assert ks_two_sample(a[:, 1], b[:, 1]) > 0.03

    def test_y0_shifts_denominator(self):
        regime = Regime("P2", rho=2.0)
        a = sample_limit(regime, 1.0, gaussian(1.0), 30_000, 77, y0=0.0)
        b = sample_limit(regime, 1.0, gaussian(1.0), 30_000, 77, y0=5.0)
        assert ks_two_sample(a[:, 1], b[:, 1]) > 0.05


class TestUnitRootLimit:
    @pytest.mark.parametrize("c", [-2.0, 0.0, 1.5])
    def test_gaussian_variance_at_unit_root(self, c):
        # exact covariance [[int G^2/d, -int G/(mu d)], [., 1/(mu^2 d)]];
        # at c=0, mu=1 it is [[4, -6], [-6, 12]]
        mu = 1.0
        g, g2, d = growth_mean(c), growth_mean_sq(c), growth_dispersion(c)
        cov = np.cov(sample_limit(unit_root(c), mu, gaussian(1.0), 100_000, 97).T)
        assert cov[0, 0] == pytest.approx(g2 / d, rel=0.03)
        assert cov[0, 1] == pytest.approx(-g / (mu * d), rel=0.03)
        assert cov[1, 1] == pytest.approx(1.0 / (mu * mu * d), rel=0.03)

    def test_inverse_mu_scaling_drawwise(self):
        a = sample_limit(Regime("P3"), 1.0, gaussian(1.0), 500, 99)
        b = sample_limit(Regime("P3"), 2.0, gaussian(1.0), 500, 99)
        assert np.allclose(a[:, 1], 2.0 * b[:, 1], rtol=1e-12)
        assert np.allclose(a[:, 0], b[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_grid_refinement_consistency(self, c):
        # the Brownian-grid construction converges to the exact normal law
        exact = sample_limit(unit_root(c), 1.0, gaussian(1.0), 100_000, 303)
        for grid_m, seed in ((1000, 101), (2000, 202)):
            grid = grid_unit_root_limit(c, 1.0, grid_m, 10_000, seed)
            assert ks_two_sample(grid[:, 0], exact[:, 0]) < 0.02
            assert ks_two_sample(grid[:, 1], exact[:, 1]) < 0.02

    def test_mu_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_limit(Regime("P3"), 0.0, gaussian(1.0), 10, 1)


class TestModerateLimit:
    def test_p5_infinite_branch_large_alpha(self):
        # c=-1, mu=1, alpha>1/2: first component is 2*V12 ~ N(0, 2)
        d = sample_limit(Regime("P5", c=-1.0, alpha=0.75), 1.0, pareto_tail2(), 100_000, 93)
        assert d[:, 0].var(ddof=1) == pytest.approx(2.0, rel=0.03)

    def test_p5_rank_one_pair(self):
        for model in (gaussian(1.0), pareto_tail2()):
            for alpha in (0.25, 0.75):
                d = sample_limit(Regime("P5", c=-1.0, alpha=alpha), 1.0, model, 5000, 95)
                # comp1 = (mu/c) * comp2 exactly
                assert np.allclose(d[:, 0], -d[:, 1], rtol=1e-12)
                corr = np.corrcoef(d.T)[0, 1]
                assert corr == pytest.approx(-1.0, abs=1e-12)

    def test_p5_finite_branch_small_alpha_variance(self):
        # alpha<1/2, sigma=1: scaled rho error is -2c*V14 ~ N(0, -2c)
        d = sample_limit(Regime("P5", c=-2.0, alpha=0.25), 1.0, gaussian(1.0), 100_000, 97)
        assert d[:, 1].var(ddof=1) == pytest.approx(4.0, rel=0.03)

    def test_p5_boundary_alpha_activates_both_terms_in_finite_branch(self):
        # at alpha = 1/2 the finite branch sums both indicator terms:
        # Z = -V12 + V14 with d = 1, so Var(comp2) = 1 at c=-1, mu=sigma=1
        regime = Regime("P5", c=-1.0, alpha=0.5)
        d = sample_limit(regime, 1.0, gaussian(1.0), 100_000, 95)
        assert d[:, 1].var(ddof=1) == pytest.approx(1.0, rel=0.03)
        # the infinite branch takes only the alpha <= 1/2 term: Var = -2c = 2
        d = sample_limit(regime, 1.0, pareto_tail2(), 100_000, 96)
        assert d[:, 1].var(ddof=1) == pytest.approx(2.0, rel=0.03)

    def test_p6_component_laws(self):
        # c=1, mu=2: comp2 ~ N(0, (2c^2/mu)^2 / (2c)) = N(0, 1/2)
        d = sample_limit(Regime("P6", c=1.0, alpha=0.5), 2.0, gaussian(1.0), 100_000, 99)
        assert kstest(d[:, 0], "norm").statistic < 0.01
        assert d[:, 1].var(ddof=1) == pytest.approx(0.5, rel=0.03)
        assert abs(np.corrcoef(d.T)[0, 1]) < 0.01

    def test_p6_mu_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_limit(Regime("P6", c=1.0, alpha=0.5), 0.0, gaussian(1.0), 100, 1)


class TestTimeChangedFunctionals:
    def test_zero_c_reduces_to_plain_brownian_functionals(self):
        out = sample_time_changed_functionals(0.0, 2000, 100_000, 301)
        m = 2000
        target = sum(k / m for k in range(m)) / m  # E[int W^2] on the left grid
        assert out["int_sq"].mean() == pytest.approx(target, rel=0.02)
        assert abs(out["ito"].mean()) < 0.01
        assert abs(out["int_lin"].mean()) < 0.01

    @pytest.mark.parametrize("c", [-1.0, 1.0])
    def test_mean_of_int_sq_matches_quadrature(self, c):
        # E[W(T(s))^2] = T(s), so E[int_sq] = int exp(-2c(1-s)) T_c(s) ds
        out = sample_time_changed_functionals(c, 2000, 50_000, 303)
        expect, _ = quad(lambda s: math.exp(-2 * c * (1 - s)) * brownian_time_change(c, s), 0, 1)
        assert out["int_sq"].mean() == pytest.approx(expect, rel=0.03)

    def test_ito_identity_with_endpoint(self):
        # ito = -c*int_sq + (W(T(1))^2 - 1)/2 by construction; at c=0 its
        # mean vanishes because E[W(1)^2] = 1
        out = sample_time_changed_functionals(0.0, 1000, 50_000, 307)
        assert abs(out["ito"].mean()) < 0.02


class TestDispatch:
    def test_all_regimes_dispatch(self):
        model = gaussian(1.0)
        for regime in (Regime("P1", rho=0.5), Regime("P2", rho=1.3), Regime("P3"),
                       Regime("P4", c=-1.0), Regime("P5", c=-1.0, alpha=0.4),
                       Regime("P6", c=1.0, alpha=0.5)):
            d = sample_limit(regime, 1.0, model, 1500, 7)
            assert d.shape == (1500, 2)
            assert np.all(np.isfinite(d))

    def test_branch_follows_model_variance_class(self):
        reg = Regime("P1", rho=0.5)
        fin = sample_limit(reg, 1.0, gaussian(1.0), 50_000, 11)
        inf = sample_limit(reg, 1.0, pareto_tail2(), 50_000, 11)
        # finite branch couples the components, infinite branch does not
        assert abs(np.corrcoef(fin.T)[0, 1]) > 0.5
        assert abs(np.corrcoef(inf.T)[0, 1]) < 0.02
