import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from ar1mc import limits
from ar1mc.innovations import _CHUNK_ELEMENTS, InnovationModel, sample_innovation_rows
from ar1mc.limits import (
    _normal_factor,
    default_truncation,
    sample_limit,
)
from ar1mc.montecarlo import ks_two_sample
from ar1mc.process import Regime
from ar1mc.rng import generator
from paper_lemmas import (
    brownian_time_change,
    cumulative_growth,
    exact_growth_integrals,
    fresh_stream,
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
    @pytest.mark.parametrize("c", C_VALUES)
    def test_against_quadrature(self, c):
        # the exact reference that the P3/P4 factor is checked against
        mean, mean_sq, d = exact_growth_integrals(c)
        assert float(mean) == pytest.approx(quad(lambda s: cumulative_growth(c, s), 0.0, 1.0)[0],
                                            rel=1e-10)
        assert float(mean_sq) == pytest.approx(
            quad(lambda s: cumulative_growth(c, s) ** 2, 0.0, 1.0)[0], rel=1e-10)
        assert d > 0


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
        d = sample_limit(Regime("P1", rho=0.0), 1.0, InnovationModel("gaussian", 1.0), 200_000, 13)
        cov = np.cov(d.T)
        assert cov[0, 0] == pytest.approx(2.0, rel=0.03)
        assert cov[0, 1] == pytest.approx(-1.0, rel=0.05)
        assert cov[1, 1] == pytest.approx(1.0, rel=0.03)

    def test_finite_branch_diagonal_when_mu_zero(self):
        d = sample_limit(Regime("P1", rho=0.6), 0.0, InnovationModel("gaussian", 1.0), 100_000, 17)
        assert abs(np.corrcoef(d.T)[0, 1]) < 0.01
        assert d[:, 1].var(ddof=1) == pytest.approx(1.0 - 0.36, rel=0.03)

    def test_infinite_branch_independent_components(self):
        d = sample_limit(Regime("P1", rho=0.5), 1.0, InnovationModel("pareto2"), 100_000, 19)
        assert abs(np.corrcoef(d.T)[0, 1]) < 0.01
        assert kstest(d[:, 0], "norm").statistic < 0.01

    def test_rho_variance_same_in_both_branches(self):
        fin = sample_limit(Regime("P1", rho=0.5), 1.0, InnovationModel("gaussian", 1.0), 100_000, 23)
        inf = sample_limit(Regime("P1", rho=0.5), 1.0, InnovationModel("pareto2"), 100_000, 23)
        assert fin[:, 1].var(ddof=1) == pytest.approx(0.75, rel=0.03)
        assert np.array_equal(fin[:, 1], inf[:, 1])


class TestExplosiveLimit:
    def test_cauchy_case(self):
        # mu=0, y0=0, rho=2, gaussian: ratio of independent N(0, 4/3), scale 3
        d = sample_limit(Regime("P2", rho=2.0), 0.0, InnovationModel("gaussian", 1.0), 100_000, 61)
        q25, q50, q75 = np.quantile(d[:, 1], [0.25, 0.5, 0.75])
        assert abs(q50) < 0.05
        assert q75 - q25 == pytest.approx(6.0, rel=0.05)

    def test_first_component_standard_normal(self):
        d = sample_limit(Regime("P2", rho=1.2), 1.0, InnovationModel("gaussian", 1.0), 100_000, 67)
        assert kstest(d[:, 0], "norm").statistic < 0.01

    def test_large_intercept_dominates_denominator(self):
        d = sample_limit(Regime("P2", rho=2.0), 1e12, InnovationModel("gaussian", 1.0), 1000, 71)
        assert np.max(np.abs(d[:, 1])) < 1e-9

    def test_chunks_draw_from_keyed_streams(self):
        # chunk c holds 2^16 // (2M-1) draws from stream (c,) under seed: its W1
        # normals, then 2M-1 innovations per draw, U1 from the first M
        rho, y0, seed, model = 1.2, 0.5, 9, InnovationModel("pareto2")
        m = default_truncation(rho)
        step = (1 << 16) // (2 * m - 1)
        draws = 2 * step + 3
        got = sample_limit(Regime("P2", rho=rho), 1.0, model, draws, seed, y0=y0)
        for c, lo in enumerate(range(0, draws, step)):
            rows = min(step, draws - lo)
            rng = fresh_stream(seed, c)
            w1 = rng.standard_normal(rows)
            eps = sample_innovation_rows(model, (rng,), np.empty((1, rows * (2 * m - 1))))
            eps = eps.reshape(rows, 2 * m - 1)
            u1 = eps[:, :m] @ rho ** -np.arange(0.0, m)
            u2 = rho * y0 + rho * (eps[:, m:] @ rho ** -np.arange(1.0, m))
            assert np.array_equal(got[lo:lo + rows, 0], w1)
            comp2 = (rho * rho - 1.0) * u1 / (u2 + rho / (rho - 1.0))
            assert np.allclose(got[lo:lo + rows, 1], comp2, rtol=1e-9, atol=0)

    def test_truncation_invariance(self, monkeypatch):
        # a tighter series tolerance lengthens the series (M 41 -> 51 at
        # rho = 2) without changing the law
        regime = Regime("P2", rho=2.0)
        a = sample_limit(regime, 0.0, InnovationModel("gaussian", 1.0), 20_000, 73)
        monkeypatch.setattr(limits, "_SERIES_TOL", 1e-15)
        assert default_truncation(2.0) == 51
        b = sample_limit(regime, 0.0, InnovationModel("gaussian", 1.0), 20_000, 74)
        assert ks_two_sample(a[:, 1], b[:, 1]) < 0.02

    def test_vanished_denominator_is_refused(self, monkeypatch):
        # At a series tolerance of 1, M = 1 and U2 is an empty sum, so with
        # mu = 0 and y0 = 0 every denominator is 0.0.
        monkeypatch.setattr(limits, "_SERIES_TOL", 1.0)
        assert default_truncation(2.0) == 1
        with pytest.raises(FloatingPointError, match="^explosive limit denominator vanished$"):
            sample_limit(Regime("P2", rho=2.0), 0.0, InnovationModel("gaussian", 1.0), 1000, 3)

    def test_default_truncation_threshold(self):
        for rho in (1.2, 2.0, 5.0):
            m = default_truncation(rho)
            assert rho ** -m < 1e-12
            assert rho ** -(m - 2) >= 1e-12

    def test_depends_on_innovation_model(self):
        # no invariance principle: two-point innovations give a visibly
        # different ratio law than gaussian ones (ks noise here is ~0.01)
        regime = Regime("P2", rho=2.0)
        a = sample_limit(regime, 1.0, InnovationModel("gaussian", 1.0), 40_000, 75)
        b = sample_limit(regime, 1.0, InnovationModel("rademacher"), 40_000, 75)
        assert ks_two_sample(a[:, 1], b[:, 1]) > 0.03

    def test_draws_restore_the_buffer_size(self):
        # The series sums run under the block engine's ufunc buffer; the
        # caller's comes back after a draw and after a law that raises inside
        # sample_limit (a unit-root law at mu = 0).
        outer = np.setbufsize(4096)
        try:
            sample_limit(Regime("P2", rho=1.2), 1.0, InnovationModel("pareto2"), 500, 5)
            assert np.getbufsize() == 4096
            with pytest.raises(ValueError, match="requires mu != 0"):
                sample_limit(Regime("P3"), 0.0, InnovationModel("gaussian", 1.0), 500, 5)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(outer)

    def test_y0_shifts_denominator(self):
        regime = Regime("P2", rho=2.0)
        a = sample_limit(regime, 1.0, InnovationModel("gaussian", 1.0), 30_000, 77, y0=0.0)
        b = sample_limit(regime, 1.0, InnovationModel("gaussian", 1.0), 30_000, 77, y0=5.0)
        assert ks_two_sample(a[:, 1], b[:, 1]) > 0.05


class TestUnitRootLimit:
    @pytest.mark.parametrize("c", [-2.0, 0.0, 1.5])
    def test_gaussian_variance_at_unit_root(self, c):
        # exact covariance [[int G^2/d, -int G/(mu d)], [., 1/(mu^2 d)]];
        # at c=0, mu=1 it is [[4, -6], [-6, 12]]
        mu = 1.0
        g, g2, d = map(float, exact_growth_integrals(c))
        cov = np.cov(sample_limit(unit_root(c), mu, InnovationModel("gaussian", 1.0), 100_000, 97).T)
        assert cov[0, 0] == pytest.approx(g2 / d, rel=0.03)
        assert cov[0, 1] == pytest.approx(-g / (mu * d), rel=0.03)
        assert cov[1, 1] == pytest.approx(1.0 / (mu * mu * d), rel=0.03)

    def test_inverse_mu_scaling_drawwise(self):
        a = sample_limit(Regime("P3"), 1.0, InnovationModel("gaussian", 1.0), 500, 99)
        b = sample_limit(Regime("P3"), 2.0, InnovationModel("gaussian", 1.0), 500, 99)
        assert np.allclose(a[:, 1], 2.0 * b[:, 1], rtol=1e-12)
        assert np.allclose(a[:, 0], b[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_grid_refinement_consistency(self, c):
        # the Brownian-grid construction converges to the exact normal law
        exact = sample_limit(unit_root(c), 1.0, InnovationModel("gaussian", 1.0), 100_000, 303)
        for grid_m, seed in ((1000, 101), (2000, 202)):
            grid = grid_unit_root_limit(c, 1.0, grid_m, 10_000, seed)
            assert ks_two_sample(grid[:, 0], exact[:, 0]) < 0.02
            assert ks_two_sample(grid[:, 1], exact[:, 1]) < 0.02

    def test_mu_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_limit(Regime("P3"), 0.0, InnovationModel("gaussian", 1.0), 10, 1)


class TestModerateLimit:
    def test_p5_infinite_branch_large_alpha(self):
        # c=-1, mu=1, alpha>1/2: first component is 2*V12 ~ N(0, 2)
        d = sample_limit(Regime("P5", c=-1.0, alpha=0.75), 1.0, InnovationModel("pareto2"), 100_000, 93)
        assert d[:, 0].var(ddof=1) == pytest.approx(2.0, rel=0.03)

    def test_p5_rank_one_pair(self):
        for model in (InnovationModel("gaussian", 1.0), InnovationModel("pareto2")):
            for alpha in (0.25, 0.75):
                d = sample_limit(Regime("P5", c=-1.0, alpha=alpha), 1.0, model, 5000, 95)
                # comp1 = (mu/c) * comp2 exactly
                assert np.allclose(d[:, 0], -d[:, 1], rtol=1e-12)
                corr = np.corrcoef(d.T)[0, 1]
                assert corr == pytest.approx(-1.0, abs=1e-12)

    def test_p5_finite_branch_small_alpha_variance(self):
        # alpha<1/2, sigma=1: scaled rho error is -2c*V14 ~ N(0, -2c)
        d = sample_limit(Regime("P5", c=-2.0, alpha=0.25), 1.0, InnovationModel("gaussian", 1.0),
                         100_000, 97)
        assert d[:, 1].var(ddof=1) == pytest.approx(4.0, rel=0.03)

    def test_p5_boundary_alpha_activates_both_terms_in_finite_branch(self):
        # at alpha = 1/2 the finite branch sums both indicator terms:
        # Z = -V12 + V14 with d = 1, so Var(comp2) = 1 at c=-1, mu=sigma=1
        regime = Regime("P5", c=-1.0, alpha=0.5)
        d = sample_limit(regime, 1.0, InnovationModel("gaussian", 1.0), 100_000, 95)
        assert d[:, 1].var(ddof=1) == pytest.approx(1.0, rel=0.03)
        # the infinite branch takes only the alpha <= 1/2 term: Var = -2c = 2
        d = sample_limit(regime, 1.0, InnovationModel("pareto2"), 100_000, 96)
        assert d[:, 1].var(ddof=1) == pytest.approx(2.0, rel=0.03)

    def test_p6_component_laws(self):
        # c=1, mu=2: comp2 ~ N(0, (2c^2/mu)^2 / (2c)) = N(0, 1/2)
        d = sample_limit(Regime("P6", c=1.0, alpha=0.5), 2.0, InnovationModel("gaussian", 1.0),
                         100_000, 99)
        assert kstest(d[:, 0], "norm").statistic < 0.01
        assert d[:, 1].var(ddof=1) == pytest.approx(0.5, rel=0.03)
        assert abs(np.corrcoef(d.T)[0, 1]) < 0.01

    def test_p6_mu_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_limit(Regime("P6", c=1.0, alpha=0.5), 0.0, InnovationModel("gaussian", 1.0), 100, 1)


def p5_covariance(c, alpha, mu, variance):
    """Z = k1 V12 + k2 V14 with Var Z = s2*d, so the pair has covariance
    (s2/d) [[(mu/c)^2, mu/c], [mu/c, 1]]; the infinite branch (s2 = 1)
    keeps only one term at alpha = 1/2."""
    s2 = 1.0 if variance is None else variance
    mean_term = mu * mu / (-2.0 * c ** 3)
    if variance is None:
        d = mean_term if alpha > 0.5 else 1.0 / (-2.0 * c)
    else:
        d = (mean_term if alpha >= 0.5 else 0.0) + (s2 / (-2.0 * c) if alpha <= 0.5 else 0.0)
    r = mu / c
    return s2 / d * np.array([[r * r, r], [r, 1.0]])


def unit_root_covariance(c, mu):
    g, g2, d = map(float, exact_growth_integrals(c))
    return np.array([[g2 / d, -g / (mu * d)], [-g / (mu * d), 1.0 / (mu * mu * d)]])


def exact_factor(regime, mu, variance):
    """``_normal_factor`` under P1, P5 and P6 from each law's definition, in
    60-digit decimal (the float inputs are exact in Decimal)."""
    with localcontext() as ctx:
        ctx.prec = 60
        mu, s2 = Decimal(mu), Decimal(1.0 if variance is None else variance)
        if regime.tag == "P1":
            rho = Decimal(regime.rho)
            root = (1 - rho * rho).sqrt()
            return (1, 0 if variance is None else -mu * (1 + rho) / (s2.sqrt() * root)), (0, root)
        c = Decimal(regime.c)
        if regime.tag == "P6":  # (V21, (2c^2/mu) V23), V23 ~ N(0, 1/(2c))
            return (1, 0), (0, (2 * c ** 3).sqrt() / mu)
        # P5: (mu/c, 1) Z/d with Z = k1 V12 + k2 V14 and V12, V14 ~ N(0, -1/(2c))
        first = regime.alpha > 0.5 or (regime.alpha == 0.5 and variance is not None)
        second = regime.alpha <= 0.5
        k = (mu * s2.sqrt() / c if first else 0, s2 if second else 0)
        d = (mu * mu / (-2 * c ** 3) if first else 0) + (s2 / (-2 * c) if second else 0)
        row = [ki * (-1 / (2 * c)).sqrt() / d for ki in k]
        return tuple(mu / c * r for r in row), tuple(row)


MU = 1.5
NORMAL_CASES = [
    # P1 at rho 0.6, sigma 2: Var1 = 1 + mu^2 (1+rho)/(sigma^2 (1-rho)),
    # Cov = -mu (1+rho)/sigma, Var2 = 1 - rho^2
    ("P1-finite", Regime("P1", rho=0.6), 4.0,
     np.array([[1.0 + MU * MU * 1.6 / (4.0 * 0.4), -MU * 1.6 / 2.0], [-MU * 1.6 / 2.0, 0.64]])),
    ("P1-infinite", Regime("P1", rho=0.6), None, np.diag([1.0, 0.64])),
    ("P3", Regime("P3"), 4.0, np.array([[4.0, -6.0 / MU], [-6.0 / MU, 12.0 / (MU * MU)]])),
    ("P4-negative-c", Regime("P4", c=-1.5), 4.0, unit_root_covariance(-1.5, MU)),
    ("P4-positive-c", Regime("P4", c=1.5), None, unit_root_covariance(1.5, MU)),
] + [
    (f"P5-alpha{alpha}-{branch}", Regime("P5", c=-1.5, alpha=alpha), variance,
     p5_covariance(-1.5, alpha, MU, variance))
    for alpha in (0.25, 0.5, 0.75)
    for branch, variance in (("finite", 4.0), ("infinite", None))
] + [
    ("P6", Regime("P6", c=1.5, alpha=0.5), 4.0, np.diag([1.0, 2.0 * 1.5 ** 3 / (MU * MU)])),
]


class TestNormalFactor:
    @pytest.mark.parametrize("regime, variance, cov", [case[1:] for case in NORMAL_CASES],
                             ids=[case[0] for case in NORMAL_CASES])
    def test_factor_carries_closed_form_covariance(self, regime, variance, cov):
        a = np.array(_normal_factor(regime, MU, variance))
        np.testing.assert_allclose(a @ a.T, cov, rtol=1e-12, atol=0)

    # rho near +-1, where 1 - rho*rho unfactored loses about 2e5 eps; P5 at
    # both indicator terms' edges; P6 far in and out.
    @pytest.mark.parametrize("regime", [
        Regime("P1", rho=rho) for rho in (0.6, -0.6, 0.0, 0.999999, -0.999999)
    ] + [
        Regime("P5", c=c, alpha=alpha) for c in (-1.5, -1e-3, -1e3) for alpha in (0.25, 0.5, 0.75)
    ] + [Regime("P6", c=c, alpha=0.5) for c in (1.5, 1e-3, 1e3)],
        ids=lambda r: "-".join(str(v) for v in r.to_dict().values()))
    @pytest.mark.parametrize("variance", [4.0, None], ids=["finite", "infinite"])
    def test_factor_against_exact_decimal(self, regime, variance):
        # Each entry is a chain of at most 16 correctly rounded products,
        # quotients and square roots and one sum of two positive terms (P5's
        # d), so nothing cancels and each step adds at most 1/2 eps.
        bound = Decimal(8 * np.finfo(float).eps)
        got = _normal_factor(regime, MU, variance)
        for row, exact_row in zip(got, exact_factor(regime, MU, variance)):
            for value, want in zip(row, exact_row):
                assert abs(Decimal(value) - want) <= bound * abs(want), (value, want)

    # c on both sides of the series switch at |c| = 1/2 and of 1e-3, near
    # where the old closed forms of int G and int G^2 cancelled, and far out
    # on both sides, where e^c overflows (c = 355 and up for int G_c^2) or
    # e^-c underflows; a22^2 underflows near c = 370, so the entries are
    # compared, not the covariance.
    @pytest.mark.parametrize("c", [
        0.000999, 0.00100001, 0.0011, -0.0011, 0.002, 0.01, -0.01, 0.1, 0.2, -0.2,
        0.25, -0.25, 0.4999, 0.5, 0.5001, -0.4999, -0.5, -0.5001, 1.0, -1.0, 2.0, -2.0,
        -24.0, 30.0, -29.999, -30.0, -30.001, -1000.0, -1e5, 300.0,
        31.0, 354.0, 355.0, 400.0, 700.0,
    ])
    def test_unit_root_factor_against_exact_decimal(self, c):
        g, _, d = exact_growth_integrals(c)
        with localcontext() as ctx:
            ctx.prec = 60
            root_d = d.sqrt()
            exact = (-g / root_d, 1 / (Decimal(MU) * root_d))
        # From c = 31 on, 2cs < 1e-11 and q = c - 2 + 2cs does not cancel, so
        # each entry carries a few roundings.  Below, q cancels by up to about
        # 120 at c = -1/2 (q ~ c^2/6 there), which makes an ulp of cs up to
        # about 60 eps of q and 30 of r = sqrt(q/2); 20 000 random c in
        # -[0.5, 0.55] gave at worst 41 eps.  The series side loses a factor
        # 4 in d = g2 - g^2.
        bound = (8 if c >= 31 else 64) * np.finfo(float).eps
        (_, a12), (_, a22) = _normal_factor(Regime("P4", c=c), MU, 1.0)
        for value, want in zip((a12, a22), exact):
            assert abs(Decimal(value) - want) <= Decimal(bound) * abs(want), (c, value)

    @pytest.mark.parametrize("c", [0.5, -0.5])
    def test_series_cutover_is_seamless(self, c):
        # the series just inside |c| = 1/2 meets the closed form just outside
        (_, lo12), (_, lo22) = _normal_factor(Regime("P4", c=c * (1 - 1e-9)), MU, 1.0)
        (_, hi12), (_, hi22) = _normal_factor(Regime("P4", c=c * (1 + 1e-9)), MU, 1.0)
        assert lo12 == pytest.approx(hi12, rel=1e-9)
        assert lo22 == pytest.approx(hi22, rel=1e-9)

    # Past c = 709.78 e^c overflows, so s is taken from e^-c above c = 0; there
    # c s < 1e-300, so the factor's float form is exactly (-1/sqrt((c - 2)/2))
    # up to the rounding of c - 2, and a22 = c^2 s/(mu r) is subnormal or 0.
    @pytest.mark.parametrize("c", [720.0, 1e300])
    def test_unit_root_factor_past_exp_overflow(self, c):
        (_, a12), (_, a22) = _normal_factor(Regime("P4", c=c), MU, 1.0)
        assert a12 == -1.0 / math.sqrt((c - 2.0) / 2.0)
        assert 0.0 <= a22 < 1e-300


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
        model = InnovationModel("gaussian", 1.0)
        for regime in (Regime("P1", rho=0.5), Regime("P2", rho=1.3), Regime("P3"),
                       Regime("P4", c=-1.0), Regime("P5", c=-1.0, alpha=0.4),
                       Regime("P6", c=1.0, alpha=0.5)):
            d = sample_limit(regime, 1.0, model, 1500, 7)
            assert d.shape == (1500, 2)
            assert np.all(np.isfinite(d))

    def test_branch_follows_model_variance_class(self):
        reg = Regime("P1", rho=0.5)
        fin = sample_limit(reg, 1.0, InnovationModel("gaussian", 1.0), 50_000, 11)
        inf = sample_limit(reg, 1.0, InnovationModel("pareto2"), 50_000, 11)
        # finite branch couples the components, infinite branch does not
        assert abs(np.corrcoef(fin.T)[0, 1]) > 0.5
        assert abs(np.corrcoef(inf.T)[0, 1]) < 0.02


class TestNormalLawInPlace:
    """The limit laws are formed in place, one chunk at a time, chunk c from
    stream (c,) under the seed: the normal laws in one chunk of scratch, P2
    in one reused buffer of series rows."""

    REGIMES = [Regime("P1", rho=0.6), Regime("P3"), Regime("P5", c=-1.5, alpha=0.5),
               Regime("P6", c=1.5, alpha=0.5)]

    @pytest.mark.parametrize("regime", REGIMES, ids=lambda r: r.tag)
    def test_each_draw_is_the_factor_times_the_two_normal_draws(self, regime):
        # chunk c's z1 and then its z2 come from stream (c,)
        draws = 2 * _CHUNK_ELEMENTS + 7  # three chunks, the last one short
        got = sample_limit(regime, MU, InnovationModel("gaussian", 2.0), draws, 13)
        (a11, a12), (a21, a22) = _normal_factor(regime, MU, 4.0)
        los = range(0, draws, _CHUNK_ELEMENTS)
        assert draws - los[-1] == 7
        for c, lo in enumerate(los):
            rng = fresh_stream(13, c)
            z1 = rng.standard_normal(min(_CHUNK_ELEMENTS, draws - lo))
            z2 = rng.standard_normal(len(z1))
            want = np.column_stack([a11 * z1 + a12 * z2, a21 * z1 + a22 * z2])
            assert np.array_equal(got[lo:lo + len(z1)], want)

    @pytest.mark.parametrize("regime", REGIMES, ids=lambda r: r.tag)
    def test_one_chunk_is_all_of_z1_then_all_of_z2_from_the_seed(self, regime):
        # up to 2^16 draws make one chunk, from stream (0,): generator(seed)
        draws = _CHUNK_ELEMENTS
        got = sample_limit(regime, MU, InnovationModel("gaussian", 2.0), draws, 13)
        (a11, a12), (a21, a22) = _normal_factor(regime, MU, 4.0)
        rng = generator(13)
        z1 = rng.standard_normal(draws)
        z2 = rng.standard_normal(draws)
        want = np.column_stack([a11 * z1 + a12 * z2, a21 * z1 + a22 * z2])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("regime, model", [
        (regime, InnovationModel("gaussian", 2.0)) for regime in REGIMES
    ] + [(Regime("P2", rho=1.2), InnovationModel("pareto2"))], ids=["P1", "P3", "P5", "P6", "P2"])
    def test_whole_chunks_do_not_depend_on_the_draw_count(self, regime, model):
        width = 2 * default_truncation(regime.rho) - 1 if regime.tag == "P2" else 1
        step = max(1, _CHUNK_ELEMENTS // width)
        long = sample_limit(regime, MU, model, 2 * step + 5, 17)
        short = sample_limit(regime, MU, model, step + 1, 17)
        # chunk 0 is the one chunk whole in both
        assert np.array_equal(long[:step], short[:step])

    @pytest.mark.parametrize("regime, model", [
        (Regime("P5", c=-1.5, alpha=0.5), InnovationModel("gaussian", 1.0)),
        (Regime("P2", rho=1.2), InnovationModel("pareto2")),
        (Regime("P2", rho=1.2), InnovationModel("gaussian", 1.0)),
        (Regime("P2", rho=-1.5), InnovationModel("pareto2")),
        (Regime("P2", rho=-1.5), InnovationModel("gaussian", 1.0)),
    ], ids=["P5-gaussian", "P2-1.2-pareto2", "P2-1.2-gaussian", "P2-neg1.5-pareto2",
            "P2-neg1.5-gaussian"])
    def test_peak_is_the_output_plus_chunk_scratch(self, regime, model):
        # The scratch is at most two chunks of 2^16 values, whatever the draw
        # count: the normal laws' z1 and z2 slices, the P2 law's one buffer
        # of series rows (one draw fits a chunk while |rho| >= 1.00084).
        # Whole copies of z1 and z2, or a draws-long P2 denominator, would
        # add about the output again.
        # imports what a first draw needs
        sample_limit(regime, MU, model, 10, 3)
        tracemalloc.start()
        try:
            out = sample_limit(regime, MU, model, 400_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 3 * 8 * _CHUNK_ELEMENTS, (peak, out.nbytes)
