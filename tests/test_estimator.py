import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ar1mc.estimator import SingularDesignError, error_rates, ls_estimate
from ar1mc.innovations import compute_bn, gaussian, pareto_tail2, rademacher, uniform_sym
from ar1mc.montecarlo import ExperimentConfig, run_experiment
from ar1mc.process import Ar1Path, Regime, simulate_path
from paper_lemmas import normal_equations_oracle


def path_from_y(y_full, mu, rho):
    """Build a path from observations y_0..y_n with back-solved innovations."""
    y_full = np.asarray(y_full, dtype=float)
    e = y_full[1:] - mu - rho * y_full[:-1]
    return Ar1Path(mu=mu, rho=rho, y0=float(y_full[0]), y=y_full[1:], e=e)


def random_fixture(rng, i):
    """Well-conditioned fixtures covering every regime (growth capped so the
    float subtraction the identities are checked against stays meaningful)."""
    kind = i % 6
    mu = float(rng.normal(0.0, 2.0))
    y0 = float(rng.normal(0.0, 2.0))
    if kind == 0:
        reg, n = Regime("P1", rho=float(rng.uniform(-0.9, 0.9))), int(rng.integers(50, 1500))
    elif kind == 1:
        rho = float(rng.uniform(1.05, 1.5))
        reg, n = Regime("P2", rho=rho), max(10, min(int(rng.integers(10, 120)), int(5.0 / math.log(rho))))
    elif kind == 2:
        reg, n = Regime("P3"), int(rng.integers(50, 1500))
    elif kind == 3:
        c = float(rng.uniform(-3.0, 3.0)) or 1.0
        reg, n = Regime("P4", c=c), int(rng.integers(50, 1500))
    elif kind == 4:
        reg = Regime("P5", c=float(rng.uniform(-3.0, -0.2)), alpha=float(rng.uniform(0.1, 0.9)))
        n = int(rng.integers(50, 1500))
    else:
        alpha = float(rng.uniform(0.3, 0.9))
        n = int(rng.integers(50, 800))
        c = min(1.5, 5.0 / n ** (1.0 - alpha)) * float(rng.uniform(0.3, 1.0))
        reg = Regime("P6", c=c, alpha=alpha)
    model = [gaussian(1.0), uniform_sym(1.0), rademacher(), pareto_tail2()][i % 4]
    return simulate_path(reg, mu, y0, model, n, int(rng.integers(2 ** 32)))


class TestClosedForm:
    def test_hand_solved_example(self):
        # y = (0, 1, 3): rho_hat = (2*3 - 1*4)/(2*1 - 1) = 2, mu_hat = (4 - 3)/1 = 1
        path = path_from_y([0.0, 1.0, 3.0], mu=0.0, rho=0.0)
        est = ls_estimate(path)
        assert est.mu_hat == pytest.approx(1.0, abs=1e-12)
        assert est.rho_hat == pytest.approx(2.0, abs=1e-12)
        mu_orc, rho_orc = normal_equations_oracle(path)
        assert mu_orc == pytest.approx(1.0, abs=1e-12)
        assert rho_orc == pytest.approx(2.0, abs=1e-12)

    def test_constant_path_singular(self):
        path = path_from_y([3.0, 3.0, 3.0, 3.0], mu=0.0, rho=1.0)
        with pytest.raises(SingularDesignError):
            ls_estimate(path)
        with pytest.raises(SingularDesignError):
            normal_equations_oracle(path)

    @pytest.mark.parametrize("level", [1e155, 1e160])
    def test_overflowing_squares_refused(self, level):
        # y_{t-1}^2 overflows, so the singularity test cannot be evaluated;
        # it must not be read as a singular design
        path = path_from_y(level * np.array([1.0, 1.5, 0.5, 2.0, 1.0]), mu=0.0, rho=1.0)
        with pytest.raises(OverflowError):
            ls_estimate(path)

    def test_oracle_agreement_on_fixtures(self):
        rng = np.random.default_rng(7)
        for i in range(200):
            path = random_fixture(rng, i)
            a = ls_estimate(path)
            mu_orc, rho_orc = normal_equations_oracle(path)
            assert abs(a.rho_hat - rho_orc) <= 1e-10 * max(abs(rho_orc), 1.0)
            assert abs(a.mu_hat - mu_orc) <= 1e-10 * max(abs(mu_orc), 1.0)

    def test_delta_identities_on_fixtures(self):
        rng = np.random.default_rng(11)
        for i in range(200):
            path = random_fixture(rng, i)
            est = ls_estimate(path)
            mu_err, rho_err = est.mu_hat - path.mu, est.rho_hat - path.rho
            assert est.delta1 / est.delta3 == pytest.approx(mu_err, rel=1e-10, abs=1e-10 * max(1.0, abs(mu_err)))
            assert est.delta2 / est.delta3 == pytest.approx(rho_err, rel=1e-10, abs=1e-10 * max(1.0, abs(rho_err)))


class TestEquivariance:
    @given(
        shift=st.floats(-50.0, 50.0),
        rho=st.floats(-0.9, 0.9),
        seed=st.integers(0, 2 ** 31),
    )
    def test_shift(self, shift, rho, seed):
        path = simulate_path(Regime("P1", rho=rho), 1.0, 0.0, gaussian(1.0), 100, seed)
        base = ls_estimate(path)
        shifted = Ar1Path(
            mu=path.mu + shift * (1.0 - path.rho), rho=path.rho,
            y0=path.y0 + shift, y=path.y + shift, e=path.e,
        )
        est = ls_estimate(shifted)
        assert est.rho_hat == pytest.approx(base.rho_hat, rel=1e-10, abs=1e-10)
        assert est.mu_hat == pytest.approx(base.mu_hat + shift * (1.0 - base.rho_hat), rel=1e-10, abs=1e-8)

    @given(
        scale=st.floats(1e-3, 1e3),
        rho=st.floats(-0.9, 0.9),
        seed=st.integers(0, 2 ** 31),
    )
    def test_scale(self, scale, rho, seed):
        path = simulate_path(Regime("P1", rho=rho), 1.0, 0.5, gaussian(1.0), 100, seed)
        base = ls_estimate(path)
        scaled = Ar1Path(
            mu=path.mu * scale, rho=path.rho,
            y0=path.y0 * scale, y=path.y * scale, e=path.e * scale,
        )
        est = ls_estimate(scaled)
        assert est.rho_hat == pytest.approx(base.rho_hat, rel=1e-10, abs=1e-12)
        assert est.mu_hat == pytest.approx(base.mu_hat * scale, rel=1e-10)


class TestRates:
    def test_stationary_rates_with_unit_truncated_variance(self):
        # rademacher has l(b_100) = 1 exactly, so both rates are sqrt(100)
        rates = error_rates(Regime("P1", rho=0.5), rademacher(), 100)
        assert rates == (10.0, 10.0)

    def test_explosive_rate(self):
        mu_rate, rho_rate = error_rates(Regime("P2", rho=1.2), rademacher(), 60)
        assert mu_rate == pytest.approx(math.sqrt(60.0))
        assert rho_rate == pytest.approx(1.2 ** 60)

    def test_unit_root_rate(self):
        mu_rate, rho_rate = error_rates(Regime("P3"), rademacher(), 400)
        assert mu_rate == pytest.approx(20.0)
        assert rho_rate == pytest.approx(8000.0)

    def test_moderately_explosive_rate(self):
        mu_rate, rho_rate = error_rates(Regime("P6", c=1.0, alpha=0.5), rademacher(), 400)
        assert mu_rate == pytest.approx(20.0)
        assert rho_rate == pytest.approx(math.sqrt(400.0 ** 1.5) * 1.05 ** 400, rel=1e-12)

    def test_moderately_stationary_finite_variance(self):
        # finite-variance factor n^(max(alpha,1/2) - alpha/2)
        n = 4096
        mu_rate, rho_rate = error_rates(Regime("P5", c=-1.0, alpha=0.25), rademacher(), n)
        assert mu_rate == pytest.approx(n ** 0.375, rel=1e-12)
        assert rho_rate == pytest.approx(n ** 0.625, rel=1e-12)
        mu_rate, _ = error_rates(Regime("P5", c=-1.0, alpha=0.75), rademacher(), n)
        assert mu_rate == pytest.approx(n ** 0.375, rel=1e-12)

    def test_moderately_stationary_infinite_variance(self):
        n = 10_000
        model = pareto_tail2()
        ell = 2.0 * math.log(compute_bn(model, n))
        mu_rate, rho_rate = error_rates(Regime("P5", c=-1.0, alpha=0.75), model, n)
        assert mu_rate == pytest.approx(math.sqrt(n ** 0.75 / ell), rel=1e-9)
        assert rho_rate == pytest.approx(mu_rate * n ** 0.75, rel=1e-9)
        mu_rate, _ = error_rates(Regime("P5", c=-1.0, alpha=0.25), model, n)
        assert mu_rate == pytest.approx(math.sqrt(n ** 0.75), rel=1e-12)  # no l(b_n)

    def test_scale_error_matches_subtraction_when_well_conditioned(self):
        reg = Regime("P1", rho=0.5)
        cfg = ExperimentConfig(regime=reg, model={"id": "gaussian", "sigma": 1.0}, mu=1.0,
                               n_list=(500,), replications=100, limit_draws=1000,
                               master_seed=21)
        block = run_experiment(cfg).per_n[0]
        assert block.singular == 0
        assert np.allclose(block.scaled_mu, block.mu_rate * (block.mu_hat - 1.0),
                           rtol=1e-9, atol=0)
        assert np.allclose(block.scaled_rho, block.rho_rate * (block.rho_hat - 0.5),
                           rtol=1e-9, atol=0)

    def test_scale_error_resolves_below_ulp(self):
        # moderately explosive: the error is ~1e-22 while ulp(rho_hat) ~ 2e-16;
        # the decomposition must still produce O(1) scaled errors
        reg = Regime("P6", c=1.0, alpha=0.5)
        cfg = ExperimentConfig(regime=reg, model={"id": "gaussian", "sigma": 1.0}, mu=2.0,
                               n_list=(2000,), replications=100, limit_draws=1000,
                               master_seed=77)
        block = run_experiment(cfg).per_n[0]
        err = np.abs(block.scaled_rho / block.rho_rate)
        assert np.all(err < 1e-3 * np.spacing(block.rho_hat))
        assert np.all(np.abs(block.scaled_rho) < 50.0)
        assert np.all(np.abs(block.scaled_rho) > 1e-6)
