import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ar1mc.innovations import custom, gaussian, pareto_tail2
from ar1mc.process import Regime, resolve_rho, simulate_path
from paper_lemmas import companion_series, refit_residual


def zero_model():
    return custom("zero", lambda x: np.zeros_like(np.asarray(x, float)),
                  lambda rng, n: np.zeros(n), variance=1.0)


class TestRegime:
    def test_resolve_examples(self):
        assert resolve_rho(Regime("P3"), 500) == 1.0
        assert resolve_rho(Regime("P4", c=-2.0), 100) == pytest.approx(0.98)
        assert resolve_rho(Regime("P6", c=1.0, alpha=0.5), 400) == pytest.approx(1.05)
        assert resolve_rho(Regime("P1", rho=0.7), 10) == 0.7
        assert resolve_rho(Regime("P2", rho=-1.5), 10) == -1.5

    @pytest.mark.parametrize("bad", [
        dict(tag="P1", rho=1.0),
        dict(tag="P1", rho=-1.2),
        dict(tag="P2", rho=0.9),
        dict(tag="P4", c=0.0),
        dict(tag="P5", c=0.5, alpha=0.5),
        dict(tag="P5", c=-1.0, alpha=1.0),
        dict(tag="P6", c=-1.0, alpha=0.5),
        dict(tag="P6", c=1.0, alpha=0.0),
        dict(tag="P7"),
        dict(tag="P3", rho=1.0),          # parameter not taken
        dict(tag="P1"),                    # parameter missing
        dict(tag="P1", rho=math.nan),
        dict(tag="P1", rho="0.5"),         # strings are not numbers
        dict(tag="P4", c=True),            # nor are bools
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            Regime(**bad)

    def test_config_round_trip(self):
        reg = Regime.from_config({"tag": "P5", "c": -1.0, "alpha": 0.5})
        assert reg == Regime("P5", c=-1.0, alpha=0.5)
        assert Regime.from_config(reg.to_config()) == reg

    def test_config_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            Regime.from_config({"tag": "P3", "kappa": 1.0})


class TestSimulate:
    def test_null_dynamics(self):
        path = simulate_path(Regime("P1", rho=0.3), 0.0, 0.0, zero_model(), 5, 1)
        assert np.all(path.y == 0.0)

    def test_fixed_point(self):
        # mu/(1-rho) = 2 is invariant under the noiseless recursion
        path = simulate_path(Regime("P1", rho=0.5), 1.0, 2.0, zero_model(), 3, 1)
        assert np.allclose(path.y, [2.0, 2.0, 2.0], rtol=0, atol=0)

    def test_explosive_hand_recursion(self):
        path = simulate_path(Regime("P2", rho=2.0), 1.0, 0.0, zero_model(), 3, 1)
        assert np.allclose(path.y, [1.0, 3.0, 7.0], rtol=1e-15)

    @pytest.mark.parametrize("regime", [
        Regime("P1", rho=0.5), Regime("P1", rho=-0.8), Regime("P2", rho=1.2),
        Regime("P2", rho=-1.3), Regime("P3"), Regime("P4", c=-2.0),
        Regime("P5", c=-1.0, alpha=0.25), Regime("P6", c=1.0, alpha=0.5),
    ], ids=lambda r: f"{r.tag}-{r.rho}" if r.rho is not None else r.tag)
    @pytest.mark.parametrize("model", [gaussian(1.0), pareto_tail2()], ids=lambda m: m.name)
    def test_refit_identity(self, regime, model):
        path = simulate_path(regime, 1.0, 0.5, model, 500, 42)
        tol = 1e-10 * (1.0 + np.max(np.abs(path.y)))
        assert refit_residual(path) <= tol

    def test_same_seed_same_innovations_both_routes(self):
        # |rho| > 1 uses the closed-form construction; innovations must agree
        a = simulate_path(Regime("P2", rho=1.2), 1.0, 0.0, gaussian(1.0), 60, 9)
        b = simulate_path(Regime("P1", rho=0.5), 1.0, 0.0, gaussian(1.0), 60, 9)
        assert np.array_equal(a.e, b.e)

    def test_overflow_cap(self):
        with pytest.raises(OverflowError):
            simulate_path(Regime("P2", rho=2.0), 1.0, 0.0, gaussian(1.0), 2000, 1)

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ValueError):
            simulate_path(Regime("P3"), math.inf, 0.0, gaussian(1.0), 10, 1)
        with pytest.raises(ValueError):
            simulate_path(Regime("P3"), 0.0, math.nan, gaussian(1.0), 10, 1)
        with pytest.raises(ValueError):
            simulate_path(Regime("P3"), 0.0, 0.0, gaussian(1.0), 1, 1)

    def test_lagged_alignment(self):
        path = simulate_path(Regime("P3"), 1.0, 4.0, gaussian(1.0), 10, 2)
        lag = path.lagged()
        assert lag[0] == 4.0
        assert np.array_equal(lag[1:], path.y[:-1])

    def test_explosive_normalized_endpoint_spread_stabilizes(self):
        # |y_n| * rho^-n has comparable dispersion at n=25 and n=50
        rho, mu = 2.0, 1.0
        reg = Regime("P2", rho=rho)

        def spread(n, base):
            vals = [simulate_path(reg, mu, 0.0, gaussian(1.0), n, base + i).y[-1] * rho ** -n
                    for i in range(400)]
            return np.var(vals, ddof=1)

        v25, v50 = spread(25, 10_000), spread(50, 20_000)
        assert 0.2 <= v25 <= 0.5  # limit dispersion is 1/3 at these parameters
        assert 0.2 <= v50 <= 0.5


class TestCompanions:
    def test_centered_equals_y_when_mu_zero(self):
        path = simulate_path(Regime("P1", rho=0.5), 0.0, 1.0, gaussian(1.0), 50, 3)
        assert np.array_equal(companion_series(path, "centered"), path.y)

    def test_centered_elementwise_oracle(self):
        path = simulate_path(Regime("P1", rho=0.4), 2.0, 0.0, gaussian(1.0), 200, 5)
        expect = path.y - 2.0 / (1.0 - 0.4)
        assert np.allclose(companion_series(path, "centered"), expect, rtol=0, atol=1e-12)

    def test_centered_rejected_at_unit_root(self):
        path = simulate_path(Regime("P3"), 1.0, 0.0, gaussian(1.0), 50, 3)
        with pytest.raises(ValueError):
            companion_series(path, "centered")

    def test_tilde_explosive_pure_growth(self):
        path = simulate_path(Regime("P2", rho=2.0), 5.0, 1.0, zero_model(), 3, 1)
        assert np.allclose(companion_series(path, "tilde_explosive"), [2.0, 4.0, 8.0], rtol=1e-14)

    def test_tilde_recursions(self):
        for reg in (Regime("P1", rho=0.6), Regime("P2", rho=1.3), Regime("P4", c=1.0)):
            path = simulate_path(reg, 1.0, 0.7, gaussian(1.0), 40, 11)
            scale = 1.0 + np.max(np.abs(path.y))
            for kind, init in (("tilde_explosive", path.y0), ("tilde_unit", 0.0)):
                series = companion_series(path, kind)
                prev = np.concatenate(([init], series[:-1]))
                assert np.max(np.abs(series - path.rho * prev - path.e)) <= 1e-10 * scale

    def test_path_decomposes_into_drift_plus_tilde(self):
        # y_t = mu * sum_{j<t} rho^j + tilde_explosive_t
        for reg in (Regime("P2", rho=1.5), Regime("P4", c=2.0)):
            path = simulate_path(reg, 3.0, 0.6, gaussian(1.0), 30, 13)
            t = np.arange(1, 31)
            growth = (path.rho ** t - 1.0) / (path.rho - 1.0)
            rebuilt = 3.0 * growth + companion_series(path, "tilde_explosive")
            assert np.allclose(rebuilt, path.y, rtol=1e-10)

    def test_unknown_kind_rejected(self):
        path = simulate_path(Regime("P3"), 1.0, 0.0, gaussian(1.0), 10, 1)
        with pytest.raises(ValueError):
            companion_series(path, "detrended")


@given(
    rho=st.floats(-0.95, 0.95),
    mu=st.floats(-3, 3),
    y0=st.floats(-3, 3),
    seed=st.integers(0, 2 ** 31),
)
def test_centered_satisfies_own_recursion(rho, mu, y0, seed):
    if abs(1.0 - rho) < 1e-6:
        return
    path = simulate_path(Regime("P1", rho=rho), mu, y0, gaussian(1.0), 64, seed)
    centered = companion_series(path, "centered")
    prev = np.concatenate(([y0 - mu / (1.0 - rho)], centered[:-1]))
    resid = np.max(np.abs(centered - rho * prev - path.e))
    assert resid <= 1e-9 * (1.0 + np.max(np.abs(path.y)))
