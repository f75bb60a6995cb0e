"""Exact metamorphic relations of the whole pipeline.

A metamorphic relation says how the output must move when the input moves
in a known way.  Two are exact in binary floating point, so they are
checked bit for bit:

* **Scale.**  Doubling (sigma, mu, y0) doubles every innovation and every
  path value exactly, since a power-of-two scale commutes with rounding.
  The mu-error Delta1/Delta3 then doubles, the rho-error Delta2/Delta3
  does not move, and under a finite variance the rates' sigma^2 becomes
  4 sigma^2.  Each scaled error moves by its error's factor over
  its rate's factor (the rates of ``limits.error_rates``, which are the
  paper's):

      P1     sqrt(n/l) -> /2,  sqrt(n) -> 1                 (1, 1)
      P2     sqrt(n/l) -> /2,  rho^n -> 1                   (1, 1)
      P3/P4  sqrt(n/l) -> /2,  sqrt(n^3/l) -> /2            (1, 1/2)
      P5     a_n, a_n n^alpha: no l under a finite variance  (2, 1)
      P6     sqrt(n/l) -> /2,  sqrt(n^(3 alpha)/l) rho_n^n -> /2  (1, 1/2)

  The limit law must scale the same way, so every KS distance and every
  correlation stays bit-identical.
* **Sign.**  Negating (mu, y0, e) negates the path in each recursion form,
  so least squares negates the mu-error and leaves the rho-error and the
  singular mask as they are.

Both hold at any power of two 2^j, and the block relation at -2^j too:
the fixed cases below check j = 1 and k = -1, and Hypothesis checks
j in {-3..3} from sigma = 0.75 * 2^i for i in {-3..6}, random signs of
(mu, y0) and of the block scale, and random regime parameters.  The
rates read sigma^2, not l(b_n), so the relation holds also at a large
sigma, where b_n sits on its floor b_0 + 1 = 2 at every n <= 120.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ar1mc.estimator import SingularDesignError, ls_estimate
from ar1mc.innovations import InnovationModel, sample_innovation_rows
from ar1mc.montecarlo import ExperimentConfig, run_experiment
from ar1mc.process import Ar1Path, Regime, path_root, recurse_rows
from ar1mc.rng import substreams

# (comp1, comp2) exponents of 2 that doubling (sigma, mu, y0) puts on the
# scaled errors and on the limit law, from the table above.
DEGREES = {"P1": (0, 0), "P2": (0, 0), "P3": (0, -1), "P4": (0, -1), "P5": (1, 0), "P6": (0, -1)}

REGIMES = [
    Regime("P1", rho=0.5), Regime("P2", rho=1.2), Regime("P3"), Regime("P4", c=-2.0),
    Regime("P5", c=-1.0, alpha=0.25), Regime("P5", c=-1.0, alpha=0.5),
    Regime("P5", c=-1.0, alpha=0.75), Regime("P6", c=1.0, alpha=0.5),
]


SIGNS = st.sampled_from([1.0, -1.0])
NONZERO = st.tuples(SIGNS, st.floats(0.25, 4.0)).map(lambda p: p[0] * p[1])
# P1-P6 with random parameters, kept where rho_n^n stays far below the
# overflow guard at n <= 120.
RANDOM_REGIMES = st.one_of(
    st.floats(-0.95, 0.95).map(lambda rho: Regime("P1", rho=rho)),
    st.tuples(SIGNS, st.floats(1.05, 2.0)).map(lambda p: Regime("P2", rho=p[0] * p[1])),
    st.just(Regime("P3")),
    st.floats(-5.0, 5.0).filter(lambda c: c != 0.0).map(lambda c: Regime("P4", c=c)),
    st.tuples(st.floats(-3.0, -0.25), st.sampled_from([0.5]) | st.floats(0.05, 0.95)).map(
        lambda p: Regime("P5", c=p[0], alpha=p[1])),
    st.tuples(st.floats(0.25, 3.0), st.floats(0.05, 0.95)).map(
        lambda p: Regime("P6", c=p[0], alpha=p[1])),
)
BLOCK_MODELS = [InnovationModel("gaussian", 1.0), InnovationModel("uniform", 1.0),
                InnovationModel("rademacher"), InnovationModel("pareto2"),
                InnovationModel("gaussian", 1e-100)]


def _errors(mu, rho, y0, e):
    """ls_estimate's (Delta1/Delta3, Delta2/Delta3) of each path from
    innovations ``e`` (rows, n), two (rows,) arrays, NaN where the design is
    singular."""
    errors = np.full((2, len(e)), np.nan)
    for i, (y, e_row) in enumerate(zip(recurse_rows(mu, rho, y0, e), e)):
        with contextlib.suppress(SingularDesignError):
            est = ls_estimate(Ar1Path(mu, rho, y0, y, e_row))
            errors[:, i] = est.delta1 / est.delta3, est.delta2 / est.delta3
    return errors


def _run(regime, model, mu, y0):
    return run_experiment(ExperimentConfig(
        regime=regime, model=model, mu=mu, y0=y0, n_list=(50, 80, 120),
        replications=100, limit_draws=1000, seed=3))


_QUANTILE_KEYS = ("q05", "q25", "q50", "q75", "q95")


def _scaled(summary, factor):
    return (factor * summary["mean"], factor * factor * summary["variance"],
            {key: factor * summary[key] for key in _QUANTILE_KEYS})


def _fields(summary):
    return summary["mean"], summary["variance"], {key: summary[key] for key in _QUANTILE_KEYS}


@pytest.mark.parametrize("model", [InnovationModel(name, sigma) for sigma in (0.75, 64.0)
                                   for name in ("gaussian", "uniform")],
                         ids=lambda m: m.id if m.sigma < 1 else f"{m.id}@{m.sigma:g}")
@pytest.mark.parametrize("regime", REGIMES,
                         ids=lambda r: r.tag + (f"@{r.alpha}" if r.tag == "P5" else ""))
def test_doubling_scale_moves_reports_by_the_rates(regime, model):
    base = _run(regime, model, 1.5, 0.75)
    twice = _run(regime, dataclasses.replace(model, sigma=2 * model.sigma), 3.0, 1.5)
    _assert_scaled(base, twice, regime.tag, 1)


@settings(max_examples=25)
@given(regime=RANDOM_REGIMES, name=st.sampled_from(["gaussian", "uniform"]),
       i=st.integers(-3, 6), j=st.integers(-3, 3), mu=NONZERO, y0=st.floats(-4.0, 4.0))
def test_power_of_two_scale_moves_reports_by_the_rates(regime, name, i, j, mu, y0):
    k = 2.0 ** j
    sigma = 0.75 * 2.0 ** i
    base = _run(regime, InnovationModel(name, sigma), mu, y0)
    scaled = _run(regime, InnovationModel(name, k * sigma), k * mu, k * y0)
    _assert_scaled(base, scaled, regime.tag, j)


def _assert_scaled(base, scaled, tag, j):
    """``scaled`` is ``base`` with (sigma, mu, y0) times 2^j."""
    f1, f2 = (2.0 ** (j * d) for d in DEGREES[tag])
    for a, b in zip(base.per_n, scaled.per_n):
        assert (b["ks_mu"], b["ks_rho"], b["component_correlation"]) == (
            a["ks_mu"], a["ks_rho"], a["component_correlation"])
    for a, b in zip(base.rows, scaled.rows):
        assert np.array_equal(b[:, 2], f1 * a[:, 2], equal_nan=True)
        assert np.array_equal(b[:, 3], f2 * a[:, 3], equal_nan=True)
        assert np.array_equal(b[:, 4], a[:, 4])
    assert _fields(scaled.limit["comp1"]) == _scaled(base.limit["comp1"], f1)
    assert _fields(scaled.limit["comp2"]) == _scaled(base.limit["comp2"], f2)
    assert scaled.limit["component_correlation"] == base.limit["component_correlation"]

    # The RMSEs are of the raw errors, so they move by (2^j, 1) in every
    # regime.  The mu slope is a fit to log(2^j rmse) = log(rmse) + j log 2,
    # whose rounding moves it by a few ulps of the logs (about 1e-15 each,
    # over a log n spread of 0.9), hence the tolerance.
    fit_a, fit_b = base.rate_fit, scaled.rate_fit
    assert fit_b["rmse_mu"] == [2.0 ** j * r for r in fit_a["rmse_mu"]]
    assert fit_b["rmse_rho"] == fit_a["rmse_rho"]
    assert fit_b["rho"] == fit_a["rho"]
    assert fit_b["mu"]["slope"] == pytest.approx(fit_a["mu"]["slope"], abs=1e-12)


@pytest.mark.parametrize("model", BLOCK_MODELS,
                         ids=["gaussian", "uniform", "rademacher", "pareto2", "singular"])
@pytest.mark.parametrize("n", [50, 400])
def test_negation_negates_the_mu_error_only(model, n):
    # Roots for all three recursion forms: the C-loop filter, the running
    # sum at 1 and the explosive closed form.  The tiny-sigma model keeps
    # the path at the fixed point y0 = mu/(1 - rho) = 2, so its rows are
    # singular where rho is 0.5.
    e = sample_innovation_rows(model, substreams(11, (n,), range(6)), np.empty((6, n)))
    for rho in (0.5, -0.9, 1.0 - 2.0 / n, 1.0, 1.0 + n ** -0.5, 1.2 ** (60 / n), -1.3 ** (60 / n)):
        for mu, y0 in ((1.0, 2.0), (-0.3, 5.0), (0.0, -1.0)):
            mu_err, rho_err = _errors(mu, rho, y0, e)
            neg_mu_err, neg_rho_err = _errors(-mu, rho, -y0, -e)
            assert np.array_equal(neg_mu_err, -mu_err, equal_nan=True)
            assert np.array_equal(neg_rho_err, rho_err, equal_nan=True)


@settings(max_examples=80)
@given(model=st.sampled_from(BLOCK_MODELS), regime=RANDOM_REGIMES, n=st.sampled_from([50, 120]),
       j=st.integers(-3, 3), sign=SIGNS, mu=st.floats(-4.0, 4.0), y0=st.floats(-4.0, 4.0))
def test_signed_power_of_two_scales_the_mu_error_only(model, regime, n, j, sign, mu, y0):
    k = sign * 2.0 ** j
    rho = path_root(regime, mu, y0, n)
    e = sample_innovation_rows(model, substreams(11, (n,), range(6)), np.empty((6, n)))
    mu_err, rho_err = _errors(mu, rho, y0, e)
    out_mu_err, out_rho_err = _errors(k * mu, rho, k * y0, k * e)
    assert np.array_equal(out_mu_err, k * mu_err, equal_nan=True)
    assert np.array_equal(out_rho_err, rho_err, equal_nan=True)
