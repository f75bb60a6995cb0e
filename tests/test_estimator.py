import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ar1mc.estimator import _SINGULAR_EPS, SingularDesignError, ls_deltas, ls_estimate
from ar1mc.innovations import _CHUNK_ELEMENTS, InnovationModel, compute_bn, ell_at_bn
from ar1mc.limits import error_rates
from ar1mc.montecarlo import ExperimentConfig, run_experiment
from ar1mc.process import Ar1Path, Regime, block_plan, resolve_rho, simulate_path
from paper_lemmas import (
    conditioned_fixture, exact_delta_ratios, lagged, normal_equations_oracle, reference_path,
)


def path_from_y(y_full, mu, rho):
    """Build a path from observations y_0..y_n with back-solved innovations."""
    y_full = np.asarray(y_full, dtype=float)
    e = y_full[1:] - mu - rho * y_full[:-1]
    return Ar1Path(mu=mu, rho=rho, y0=float(y_full[0]), y=y_full[1:], e=e)


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

    def test_overflowing_estimates_refused(self):
        # every sum of squares is finite, but Delta1 is not
        path = Ar1Path(mu=math.nan, rho=math.nan, y0=0.0, y=np.array([1.0, 2.0, 1e308]),
                       e=np.array([1e308, -1e308, 1e308]))
        with pytest.raises(OverflowError, match="estimates overflow"):
            ls_estimate(path)

    def test_near_constant_design_above_floor_is_estimated(self):
        # Delta3 / (n sum x^2) lies between the 1e-12 singularity floor and
        # 1e-9, so the design is solved, not flagged
        y_full = 1.0 + 6e-6 * np.random.default_rng(3).standard_normal(201)
        x = y_full[:-1]
        ratio = np.sum((x - x.mean()) ** 2) / np.sum(x * x)
        assert 1e-12 < ratio < 1e-9
        est = ls_estimate(path_from_y(y_full, 0.0, 1.0))
        assert math.isfinite(est.mu_hat) and math.isfinite(est.rho_hat)

    def test_near_constant_design_below_floor_is_singular(self):
        # The floor is relative to the raw sum of squares of the lagged
        # series, not to its centred sum, which would flag only a constant.
        y_full = 1.0 + 6e-9 * np.random.default_rng(3).standard_normal(201)
        x = y_full[:-1]
        ratio = np.sum((x - x.mean()) ** 2) / np.sum(x * x)
        assert 0.0 < ratio < 1e-12
        with pytest.raises(SingularDesignError):
            ls_estimate(path_from_y(y_full, 0.0, 1.0))

    def test_oracle_agreement_on_fixtures(self):
        rng = np.random.default_rng(7)
        for i in range(200):
            path = simulate_path(*conditioned_fixture(rng, i), int(rng.integers(2 ** 32)))
            a = ls_estimate(path)
            mu_orc, rho_orc = normal_equations_oracle(path)
            assert abs(a.rho_hat - rho_orc) <= 1e-10 * max(abs(rho_orc), 1.0)
            assert abs(a.mu_hat - mu_orc) <= 1e-10 * max(abs(mu_orc), 1.0)

    def test_delta_identities_on_fixtures(self):
        rng = np.random.default_rng(11)
        for i in range(200):
            path = simulate_path(*conditioned_fixture(rng, i), int(rng.integers(2 ** 32)))
            est = ls_estimate(path)
            mu_err, rho_err = est.mu_hat - path.mu, est.rho_hat - path.rho
            assert est.delta1 / est.delta3 == pytest.approx(mu_err, rel=1e-10, abs=1e-10 * max(1.0, abs(mu_err)))
            assert est.delta2 / est.delta3 == pytest.approx(rho_err, rel=1e-10, abs=1e-10 * max(1.0, abs(rho_err)))


    # P1-P6 under both models, and large intercepts, where the raw sums would
    # cancel by about (mean/spread)^2 and only the centring keeps precision.
    @pytest.mark.parametrize("regime, mu, n", [
        (Regime("P1", rho=0.5), 1.0, 2000), (Regime("P2", rho=1.05), 1.0, 60),
        (Regime("P3"), 1.0, 1000), (Regime("P4", c=-2.0), 1.0, 1000),
        (Regime("P5", c=-1.0, alpha=0.5), 1.0, 1000), (Regime("P6", c=1.0, alpha=0.5), 1.0, 400),
        (Regime("P1", rho=0.9), 1e8, 2000), (Regime("P3"), 1e8, 500),
    ], ids=["P1", "P2", "P3", "P4", "P5", "P6", "P1-mu1e8", "P3-mu1e8"])
    @pytest.mark.parametrize("model", ["gaussian", "pareto2"])
    def test_delta_ratios_against_exact_rationals(self, regime, mu, n, model):
        path = simulate_path(regime, mu, 0.5, InnovationModel(model), n, 7)
        est = ls_estimate(path)
        # numpy's pairwise sums err by up to about log2(n) eps times the sum
        # of |terms|, and the centred cross sum here cancels by up to about
        # 40, so the worst case is near 500 eps; rounding errors mostly
        # cancel, and these paths measure at most 13 eps.  The large
        # intercepts start far from the path's mean, so its spread stays
        # comparable to it.  The bound does not hold for a path whose mean
        # is many spreads away: the ratios' own condition number grows with
        # mean/spread, and a P1 path started at mean = 2e4 spreads measured 229 eps.
        bound = 256 * np.finfo(float).eps
        got = (est.delta1 / est.delta3, est.delta2 / est.delta3)
        for value, want in zip(got, exact_delta_ratios(path)):
            assert abs(value - want) <= bound * abs(want), (value, float(want))


# The fit of a path read from a file against the exact rational fit of its
# y (truth (0, 0), y its own innovations), within K eps s.  To first order in
# eps: xbar and ybar err by eps mean|x| and eps mean|y|; the centring errors
# multiply sum(x_c) = sum(y_c) = 0 and drop out of S_xy = sum(x_c y_c), which
# errs by eps sum|x_c y_c|, while S_xx errs by eps S_xx (pairwise sums err by
# up to log2(n) eps times the sum of |terms|, but rounding mostly cancels).
# So rho_hat = S_xy/S_xx errs by eps s with s = |rho_hat| + sum|x_c y_c|/S_xx,
# and mu_hat = ybar - rho_hat xbar by eps s with s = mean|y| + |rho_hat| mean|x|
# + |xbar| sum|x_c y_c|/S_xx.  Where the path grows (P2, P6) ybar and
# rho_hat xbar are far larger than mu_hat and cancel, so mu_hat keeps only
# eps s/|mu_hat| of relative precision (2.8e-7 under P6 at n = 400): the fit's
# conditioning, not a defect.  These cells measure K up to 0.98 on mu_hat and
# 1.46 on rho_hat.
@pytest.mark.parametrize("regime", [
    Regime("P1", rho=0.5), Regime("P1", rho=-0.9), Regime("P2", rho=1.2), Regime("P2", rho=-1.5),
    Regime("P3"), Regime("P4", c=2.0), Regime("P4", c=-2.0), Regime("P5", c=-1.0, alpha=0.5),
    Regime("P6", c=1.0, alpha=0.5),
], ids=["P1-0.5", "P1--0.9", "P2-1.2", "P2--1.5", "P3", "P4-2", "P4--2", "P5", "P6"])
def test_estimates_within_their_rounding_of_the_exact_fit(regime):
    for n in (60, 400):
        for model in ("gaussian", "uniform", "rademacher", "pareto2"):
            for seed in range(40):
                path = simulate_path(regime, 1.0, 0.5, InnovationModel(model), n, seed)
                assert_fit_within_rounding(path, (n, model, seed))


def test_explosive_path_fits_within_its_rounding():
    # ybar * S_xx (about 6e104 * 2e215) overflows here although the fit is
    # finite: ls_estimate fits y scaled by 2^-k (k = 357), and its fit is
    # within the same K eps s of the exact one (K 0.23 on mu_hat, whose
    # exact value -3.1e87 is below eps s_mu = 4.2e89, the fit's conditioning
    # as above, and 0.93 on rho_hat).
    path = simulate_path(Regime("P2", rho=1.05), 1.0, 0.0, InnovationModel("gaussian"), 5000, 7)
    assert_fit_within_rounding(path, "P2-1.05")


def assert_fit_within_rounding(path, label):
    """ls_estimate of ``path`` lies within K eps s of the exact rational fit of its y."""
    K, eps = 8, np.finfo(float).eps
    est, x = ls_estimate(path), lagged(path)
    mu_hat, rho_hat = exact_delta_ratios(Ar1Path(0.0, 0.0, path.y0, path.y, path.y))
    xc, yc = x - x.mean(), path.y - path.y.mean()
    spread = np.sum(np.abs(xc * yc)) / np.sum(xc * xc)
    s_mu = np.mean(np.abs(path.y)) + abs(est.rho_hat) * np.mean(np.abs(x)) + abs(x.mean()) * spread
    s_rho = abs(est.rho_hat) + spread
    assert abs(Fraction(est.mu_hat) - mu_hat) <= K * eps * s_mu, label
    assert abs(Fraction(est.rho_hat) - rho_hat) <= K * eps * s_rho, label


# Chunks as the block engine makes them: y is the view path[:, 1:] of a
# path buffer whose column 0 holds y0, and the lanes of the recursion's plan
# (padded to whole blocks of 700 terms at rho = 0.5 from n = 2001, of 4605
# at -0.9 at n = 5000) take the centred lagged series.
def engine_chunk(regime, n, rows):
    """(path buffer, innovations) of replications 0..rows-1 at size ``n`` of
    a pareto2 experiment (mu 1, y0 0.5, seed 7), each path built on its own
    by paper_lemmas.reference_path."""
    config = SimpleNamespace(regime=regime, model=InnovationModel("pareto2"), mu=1.0, y0=0.5, seed=7)
    paths = [reference_path(config, n, r) for r in range(rows)]
    buffer = np.empty((rows, n + 1))
    buffer[:, 0], buffer[:, 1:] = 0.5, [path.y for path in paths]
    return buffer, np.array([path.e for path in paths])


@pytest.mark.parametrize("n", [600, 2001, 4096, 5000])
@pytest.mark.parametrize("regime", [Regime("P1", rho=0.5), Regime("P1", rho=-0.9),
                                    Regime("P2", rho=1.05), Regime("P3")],
                         ids=["P1-0.5", "P1--0.9", "P2", "P3"])
@pytest.mark.parametrize("bufsize", [8192, 1024])
def test_chunk_stage_consumes_only_y_for_the_same_bits(regime, n, bufsize):
    # ls_deltas consumes y and only reads its innovations, and every row's
    # Deltas keep their bits, NaN too, between the block engine's ufunc
    # buffer and the default one of ls_estimate on that row alone.  Singular
    # rows (a constant lagged series first and last, one whose spread is
    # below the guard's floor between) leave the other rows as they are.
    path, e = engine_chunk(regime, n, _CHUNK_ELEMENTS // n)
    marked = [0, len(e) // 2, len(e) - 1]
    path[marked, 1:] = 0.5
    path[marked[1], 1:] += 1e-9 * e[marked[1]]
    kept = path.copy(), e.copy()
    outer = np.setbufsize(bufsize)
    try:
        deltas = ls_deltas(path, e, block_plan(resolve_rho(regime, n), n, len(e))[-1])
    finally:
        np.setbufsize(outer)
    assert np.array_equal(e.view(np.int64), kept[1].view(np.int64))
    assert np.flatnonzero(deltas[3]).tolist() == marked
    assert_rows_alone(deltas, *kept)


def assert_rows_alone(deltas, path, e):
    """Row i of ``deltas``, ls_deltas' (Delta1, Delta2, Delta3, singular)
    over a block of ``path`` (rows, n + 1) and ``e``, is what ls_estimate
    gives for path i alone: the same Deltas as floats, bit for bit, or a
    refusal, SingularDesignError for a singular row (whose Delta1 and
    Delta2 are NaN) and OverflowError for a row with a Delta that is not
    finite.  ls_estimate leaves the path's y and e as they were."""
    for i, (row, fields, singular) in enumerate(zip(path, np.transpose(deltas[:3]), deltas[3])):
        alone = Ar1Path(math.nan, math.nan, row[0], row[1:].copy(), e[i].copy())
        if singular:
            assert np.all(np.isnan(fields[:2])), i
            with pytest.raises(SingularDesignError):
                ls_estimate(alone)
        elif not np.all(np.isfinite(fields)):
            with pytest.raises(OverflowError):
                ls_estimate(alone)
        else:
            est = dataclasses.astuple(ls_estimate(alone))
            assert all(type(field) is float for field in est), i
            assert np.array(est[2:]).tobytes() == fields.tobytes(), i
        assert (alone.y.tobytes(), alone.e.tobytes()) == (row[1:].tobytes(), e[i].tobytes())


def test_block_refused_for_an_overflow_in_its_last_row():
    # ls_deltas refuses a block once, after the sums of all of its rows: a
    # block whose only overflowing row is its last is refused, and its other
    # rows alone are not.
    path, e = engine_chunk(Regime("P1", rho=0.5), 600, 3)
    path[-1, 1:] *= 1e155
    ls_deltas(path[:-1].copy(), e[:-1], np.empty(e[:-1].size))  # not refused
    with pytest.raises(OverflowError,
                       match="^sums of squares of the lagged series overflow double precision$"):
        ls_deltas(path, e, np.empty(e.size))


def guard_decisions(x):
    """ls_deltas' (overflow, singular) on the lagged series ``x`` of one path."""
    path = np.append(x, 0.0)[np.newaxis]  # y_n is not a regressor
    try:
        return False, bool(ls_deltas(path, np.zeros((1, x.size)), np.empty(x.size))[3][0])
    except OverflowError:
        return True, None


def raw_guard_decisions(x):
    """The same decisions from the raw sum of squares of ``x``."""
    with np.errstate(over="ignore", invalid="ignore"):
        sum_sq = np.sum(x * x)
        delta3 = x.size * np.sum((x - np.mean(x)) ** 2)
    if not (np.isfinite(delta3) and np.isfinite(sum_sq)):
        return True, None
    return False, bool(delta3 <= _SINGULAR_EPS * x.size * sum_sq)


class TestSingularGuard:
    """ls_deltas derives the guard's sum(x^2) as sum((x - xbar)^2) + n*xbar^2;
    each path's singular and overflow decisions are those of the raw sum."""

    @staticmethod
    def decisions(rows):
        got = [guard_decisions(x) for x in rows]
        assert got == [raw_guard_decisions(x) for x in rows]
        return got

    def test_random_rows_across_the_threshold(self):
        # spread/mean from 1e-8 to 1e-4: singular below about 1e-6
        rng = np.random.default_rng(5)
        for n in (2, 3, 50, 777):
            mean = rng.normal(0.0, 10.0, (400, 1))
            spread = np.abs(mean) * 10.0 ** rng.uniform(-8.0, -4.0, (400, 1))
            singular = [s for _, s in self.decisions(mean + spread * rng.standard_normal((400, n)))]
            assert 0 < sum(singular) < len(singular)  # both sides are reached

    def test_near_constant_rows(self):
        # sigma = 1e-100 vanishes next to 2 but not next to 1e-93, where the
        # rows are singular with a nonzero centred sum; around 0 they are not
        rng = np.random.default_rng(6)
        for mean in (2.0, 1e-93, -3e-94, 0.0):
            got = self.decisions(mean + 1e-100 * rng.standard_normal((50, 200)))
            assert got == [(False, mean != 0.0)] * 50

    def test_rows_near_the_overflow_edge(self):
        # x^2 near 1e308: the sums overflow for some rows and not for others
        rng = np.random.default_rng(7)
        for n in (2, 3, 10):
            x = 1e154 * rng.uniform(0.05, 1.5, (300, 1)) * rng.uniform(-1.0, 1.0, (300, n))
            overflows = [o for o, _ in self.decisions(x)]
            assert 0 < sum(overflows) < len(overflows)


class TestEquivariance:
    @given(
        shift=st.floats(-50.0, 50.0),
        rho=st.floats(-0.9, 0.9),
        seed=st.integers(0, 2 ** 31),
    )
    def test_shift(self, shift, rho, seed):
        path = simulate_path(Regime("P1", rho=rho), 1.0, 0.0, InnovationModel("gaussian", 1.0), 100,
                             seed)
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
        path = simulate_path(Regime("P1", rho=rho), 1.0, 0.5, InnovationModel("gaussian", 1.0), 100,
                             seed)
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
        rates = error_rates(Regime("P1", rho=0.5), InnovationModel("rademacher"), 100)
        assert rates == (10.0, 10.0)

    def test_finite_variance_reads_sigma_squared(self):
        # b_100 sits on its floor 2 for gaussian sigma = 100, where l(b_100)
        # is about 2.1e-6 sigma^2; the rate reads sigma^2 itself.
        rates = error_rates(Regime("P1", rho=0.5), InnovationModel("gaussian", 100.0), 100)
        assert rates == (0.1, 10.0)

    def test_explosive_rate(self):
        mu_rate, rho_rate = error_rates(Regime("P2", rho=1.2), InnovationModel("rademacher"), 60)
        assert mu_rate == pytest.approx(math.sqrt(60.0))
        assert rho_rate == pytest.approx(1.2 ** 60)

    def test_unit_root_rate(self):
        mu_rate, rho_rate = error_rates(Regime("P3"), InnovationModel("rademacher"), 400)
        assert mu_rate == pytest.approx(20.0)
        assert rho_rate == pytest.approx(8000.0)

    def test_moderately_explosive_rate(self):
        mu_rate, rho_rate = error_rates(Regime("P6", c=1.0, alpha=0.5),
                                        InnovationModel("rademacher"), 400)
        assert mu_rate == pytest.approx(20.0)
        assert rho_rate == pytest.approx(math.sqrt(400.0 ** 1.5) * 1.05 ** 400, rel=1e-12)

    def test_moderately_stationary_finite_variance(self):
        # finite-variance factor n^(max(alpha,1/2) - alpha/2)
        n = 4096
        mu_rate, rho_rate = error_rates(Regime("P5", c=-1.0, alpha=0.25),
                                        InnovationModel("rademacher"), n)
        assert mu_rate == pytest.approx(n ** 0.375, rel=1e-12)
        assert rho_rate == pytest.approx(n ** 0.625, rel=1e-12)
        mu_rate, _ = error_rates(Regime("P5", c=-1.0, alpha=0.75), InnovationModel("rademacher"), n)
        assert mu_rate == pytest.approx(n ** 0.375, rel=1e-12)

    def test_moderately_stationary_infinite_variance(self):
        n = 10_000
        model = InnovationModel("pareto2")
        ell = 2.0 * math.log(compute_bn(model, n))
        mu_rate, rho_rate = error_rates(Regime("P5", c=-1.0, alpha=0.75), model, n)
        assert mu_rate == pytest.approx(math.sqrt(n ** 0.75 / ell), rel=1e-9)
        assert rho_rate == pytest.approx(mu_rate * n ** 0.75, rel=1e-9)
        mu_rate, _ = error_rates(Regime("P5", c=-1.0, alpha=0.25), model, n)
        assert mu_rate == pytest.approx(math.sqrt(n ** 0.75), rel=1e-12)  # no l(b_n)

    def test_moderately_stationary_infinite_variance_at_half(self):
        # alpha = 1/2 takes the branch without l(b_n): a_n = n^(1/4), the
        # rate the variance-only factor of the limit law is scaled for
        mu_rate, rho_rate = error_rates(Regime("P5", c=-1.0, alpha=0.5), InnovationModel("pareto2"),
                                        10_000)
        assert mu_rate == pytest.approx(10.0, rel=1e-12)
        assert rho_rate == pytest.approx(1000.0, rel=1e-12)

    @pytest.mark.parametrize("regime", [
        Regime("P5", c=-1.0, alpha=alpha) for alpha in (0.25, 0.4999, 0.5, 0.5001, 0.75)
    ] + [Regime("P1", rho=0.5), Regime("P2", rho=1.2), Regime("P3"), Regime("P6", c=1.0, alpha=0.5)],
        ids=lambda r: "-".join(str(v) for v in r.to_dict().values()))
    @pytest.mark.parametrize("model", [InnovationModel("gaussian", 2.0), InnovationModel("pareto2")],
                             ids=["finite", "infinite"])
    def test_rates_against_exact_decimal(self, regime, model):
        n = 3000
        # l(b_n) and P6's root rho_n are inputs of the rates, exact in Decimal
        ell, rho = ell_at_bn(model, n), resolve_rho(regime, n)
        with localcontext() as ctx:
            ctx.prec = 60
            n_, ell_ = Decimal(n), Decimal(ell)
            mu_rate = (n_ / ell_).sqrt()
            if regime.tag == "P1":
                rho_rate = n_.sqrt()
            elif regime.tag == "P2":
                rho_rate = Decimal(rho) ** n
            elif regime.tag == "P3":
                rho_rate = (n_ ** 3 / ell_).sqrt()
            elif regime.tag == "P6":
                rho_rate = (n_ ** (3 * Decimal(regime.alpha)) / ell_).sqrt() * Decimal(rho) ** n
            else:
                alpha = Decimal(regime.alpha)
                if model.variance is not None:  # n^(max(alpha, 1/2) - alpha/2)
                    mu_rate = n_ ** (max(alpha, Decimal("0.5")) - alpha / 2)
                elif alpha > Decimal("0.5"):
                    mu_rate = (n_ ** alpha / ell_).sqrt()
                else:
                    mu_rate = (n_ ** (1 - alpha)).sqrt()
                rho_rate = mu_rate * n_ ** alpha
        # One pow (within 1 ulp), a square root and at most three products or
        # quotients, plus the rounding of an exponent such as 0.5 - alpha/2,
        # which ln(n) = 8 turns into at most 2 eps.
        bound = Decimal(8 * np.finfo(float).eps)
        for value, want in zip(error_rates(regime, model, n), (mu_rate, rho_rate)):
            assert abs(Decimal(value) - want) <= bound * want, (value, want)

    def test_scale_error_matches_subtraction_when_well_conditioned(self):
        reg = Regime("P1", rho=0.5)
        cfg = ExperimentConfig(regime=reg, model=InnovationModel("gaussian", 1.0), mu=1.0,
                               n_list=(500,), replications=100, limit_draws=1000,
                               seed=21)
        report = run_experiment(cfg)
        block, rows = report.per_n[0], report.rows[0]
        assert block["singular"] == 0
        assert np.allclose(rows[:, 2], block["mu_rate"] * (rows[:, 0] - 1.0),
                           rtol=1e-9, atol=0)
        assert np.allclose(rows[:, 3], block["rho_rate"] * (rows[:, 1] - 0.5),
                           rtol=1e-9, atol=0)

    def test_scale_error_resolves_below_ulp(self):
        # moderately explosive: the error is ~1e-22 while ulp(rho_hat) ~ 2e-16;
        # the decomposition must still produce O(1) scaled errors
        reg = Regime("P6", c=1.0, alpha=0.5)
        cfg = ExperimentConfig(regime=reg, model=InnovationModel("gaussian", 1.0), mu=2.0,
                               n_list=(2000,), replications=100, limit_draws=1000,
                               seed=77)
        report = run_experiment(cfg)
        rho_hat, scaled_rho = report.rows[0, :, 1], report.rows[0, :, 3]
        err = np.abs(scaled_rho / report.per_n[0]["rho_rate"])
        assert np.all(err < 1e-3 * np.spacing(rho_hat))
        assert np.all(np.abs(scaled_rho) < 50.0)
        assert np.all(np.abs(scaled_rho) > 1e-6)
