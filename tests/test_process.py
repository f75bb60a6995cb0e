import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import lfilter

from ar1mc.innovations import ConfigError, InnovationModel, sample_innovations
from ar1mc.montecarlo import _replicate_block
from ar1mc.process import Ar1Path, Regime, block_plan, recurse_rows, resolve_rho, simulate_path
from paper_lemmas import companion_series, disc_path, lagged, refit_residual, replication_reference


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
        dict(tag="P2", rho=1.0),           # the boundaries themselves
        dict(tag="P2", rho=-1.0),
        dict(tag="P5", c=0.0, alpha=0.5),
        dict(tag="P5", c=-1.0, alpha=0.0),
        dict(tag="P6", c=0.0, alpha=0.5),
        dict(tag="P6", c=1.0, alpha=1.0),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ConfigError):
            Regime(**bad)

    @pytest.mark.parametrize("cfg", [
        {"tag": "P1", "rho": 0.5},
        {"tag": "P2", "rho": -1.5},
        {"tag": "P3"},
        {"tag": "P4", "c": -2.0},
        {"tag": "P5", "c": -1.0, "alpha": 0.5},
        {"tag": "P6", "c": 1.0, "alpha": 0.5},
    ], ids=lambda cfg: cfg["tag"])
    def test_config_round_trip(self, cfg):
        reg = Regime.from_dict(cfg)
        assert reg == Regime(**cfg)
        assert reg.to_dict() == cfg
        assert Regime.from_dict(reg.to_dict()) == reg

    @pytest.mark.parametrize("cfg", [
        {"tag": "P3", "rho": None, "c": None},
        {"tag": "P1", "rho": None},
        {"tag": "P5", "c": -1.0, "alpha": None},
        {"tag": None},
    ], ids=["P3-rho-c", "P1-rho", "P5-alpha", "tag"])
    def test_config_null_rejected(self, cfg):
        # a JSON null is a value, not a missing key
        with pytest.raises(ConfigError, match="null"):
            Regime.from_dict(cfg)


class TestSimulate:
    def test_null_dynamics(self):
        y = recurse_rows(0.0, 0.3, 0.0, np.zeros((1, 5)))[0]
        assert np.all(y == 0.0)

    def test_fixed_point(self):
        # mu/(1-rho) = 2 is invariant under the noiseless recursion
        y = recurse_rows(1.0, 0.5, 2.0, np.zeros((1, 3)))[0]
        assert np.allclose(y, [2.0, 2.0, 2.0], rtol=0, atol=0)

    def test_explosive_hand_recursion(self):
        y = recurse_rows(1.0, 2.0, 0.0, np.zeros((1, 3)))[0]
        assert np.allclose(y, [1.0, 3.0, 7.0], rtol=1e-15)

    def test_disc_overflow_refusal_needs_a_full_block(self):
        # At rho = 0.5 a block holds L = 700 terms and weights mu + e by up to
        # 2^350, which overflows at |mu| = 1e250; a path of 100 terms is one
        # block weighted by at most 2^50, so the same mu gives its exact path.
        y = recurse_rows(1e250, 0.5, 0.0, np.zeros((1, 100)))[0]
        assert y[-1] == pytest.approx(2e250 * (1.0 - 0.5 ** 100), rel=1e-13)
        with pytest.raises(OverflowError):
            recurse_rows(1e250, 0.5, 0.0, np.zeros((1, 2000)))

    @pytest.mark.parametrize("regime", [
        Regime("P1", rho=0.5), Regime("P1", rho=-0.8), Regime("P2", rho=1.2),
        Regime("P2", rho=-1.3), Regime("P3"), Regime("P4", c=-2.0),
        Regime("P5", c=-1.0, alpha=0.25), Regime("P6", c=1.0, alpha=0.5),
    ], ids=lambda r: f"{r.tag}-{r.rho}" if r.rho is not None else r.tag)
    @pytest.mark.parametrize("model", [InnovationModel("gaussian", 1.0), InnovationModel("pareto2")],
                             ids=lambda m: m.id)
    def test_refit_identity(self, regime, model):
        path = simulate_path(regime, 1.0, 0.5, model, 500, 42)
        tol = 1e-10 * (1.0 + np.max(np.abs(path.y)))
        assert refit_residual(path) <= tol

    def test_same_seed_same_innovations_both_routes(self):
        # |rho| > 1 uses the closed-form construction; innovations must agree
        a = simulate_path(Regime("P2", rho=1.2), 1.0, 0.0, InnovationModel("gaussian", 1.0), 60, 9)
        b = simulate_path(Regime("P1", rho=0.5), 1.0, 0.0, InnovationModel("gaussian", 1.0), 60, 9)
        assert np.array_equal(a.e, b.e)

    def test_overflow_cap(self):
        with pytest.raises(OverflowError):
            simulate_path(Regime("P2", rho=2.0), 1.0, 0.0, InnovationModel("gaussian", 1.0), 2000, 1)

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ValueError):
            simulate_path(Regime("P3"), math.inf, 0.0, InnovationModel("gaussian", 1.0), 10, 1)
        with pytest.raises(ValueError):
            simulate_path(Regime("P3"), 0.0, math.nan, InnovationModel("gaussian", 1.0), 10, 1)
        with pytest.raises(ValueError):
            simulate_path(Regime("P3"), 0.0, 0.0, InnovationModel("gaussian", 1.0), 1, 1)

    def test_lagged_alignment(self):
        path = simulate_path(Regime("P3"), 1.0, 4.0, InnovationModel("gaussian", 1.0), 10, 2)
        lag = lagged(path)
        assert lag[0] == 4.0
        assert np.array_equal(lag[1:], path.y[:-1])

    def test_explosive_normalized_endpoint_spread_stabilizes(self):
        # |y_n| * rho^-n has comparable dispersion at n=25 and n=50
        rho, mu = 2.0, 1.0
        reg = Regime("P2", rho=rho)

        def spread(n, base):
            vals = [simulate_path(reg, mu, 0.0, InnovationModel("gaussian", 1.0), n, base + i).y[-1]
                    * rho ** -n for i in range(400)]
            return np.var(vals, ddof=1)

        v25, v50 = spread(25, 10_000), spread(50, 20_000)
        assert 0.2 <= v25 <= 0.5  # limit dispersion is 1/3 at these parameters
        assert 0.2 <= v50 <= 0.5


MU_Y0 = [(1.0, 0.5), (-0.3, -2.5), (7.25, 1e6), (1e-3, 3.1e-7)]
EPS = np.finfo(float).eps


def innovation_rows(model):
    """9 rows of n = 777 innovations, from seeds 0..8."""
    return np.stack([sample_innovations(model, 777, seed) for seed in range(9)])


def assert_recursion_equals_lfilter(rho, mu, y0, model):
    """recurse_rows equals public lfilter bit for bit on 9 rows of n=777,
    and leaves the innovations unchanged."""
    e = innovation_rows(model)
    before = e.copy()
    ours = recurse_rows(mu, rho, y0, e)
    ref, _ = lfilter([1.0], [1.0, -rho], mu + e, axis=1, zi=np.full((9, 1), rho * y0))
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))
    assert np.array_equal(e, before)


# The exact oracle holds y_t as an integer multiple of 2^-_BITS, exact for
# every float input here (none has bits below 2^-1074); its one rounding per
# step, the floor of rho*y_{t-1}, is below 2^-1200.
_BITS = 1200


def _fixed(v: float) -> int:
    num, den = v.as_integer_ratio()  # den is a power of two up to 2^1074
    return (num << _BITS) // den


def exact_errors(rho, x, y0, *paths):
    """|path_t - y_t| for each of ``paths``, with y_t = x_t + rho*y_{t-1}
    from y0 run exactly on each row of ``x``.  y_t is rounded to the float
    y_f, and path - y_f (exact for nearby floats) is corrected by y_t - y_f."""
    num, den = rho.as_integer_ratio()
    nearest, residual = np.empty(x.shape), np.empty(x.shape)
    for row, values in enumerate(x.tolist()):
        y = _fixed(y0)
        for t, v in enumerate(values):
            y = _fixed(v) + num * y // den
            nearest[row, t] = y_f = y / (1 << _BITS)  # int division rounds correctly
            residual[row, t] = (y - _fixed(y_f)) / (1 << _BITS)
    return [np.abs(path - nearest - residual) for path in paths]


class TestUnitRootRecursion:
    """At rho = 1 recurse_rows runs the running sum, which is lfilter's own
    sum; elsewhere in the unit disc its closed form is as accurate as
    lfilter, against an exact oracle."""

    @pytest.mark.parametrize("mu, y0", MU_Y0)
    @pytest.mark.parametrize("model", [InnovationModel("gaussian", 1.0), InnovationModel("pareto2")],
                             ids=lambda m: m.id)
    def test_running_sum_equals_lfilter(self, mu, y0, model):
        assert_recursion_equals_lfilter(1.0, mu, y0, model)

    @pytest.mark.parametrize("rho", [0.5, -0.5, 0.2, 0.0, 1e-300, -1e-300, 0.999, 1 - 3 / 50, -1.0])
    @pytest.mark.parametrize("mu, y0", MU_Y0)
    @pytest.mark.parametrize("model", [InnovationModel("gaussian", 1.0), InnovationModel("pareto2")],
                             ids=lambda m: m.id)
    def test_closed_form_as_accurate_as_lfilter(self, rho, mu, y0, model):
        # Errors in units of eps*s_t, s_t = |rho|^t |y0| + sum_i |rho|^(t-i) (|mu| + |e_i|),
        # the scale that bounds lfilter's own rounding; an ulp of y_t would
        # measure the cancellation in mu + e near y_t = 0, which neither form
        # controls.  At rho = 0 both must return mu + e exactly.
        e = innovation_rows(model)
        before = e.copy()
        ours = recurse_rows(mu, rho, y0, e)
        assert np.array_equal(e, before)
        zi = np.full((len(e), 1), rho * y0)
        kernel, _ = lfilter([1.0], [1.0, -rho], mu + e, axis=1, zi=zi)
        scale, _ = lfilter([1.0], [1.0, -abs(rho)], abs(mu) + np.abs(e), axis=1, zi=np.abs(zi))
        ours, kernel = (err / (EPS * scale) for err in exact_errors(rho, mu + e, y0, ours, kernel))
        assert np.all(np.isfinite(ours))
        assert np.median(ours) <= 2.5 * np.median(kernel)
        assert np.max(ours) <= 2.5 * np.max(kernel)

    # At rho = -2^-350.5 (one term per block) y0 = 1e308 still moves the
    # fourth term by about 2^-28, so the carries need more than one sweep.
    @pytest.mark.parametrize("rho", [0.5, -0.5, 0.2, 0.0, -1e-300, -2.0 ** -350.5, -1.0])
    @pytest.mark.parametrize("mu, y0", [(-0.3, -2.5), (0.0, 1e308)])
    def test_rows_equal_one_path_reference(self, rho, mu, y0):
        # blocks, padding, carries and signed powers as a 1-D path has them
        e = innovation_rows(InnovationModel("pareto2"))
        ours = recurse_rows(mu, rho, y0, e)
        for row, e_row in zip(ours, e):
            assert np.array_equal(row, disc_path(mu + e_row, rho, y0))

    @pytest.mark.parametrize("rho", [0.5, -0.5, 0.2])
    @pytest.mark.parametrize("mu", [1e98, 1e200, -1e200])
    def test_large_mean_inside_double_range(self, rho, mu):
        # mu + e reaches the block weights, which stay within 2^+-350
        e = innovation_rows(InnovationModel("gaussian", 1.0))
        ours = recurse_rows(mu, rho, 0.0, e)
        kernel = lfilter([1.0], [1.0, -rho], mu + e, axis=1)
        assert np.all(np.abs(ours - kernel) <= 4 * EPS * abs(mu) / (1 - abs(rho)))


class TestBlockPlans:
    """block_plan makes a fresh plan per call; a replication block reuses one
    across its chunks, so a warm plan holds the last chunk's lanes."""

    def test_plans_share_no_memory(self):
        n, rows = 2000, 5
        first, second = block_plan(0.5, n, rows), block_plan(0.5, n, rows)
        size, blocks, lead, p, w, lanes = first
        assert blocks == -(-n // size) and lead == 0.5 ** ((size + 1) // 2)
        assert p.shape == w.shape == (n,) and lanes.shape == (3, blocks, size, 2)
        for ours, theirs in zip(first[3:], second[3:]):
            assert not np.shares_memory(ours, theirs)
        assert np.array_equal(p, second[3]) and np.array_equal(w, second[4])

    @pytest.mark.parametrize("rho", [0.5, -0.9, 1.2])
    def test_warm_calls_equal_cold_calls(self, rho):
        # a full chunk, then a shorter odd one, as a block's last chunk can be
        e = innovation_rows(InnovationModel("pareto2"))
        plan = block_plan(rho, e.shape[1], len(e))
        for rows in (len(e), 5):
            cold = recurse_rows(1.0, rho, 0.5, e[:rows])
            warm = recurse_rows(1.0, rho, 0.5, e[:rows], plan=plan)
            assert np.array_equal(warm.view(np.int64), cold.view(np.int64))


def test_a_dropped_path_leaves_no_plan_behind():
    # A path's block plan (p and w tiled to n, 16 bytes a step) lives only
    # as long as the call that made it: once the path is dropped, the
    # process keeps far less than one path's 8n bytes.
    regime, model, n = Regime("P1", rho=0.5), InnovationModel("pareto2"), 10**6
    simulate_path(regime, 1.0, 0.0, model, 1000, 1)  # imports what a first path needs
    tracemalloc.start()
    try:
        path = simulate_path(regime, 1.0, 0.0, model, n, 1)
        assert path.n == n
        del path
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 8 * n // 4, kept


class TestRowPairs:
    """recurse_rows runs row 2i + k in lane k of pair i of a complex128 view;
    each lane is its row alone, bit for bit, and the lanes it does not fill
    from a row (an odd count's spare lane, the last block's pad) it clears."""

    @staticmethod
    def nan_plan(rho, n, rows):
        plan = block_plan(rho, n, rows)
        plan[-1].fill(np.nan)
        return plan

    # rho = 0.5 runs three blocks of 700 terms at n = 2001, the last padded.
    @pytest.mark.parametrize("rho", [1.0, 0.5, 0.0, -0.9, 0.999, 1.2, -1.5])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 33])
    def test_each_row_equals_its_one_row_call(self, rho, rows):
        n = 2001 if rho == 0.5 else 777
        e = np.stack([sample_innovations(InnovationModel("pareto2"), n, seed) for seed in range(rows)])
        alone = []
        for row in e:
            plan = self.nan_plan(rho, n, 1)
            alone.append(recurse_rows(1.0, rho, 0.5, row[np.newaxis], plan=plan)[0].copy())
            assert not np.isnan(plan[-1]).any()
        plan, path = self.nan_plan(rho, n, rows), np.full((rows, n + 1), np.nan)
        y = recurse_rows(1.0, rho, 0.5, e, path, plan)
        assert not np.isnan(plan[-1]).any()
        assert np.shares_memory(y, path) and np.all(path[:, 0] == 0.5)
        assert np.array_equal(y.view(np.int64), np.array(alone).view(np.int64))

    @pytest.mark.parametrize("rho", [1.0, 0.5, 1.2])
    def test_short_chunk_in_a_larger_buffer(self, rho):
        # a block's last chunk reuses the first one's buffers: 5 of 32 rows
        n = 2000
        e = np.stack([sample_innovations(InnovationModel("gaussian", 1.0), n, s) for s in range(5)])
        want = recurse_rows(-0.3, rho, 2.5, e)
        plan, path = self.nan_plan(rho, n, 32), np.full((32, n + 1), np.nan)
        got = recurse_rows(-0.3, rho, 2.5, e, path, plan)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not np.isnan(plan[-1][:3]).any()

    @pytest.mark.parametrize("regime", [Regime("P1", rho=0.5), Regime("P3"), Regime("P2", rho=-1.05)],
                             ids=lambda r: r.tag)
    def test_block_with_an_odd_last_chunk(self, regime):
        # 37 replications at n = 2000: chunks of 32 and then 5 rows
        config = SimpleNamespace(model=InnovationModel("pareto2"), seed=7, regime=regime, mu=1.0, y0=0.5)
        rho = resolve_rho(regime, 2000)
        got = _replicate_block((rho, 1.0, 0.5, config.model, 2000, 7, 0, 37))
        want = np.array([replication_reference(config, 2000, r) for r in range(37)])
        assert np.array_equal(got[:, :4], want, equal_nan=True)
        assert not got[:, 4].any()


class TestCompanions:
    def test_centered_equals_y_when_mu_zero(self):
        path = simulate_path(Regime("P1", rho=0.5), 0.0, 1.0, InnovationModel("gaussian", 1.0), 50, 3)
        assert np.array_equal(companion_series(path, "centered"), path.y)

    def test_centered_elementwise_oracle(self):
        path = simulate_path(Regime("P1", rho=0.4), 2.0, 0.0, InnovationModel("gaussian", 1.0), 200, 5)
        expect = path.y - 2.0 / (1.0 - 0.4)
        assert np.allclose(companion_series(path, "centered"), expect, rtol=0, atol=1e-12)

    def test_centered_rejected_at_unit_root(self):
        path = simulate_path(Regime("P3"), 1.0, 0.0, InnovationModel("gaussian", 1.0), 50, 3)
        with pytest.raises(ValueError):
            companion_series(path, "centered")

    def test_tilde_explosive_pure_growth(self):
        y = recurse_rows(5.0, 2.0, 1.0, np.zeros((1, 3)))[0]
        path = Ar1Path(mu=5.0, rho=2.0, y0=1.0, y=y, e=np.zeros(3))
        assert np.allclose(companion_series(path, "tilde_explosive"), [2.0, 4.0, 8.0], rtol=1e-14)

    def test_tilde_recursions(self):
        for reg in (Regime("P1", rho=0.6), Regime("P2", rho=1.3), Regime("P4", c=1.0)):
            path = simulate_path(reg, 1.0, 0.7, InnovationModel("gaussian", 1.0), 40, 11)
            scale = 1.0 + np.max(np.abs(path.y))
            for kind, init in (("tilde_explosive", path.y0), ("tilde_unit", 0.0)):
                series = companion_series(path, kind)
                prev = np.concatenate(([init], series[:-1]))
                assert np.max(np.abs(series - path.rho * prev - path.e)) <= 1e-10 * scale

    def test_path_decomposes_into_drift_plus_tilde(self):
        # y_t = mu * sum_{j<t} rho^j + tilde_explosive_t
        for reg in (Regime("P2", rho=1.5), Regime("P4", c=2.0)):
            path = simulate_path(reg, 3.0, 0.6, InnovationModel("gaussian", 1.0), 30, 13)
            t = np.arange(1, 31)
            growth = (path.rho ** t - 1.0) / (path.rho - 1.0)
            rebuilt = 3.0 * growth + companion_series(path, "tilde_explosive")
            assert np.allclose(rebuilt, path.y, rtol=1e-10)

    def test_unknown_kind_rejected(self):
        path = simulate_path(Regime("P3"), 1.0, 0.0, InnovationModel("gaussian", 1.0), 10, 1)
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
    path = simulate_path(Regime("P1", rho=rho), mu, y0, InnovationModel("gaussian", 1.0), 64, seed)
    centered = companion_series(path, "centered")
    prev = np.concatenate(([y0 - mu / (1.0 - rho)], centered[:-1]))
    resid = np.max(np.abs(centered - rho * prev - path.e))
    assert resid <= 1e-9 * (1.0 + np.max(np.abs(path.y)))
