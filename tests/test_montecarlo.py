import dataclasses
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ar1mc.cli import main
from ar1mc.innovations import InnovationModel
from ar1mc.limits import error_rates
from ar1mc.montecarlo import (
    ConfigError,
    ExperimentConfig,
    _rmse,
    ks_two_sample,
    rate_slope,
    run_experiment,
    summarize,
)
from ar1mc.process import Regime, simulate_path
from paper_lemmas import (
    exact_delta_ratios,
    normalized_stationary_sums,
    normalized_tilde_sums,
    reference_path,
    replication_reference,
    sample_time_changed_functionals,
)


def small_config(**overrides):
    base = dict(
        regime=Regime("P1", rho=0.5),
        model=InnovationModel("gaussian", 1.0),
        mu=1.0,
        n_list=(100,),
        replications=120,
        limit_draws=2000,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Fuzzed configs: a valid config with a few keys replaced by anything JSON
# can hold (NaN and infinities included, as Python's json module reads
# them), by numbers of every kind, or by near-valid regime/model records.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
NUMBERS = st.integers(-10**400, 10**400) | st.floats() | st.booleans() | st.text(max_size=4)
RECORDS = st.fixed_dictionaries(
    {"tag": st.sampled_from(["P1", "P2", "P3", "P4", "P5", "P6", "P7"])},
    optional={"rho": NUMBERS, "c": NUMBERS, "alpha": NUMBERS},
) | st.fixed_dictionaries(
    {"id": st.sampled_from(["gaussian", "uniform", "rademacher", "pareto2", "cauchy"])},
    optional={"sigma": NUMBERS},
)
ANY_VALUE = JSON_VALUES | NUMBERS | RECORDS | st.lists(NUMBERS, max_size=3)
VALID_FIELDS = {
    "regime": st.sampled_from([{"tag": "P1", "rho": -0.5}, {"tag": "P2", "rho": 2},
                               {"tag": "P3"}, {"tag": "P5", "c": -1.0, "alpha": 0.5}]),
    "model": st.sampled_from([{"id": "gaussian"}, {"id": "uniform", "sigma": 2},
                              {"id": "pareto2"}]),
    "mu": st.integers(-5, 5) | st.floats(-1e300, 1e300),
    "n_list": st.lists(st.integers(50, 10**6), min_size=1, max_size=4, unique=True),
    "replications": st.integers(100, 10**6),
    "limit_draws": st.integers(1000, 10**7),
}
FIELDS = [field.name for field in dataclasses.fields(ExperimentConfig)]
VALID_JSON = st.fixed_dictionaries(
    {**VALID_FIELDS, "seed": st.integers(0, 2**70)},
    optional={"y0": VALID_FIELDS["mu"], "grid_m": JSON_VALUES},
)


def fuzzed(valid, keys):
    """``valid`` with up to two of ``keys`` replaced or added."""
    overrides = st.dictionaries(st.sampled_from(keys), ANY_VALUE, max_size=2)
    return st.tuples(valid, overrides).map(lambda pair: {**pair[0], **pair[1]})


class TestKs:
    def test_identical_samples(self):
        a = np.array([0.3, -1.0, 2.2, 0.3])
        assert ks_two_sample(a, a) == 0.0

    def test_disjoint_supports(self):
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_hand_enumerated(self):
        # pooled ECDF steps: sup gap 0.5 at x in [1, 1.5) and [2, 3)
        assert ks_two_sample([1.0, 2.0], [1.5, 3.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    @given(
        a=st.lists(st.floats(-50, 50), min_size=1, max_size=60),
        b=st.lists(st.floats(-50, 50), min_size=1, max_size=60),
    )
    def test_matches_scipy(self, a, b):
        ours = ks_two_sample(a, b)
        # Only the statistic is compared, and the p-value's method does not set
        # it.  The exact p-value warns when it falls back to the asymptotic one,
        # and the asymptotic one divides by zero when both samples hold one value.
        with np.errstate(divide="ignore"):
            ref = stats.ks_2samp(np.asarray(a), np.asarray(b), method="asymp").statistic
        assert ours == pytest.approx(ref, abs=1e-12)
        assert 0.0 <= ours <= 1.0

    @settings(max_examples=300)
    @given(
        # few distinct values, so both samples are full of ties
        a=st.lists(st.integers(-6, 6) | st.floats(-3, 3), min_size=1, max_size=60),
        b=st.lists(st.integers(-6, 6) | st.floats(-3, 3), min_size=1, max_size=200),
    )
    def test_matches_pooled_formula(self, a, b):
        a = np.sort(np.asarray(a, dtype=float))
        b = np.sort(np.asarray(b, dtype=float))
        pooled = np.concatenate([a, b])
        fa = np.searchsorted(a, pooled, side="right") / a.size
        fb = np.searchsorted(b, pooled, side="right") / b.size
        expect = float(np.max(np.abs(fa - fb)))
        assert ks_two_sample(a, b) == expect
        assert ks_two_sample(b, a) == expect
        assert ks_two_sample(b[::-1], a) == expect


class TestRateSlope:
    def test_exact_half_power(self):
        ns = [100, 200, 400, 800]
        fit = rate_slope(ns, [n ** -0.5 for n in ns])
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["stderr"] == pytest.approx(0.0, abs=1e-10)

    def test_constant_absorbed(self):
        ns = [100, 300, 900]
        slope = rate_slope(ns, [7.3 * n ** -1.5 for n in ns])["slope"]
        assert slope == pytest.approx(-1.5, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        ns = np.array([50, 100, 200, 400, 800, 1600])
        rmse = np.exp(rng.normal(0, 0.3, ns.size)) * ns ** -0.7
        fit = rate_slope(ns, rmse)
        # independent oracle: solve the 2x2 normal equations directly
        x = np.log(ns)
        y = np.log(rmse)
        design = np.array([[len(x), x.sum()], [x.sum(), (x * x).sum()]])
        coef = np.linalg.solve(design, np.array([y.sum(), (x * y).sum()]))
        resid = y - coef[0] - coef[1] * x
        se_ref = math.sqrt(resid @ resid / (len(x) - 2) / ((x - x.mean()) @ (x - x.mean())))
        assert fit == {"slope": pytest.approx(coef[1], rel=1e-12),
                       "stderr": pytest.approx(se_ref, rel=1e-10)}

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rate_slope([100, 200], [0.1, 0.2])
        with pytest.raises(ValueError):
            rate_slope([100, 200, 300], [0.1, -0.2, 0.1])


class TestSummarize:
    def test_degenerate(self):
        s = summarize([1.0, 1.0, 1.0])
        assert s["mean"] == 1.0
        assert s["variance"] == 0.0
        assert s["count"] == 3

    def test_interpolated_median(self):
        assert summarize([1.0, 2.0, 3.0, 4.0])["q50"] == pytest.approx(2.5)

    def test_normal_upper_quantile(self):
        draws = np.random.default_rng(11).standard_normal(1_000_000)
        assert summarize(draws)["q95"] == pytest.approx(1.6449, abs=0.01)

    def test_variance_is_unbiased(self):
        assert summarize([1.0, 2.0, 4.0])["variance"] == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_quantiles_monotone(self, xs):
        s = summarize(xs)
        qs = [s[key] for key in ("q05", "q25", "q50", "q75", "q95")]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert s["count"] == len(xs)


class TestRmse:
    def test_trim_keeps_central_98_percent(self):
        # the 1% and 99% quantiles of 0..100 are 1 and 99
        err = np.arange(101.0)
        kept = np.arange(1.0, 100.0)
        assert _rmse(err, True) == pytest.approx(math.sqrt(np.mean(kept * kept)), rel=1e-14)
        assert _rmse(err, False) == pytest.approx(math.sqrt(np.mean(err * err)), rel=1e-14)


class TestConfig:
    def test_from_dict_round_trip(self):
        raw = {
            "regime": {"tag": "P5", "c": -1.0, "alpha": 0.5},
            "model": {"id": "pareto2"},
            "mu": 1.0,
            "y0": 0.5,
            "n_list": [100, 200],
            "replications": 150,
            "limit_draws": 1500,
            "seed": 42,
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.to_dict() == raw
        # the retired grid_m key still loads, and is ignored
        assert ExperimentConfig.from_dict({**raw, "grid_m": 2000}) == cfg
        # the field names are the JSON keys
        assert sorted(raw) == sorted(FIELDS)

    # The three config values are read by one rule, and each refusal is a
    # ConfigError that names the key at fault (the mapping, for a non-mapping).
    VALUES = [
        (ExperimentConfig, "experiment",
         {"regime": {"tag": "P3"}, "model": {"id": "pareto2"}, "mu": 1.0, "n_list": [100],
          "replications": 100, "limit_draws": 1000, "seed": 1, "y0": 0.0}),
        (Regime, "regime", {"tag": "P5", "c": -1.0, "alpha": 0.5}),
        (InnovationModel, "model", {"id": "uniform", "sigma": 2.0}),
    ]

    EACH_VALUE = pytest.mark.parametrize("kind, what, raw", VALUES,
                                         ids=[what for _, what, _ in VALUES])

    @EACH_VALUE
    def test_unknown_key_rejected(self, kind, what, raw):
        assert kind.from_dict(raw).to_dict() == raw
        with pytest.raises(ConfigError, match=f"unknown {what} config keys: \\['workersss'\\]"):
            kind.from_dict({**raw, "workersss": 4})

    @EACH_VALUE
    def test_missing_key_rejected(self, kind, what, raw):
        required = [f.name for f in dataclasses.fields(kind) if f.default is dataclasses.MISSING]
        assert required and set(required) <= set(raw)
        for key in required:
            with pytest.raises(ConfigError, match=f"missing {what} config keys: \\['{key}'\\]"):
                kind.from_dict({k: v for k, v in raw.items() if k != key})

    @EACH_VALUE
    def test_null_rejected(self, kind, what, raw):
        # a JSON null is a value, not a missing key, even where a field defaults to None
        for key in raw:
            with pytest.raises(ConfigError, match=f"{what} config key '{key}' must not be null"):
                kind.from_dict({**raw, key: None})

    @EACH_VALUE
    def test_non_mapping_rejected(self, kind, what, raw):
        for bad in ([], None, "x", 3, list(raw.items())):
            with pytest.raises(ConfigError, match=f"^{what} config must be a mapping$"):
                kind.from_dict(bad)

    @pytest.mark.parametrize("bad", [
        dict(replications=99),
        dict(limit_draws=999),
        dict(n_list=(49,)),
        dict(n_list=()),
        dict(n_list=(100, 100)),
        dict(seed=-1),
        dict(y0=math.nan),
        dict(mu=math.inf),
        dict(n_list=(100.7,)),
        dict(replications=100.5),
        dict(seed=True),
        dict(model={"id": "bogus"}),
        dict(model={"id": "gaussian", "sigma": 1.0}),  # a record, not a model
        dict(regime={"tag": "P1", "rho": 0.5}),
        dict(mu="1.0"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            small_config(**bad)

    def test_config_is_a_hashable_picklable_value(self):
        cfg = small_config()
        assert hash(cfg) == hash(small_config())
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        # the checked model cannot be changed behind the config's back
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.model.sigma = -3.0

    @settings(max_examples=200)
    @given(raw=fuzzed(VALID_JSON, sorted([*FIELDS, "grid_m"]) + ["workers", "truncation_M"]))
    def test_fuzzed_json_config_loads_or_is_refused(self, raw):
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ConfigError:
            return
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @settings(max_examples=200)
    @given(fields=fuzzed(
        st.fixed_dictionaries({
            **VALID_FIELDS,
            "regime": st.sampled_from([Regime("P1", rho=0.5), Regime("P6", c=1.0, alpha=0.5)]),
            "model": st.sampled_from([InnovationModel("gaussian", 1.0),
                                      InnovationModel("uniform", 2.0), InnovationModel("pareto2")]),
            "seed": st.integers(0, 2**70),
        }),
        FIELDS,
    ))
    def test_fuzzed_fields_raise_only_config_error(self, fields):
        try:
            cfg = ExperimentConfig(**fields)
        except ConfigError:
            return
        assert isinstance(cfg.mu, float) and math.isfinite(cfg.mu)
        assert all(type(n) is int and n >= 50 for n in cfg.n_list)

    def test_bad_regime_config_flagged(self):
        raw = {"regime": {"tag": "P5", "c": 1.0, "alpha": 0.5}, "model": {"id": "gaussian"},
               "mu": 1.0, "n_list": [100], "replications": 100, "limit_draws": 1000, "seed": 1}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


class TestRunExperiment:
    def test_deterministic_across_runs_and_workers(self):
        cfg = small_config(n_list=(100, 150), replications=260)
        a = run_experiment(cfg, workers=1).to_json()
        b = run_experiment(cfg, workers=3).to_json()
        c = run_experiment(cfg, workers=1).to_json()
        assert a == b == c

    def test_adding_sample_sizes_preserves_replications(self):
        a = run_experiment(small_config(n_list=(100,)))
        b = run_experiment(small_config(n_list=(100, 200)))
        assert np.array_equal(a.rows[0, :, 0], b.rows[0, :, 0])
        assert np.array_equal(a.rows[0, :, 1], b.rows[0, :, 1])

    def test_seed_changes_results(self):
        a = run_experiment(small_config(seed=1))
        b = run_experiment(small_config(seed=2))
        assert not np.array_equal(a.rows[0, :, 0], b.rows[0, :, 0])

    def test_json_structure(self, tmp_path, capsys):
        cfg = small_config(n_list=(100, 150))
        rep = run_experiment(cfg)
        doc = json.loads(rep.to_json())
        assert set(doc) == {"config", "per_n", "limit", "rate_fit"}
        assert rep.per_n == doc["per_n"]  # each block is the mapping written
        block = doc["per_n"][0]
        assert block["n"] == 100
        assert block["valid"] + block["singular"] == 120
        assert 0.0 <= block["ks_rho"] <= 1.0
        assert doc["rate_fit"] is None  # two sizes: no slope fit
        assert doc["limit"]["comp2"]["count"] == 2000
        assert rep.rows.shape == (2, 120, 5)
        # the rows array holds the mc --csv columns after n and r, as floats
        config, csv = tmp_path / "exp.json", tmp_path / "reps.csv"
        config.write_text(json.dumps(cfg.to_dict()))
        assert main(["mc", "--config", str(config), "--csv", str(csv)]) == 0
        capsys.readouterr()
        header, *lines = csv.read_text().splitlines()
        assert header == "n,r,mu_hat,rho_hat,scaled_mu,scaled_rho,singular"
        assert [tuple(map(float, line.split(","))) for line in lines] == [
            (n, r, *row) for n, block in zip(cfg.n_list, rep.rows.tolist())
            for r, row in enumerate(block)]

    @pytest.mark.parametrize("model, valid_sizes", [(InnovationModel("gaussian", 1.0), 2),
                                                    (InnovationModel("gaussian", 1e-100), 0)],
                             ids=["valid", "all-singular"])
    def test_ks_runs_through_its_module_name(self, monkeypatch, model, valid_sizes):
        # a wrapper on the module attribute (as the benchmark's tracer sets
        # one) sees both KS distances of each size with valid replications,
        # and the report does not move
        cfg = small_config(model=model, mu=1.0, y0=2.0, n_list=(100, 150))
        plain = run_experiment(cfg).to_json()
        calls = []

        def counted(a, b):
            calls.append(1)
            return ks_two_sample(a, b)

        monkeypatch.setattr("ar1mc.montecarlo.ks_two_sample", counted)
        assert run_experiment(cfg).to_json() == plain
        assert len(calls) == 2 * valid_sizes

    def test_degenerate_model_records_all_singular(self):
        # innovations of scale 1e-100 vanish against the fixed point
        # y0 = mu/(1-rho) = 2, so every lagged series is constant
        cfg = small_config(model=InnovationModel("gaussian", 1e-100), mu=1.0, y0=2.0,
                           regime=Regime("P1", rho=0.5))
        docs = []
        for workers in (1, 2):
            rep = run_experiment(cfg, workers=workers)
            block = rep.per_n[0]
            assert block["singular"] == 120 and block["valid"] == 0
            assert block["ks_rho"] is None and block["mu_rate"] is None
            docs.append(rep.to_json())
        assert json.loads(docs[0])["per_n"][0]["scaled_rho"] is None
        assert docs[0] == docs[1]

    def test_heavy_tailed_moderately_stationary_degeneracy(self):
        # the joint limit is rank one for heavy-tailed innovations too, but
        # the approach is logarithmic: the off-limit component shrinks like
        # sqrt(l(b_n))*n^(-alpha/2), so expect strong and strengthening
        # correlation rather than the near-perfect gaussian value
        corrs = {}
        for n in (250, 4000):
            cfg = small_config(regime=Regime("P5", c=-1.0, alpha=0.25),
                               model=InnovationModel("pareto2"), n_list=(n,),
                               replications=400, limit_draws=2000, seed=3)
            corrs[n] = run_experiment(cfg).per_n[0]["component_correlation"]
        assert abs(corrs[4000]) > 0.6
        assert abs(corrs[4000]) > abs(corrs[250])

    def test_explosive_limit_matches_heavy_tailed_innovations(self):
        # the P2 rate rho^n has no l(b_n) in it, so the limit's innovation
        # series must stay raw against the mu*rho/(rho-1) shift; dividing
        # them by sqrt(l(b_M)) puts KS(rho) near 0.21 here
        cfg = small_config(regime=Regime("P2", rho=1.2), model=InnovationModel("pareto2"),
                           n_list=(120,), replications=2000, limit_draws=100_000,
                           seed=11)
        assert run_experiment(cfg).per_n[0]["ks_rho"] < 0.08

    def test_block_engine_restores_the_buffer_size(self):
        # The blocks run under a ufunc buffer of their own; the caller's comes
        # back after a run and after a block that raises (mu = 1e200 makes
        # the lagged series' sums of squares overflow).
        outer = np.setbufsize(4096)
        try:
            run_experiment(small_config(n_list=(600,)), workers=1)
            assert np.getbufsize() == 4096
            with pytest.raises(OverflowError, match="sums of squares"):
                run_experiment(small_config(mu=1e200), workers=1)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(outer)

    def test_replication_rows_shape(self):
        rep = run_experiment(small_config())
        assert rep.rows.shape == (1, 120, 5)
        mu_h, rho_h, s_mu, s_rho, sing = rep.rows[0, 0]
        assert sing == 0.0
        assert math.isfinite(mu_h) and math.isfinite(s_rho)

    def test_rate_fit_present_with_three_sizes(self):
        cfg = small_config(n_list=(100, 200, 400), replications=200)
        rep = run_experiment(cfg)
        assert rep.rate_fit is not None
        assert -0.9 < rep.rate_fit["rho"]["slope"] < -0.1

    def test_moderately_explosive_rate_fit_is_trimmed(self):
        cfg = small_config(regime=Regime("P6", c=1.0, alpha=0.5), n_list=(100, 200, 400))
        assert run_experiment(cfg).rate_fit["trimmed"] is True

    def test_ks_decreases_with_n(self):
        cfg = small_config(n_list=(200, 400, 800, 1600), replications=1500,
                           limit_draws=30_000, seed=41)
        rep = run_experiment(cfg)
        ks = [b["ks_rho"] for b in rep.per_n]
        assert all(later <= earlier + 0.01 for earlier, later in zip(ks, ks[1:]))


# Regimes for the stream-map check, with sizes whose chunks of rows do not
# divide R = 130: at n = 1500 a chunk holds 43 rows.
_STREAM_REGIMES = {
    "P1": (Regime("P1", rho=0.5), (100, 1500)),
    "P2": (Regime("P2", rho=1.05), (60, 1500)),
    "P3": (Regime("P3"), (100, 1500)),
    "P4": (Regime("P4", c=-2.0), (100, 1500)),
    "P5": (Regime("P5", c=-1.0, alpha=0.5), (100, 1500)),
    "P6": (Regime("P6", c=1.0, alpha=0.5), (100, 1500)),
}
_STREAM_CASES = [
    (tag, InnovationModel(model_id)) for tag in _STREAM_REGIMES for model_id in ("gaussian", "pareto2")
]


def test_pool_never_exceeds_task_count(monkeypatch):
    # A fork pool starts all max_workers processes at its first submit, so
    # the pool is sized by the task count; a serial stand-in records it.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    cfg = small_config(n_list=(100, 200), replications=300)  # 2 blocks per n
    serial = run_experiment(cfg).to_json()
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    assert run_experiment(cfg, workers=100_000).to_json() == serial
    assert run_experiment(cfg, workers=3).to_json() == serial
    assert sizes == [4, 3]


class TestStreamMap:
    """Replication (n, r) draws from stream (seed, 1, n, r), and the
    block engine gives exactly what that path gives on its own."""

    def check(self, cfg):
        report = run_experiment(cfg)
        for n, rows in zip(cfg.n_list, report.rows):
            ref = np.array([replication_reference(cfg, n, r)
                            for r in range(cfg.replications)])
            mu_rate, rho_rate = error_rates(cfg.regime, cfg.model, n)
            assert np.array_equal(rows[:, 0], ref[:, 0], equal_nan=True)
            assert np.array_equal(rows[:, 1], ref[:, 1], equal_nan=True)
            assert np.array_equal(rows[:, 2], mu_rate * ref[:, 2], equal_nan=True)
            assert np.array_equal(rows[:, 3], rho_rate * ref[:, 3], equal_nan=True)
            assert np.array_equal(rows[:, 4], np.isnan(ref[:, 0]))
        return report

    @pytest.mark.parametrize("tag, model", _STREAM_CASES,
                             ids=[f"{t}-{m.id}" for t, m in _STREAM_CASES])
    def test_engine_matches_path_by_path_reference(self, tag, model):
        regime, n_list = _STREAM_REGIMES[tag]
        self.check(small_config(regime=regime, model=model, n_list=n_list,
                                replications=130, limit_draws=1000, seed=2**40 + 3))

    def test_rademacher_explosive(self):
        self.check(small_config(regime=Regime("P2", rho=-1.3), model=InnovationModel("rademacher"),
                                n_list=(60, 90), replications=300, y0=0.5))

    def test_all_singular(self):
        report = self.check(small_config(model=InnovationModel("gaussian", 1e-100), mu=1.0,
                                         y0=2.0, n_list=(100, 1500), replications=130))
        assert all(block["singular"] == 130 for block in report.per_n)
        for doc in json.loads(report.to_json())["per_n"]:
            assert (doc["replications"], doc["valid"], doc["singular"]) == (130, 0, 130)

    def test_chunks_mixing_singular_and_ordinary_rows(self):
        # innovations of scale 1.74e-6 about the fixed point 2 put the
        # lagged series' spread near the guard's floor, so about half the
        # rows of each chunk are singular
        report = self.check(small_config(model=InnovationModel("gaussian", 1.74e-6), mu=1.0,
                                         y0=2.0, n_list=(1000, 2000), replications=130))
        assert all(30 < block["singular"] < 100 for block in report.per_n)


# Each engine estimate is its truth plus its Delta ratio, rounded once: the
# ratio lies within the Delta test's 256 eps of the exact one
# (tests/test_estimator.py), and adding the truth rounds to within half an
# ulp of the estimate, so the bound is 1/2 ulp(estimate) + 256 eps |exact|.
# A fit of the data (rho_hat = S_xy/S_xx, mu_hat = ybar - rho_hat*xbar)
# cancels where the path grows, and misses this bound under P2 and P6.
@pytest.mark.parametrize("regime, n", [
    (Regime("P1", rho=0.5), 400), (Regime("P2", rho=1.2), 120),
    (Regime("P3"), 400), (Regime("P6", c=1.0, alpha=0.5), 400),
], ids=["P1", "P2", "P3", "P6"])
def test_engine_estimates_are_the_truth_plus_the_exact_ratios(regime, n):
    cfg = small_config(regime=regime, n_list=(n,), replications=100, limit_draws=1000, y0=0.5)
    eps = Fraction(np.finfo(float).eps)
    for r, row in enumerate(run_experiment(cfg).rows[0]):
        path = reference_path(cfg, n, r)
        for estimate, truth, want in zip(row[:2], (path.mu, path.rho), exact_delta_ratios(path)):
            error = Fraction(float(estimate)) - Fraction(truth)
            bound = Fraction(float(np.spacing(abs(estimate)))) / 2 + 256 * eps * abs(want)
            assert abs(error - want) <= bound, (float(error), float(want))

class TestNormalizedSums:
    def test_stationary_sums_converge(self):
        g = InnovationModel("gaussian", 1.0)
        reg = Regime("P1", rho=0.5)
        stats_ = [normalized_stationary_sums(simulate_path(reg, 1.0, 0.0, g, 2000, 5000 + i), g)
                  for i in range(600)]
        mean_lag = np.mean([s["mean_lag"] for s in stats_])
        w1 = np.array([s["w1"] for s in stats_])
        w2 = np.array([s["w2"] for s in stats_])
        assert mean_lag == pytest.approx(2.0, abs=0.05)          # mu/(1-rho)
        assert w1.var(ddof=1) == pytest.approx(1.0, rel=0.15)
        assert w2.var(ddof=1) == pytest.approx(1.0 / 0.75, rel=0.15)
        assert abs(np.corrcoef(w1, w2)[0, 1]) < 0.1
        mean_sq = np.mean([s["mean_sq_lag"] for s in stats_])
        assert mean_sq == pytest.approx(1.0 / 0.75 + 4.0, rel=0.05)

    def test_tilde_sums_match_functional_limits(self):
        g = InnovationModel("gaussian", 1.0)
        reg = Regime("P3")
        stats_ = [normalized_tilde_sums(simulate_path(reg, 1.0, 0.0, g, 2000, 1000 + i), g)
                  for i in range(600)]
        lim = sample_time_changed_functionals(0.0, 2000, 20_000, 301)
        for key in ("int_sq", "int_lin", "ito"):
            sim = np.array([s[key] for s in stats_])
            assert ks_two_sample(sim, lim[key]) < 0.09
