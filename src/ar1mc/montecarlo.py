"""Replicated simulate -> estimate -> scale experiments with diagnostics.

An experiment fixes a regime, an innovation model, (mu, y0), a list of
sample sizes and a replication count.  Every replication r at sample size
n draws its innovations from a stream keyed by (seed, n, r), so

  * results are bit-identical no matter how replications are scheduled
    or how many workers run them, and
  * adding sample sizes or replications never perturbs existing draws.

The report holds what ``mc --out`` writes: per sample size the counts, the
rates, the exact two-sample KS distances of the scaled errors to the limit
law, their correlation and summaries; the limit law's summaries; and a
log-log fit of RMSE decay.  Its ``rows`` array, (sizes, replications, 5),
holds the ``mc --csv`` columns after n and r, NaN where singular.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# simulate_path and ls_estimate, the one-path forms of the block engine
# below, are not called here; they stay importable from this module because
# the benchmark's tracer hooks them on it (a bypassed hook reports 0 calls).
from .estimator import ls_deltas, ls_estimate  # noqa: F401
from .innovations import (_CHUNK_ELEMENTS, ConfigError, ConfigValue, InnovationModel, _finite_real,
                          _unbuffered, sample_innovation_rows)
from .limits import error_rates, sample_limit
from .process import Regime, block_plan, path_root, recurse_rows, simulate_path  # noqa: F401
from .rng import derive_seed, substreams

__all__ = ["ConfigError", "ExperimentConfig", "McReport", "run_experiment", "ks_two_sample", "summarize"]

# Stream ids under the master seed.
_PATH_STREAM = 1
_LIMIT_STREAM = 2

# Replications dispatched per worker task.
_BLOCK = 256

_QUANTILES = {"q05": 0.05, "q25": 0.25, "q50": 0.50, "q75": 0.75, "q95": 0.95}


def _check_int(key: str, value, low: int) -> None:
    """Refuse anything but an int (not a bool) that is >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"config key {key!r}: must be >= {low}, got {value}")


@dataclass(frozen=True)
class ExperimentConfig(ConfigValue):
    """One Monte Carlo experiment: a regime and an innovation model, both
    checked values, with (mu, y0), the sample sizes and the replications.

    Construction validates every field with exact types: integers are
    ints (not bools or floats), reals are finite ints or floats, and every
    failure is a ConfigError naming the JSON key of the field.
    """

    _WHAT = "experiment"

    regime: Regime
    model: InnovationModel
    mu: float
    n_list: tuple[int, ...]
    replications: int
    limit_draws: int
    seed: int
    y0: float = 0.0

    def __post_init__(self):
        if not isinstance(self.regime, Regime):
            raise ConfigError(f"config key 'regime': expected a Regime, got {self.regime!r}")
        if not isinstance(self.model, InnovationModel):
            raise ConfigError(f"config key 'model': expected an InnovationModel, got {self.model!r}")
        object.__setattr__(self, "mu", _finite_real(self.mu, "config key 'mu'"))
        object.__setattr__(self, "y0", _finite_real(self.y0, "config key 'y0'"))
        if not isinstance(self.n_list, (list, tuple)) or not self.n_list:
            raise ConfigError(f"config key 'n_list': expected a nonempty list, got {self.n_list!r}")
        object.__setattr__(self, "n_list", tuple(self.n_list))
        for n in self.n_list:
            _check_int("n_list", n, 50)
        if len(set(self.n_list)) != len(self.n_list):
            raise ConfigError("config key 'n_list': entries must be distinct")
        _check_int("replications", self.replications, 100)
        _check_int("limit_draws", self.limit_draws, 1000)
        _check_int("seed", self.seed, 0)

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        if isinstance(raw, dict):
            # "grid_m" (the step count of the retired Brownian-grid sampler) is
            # still accepted so older config files load; its value is ignored.
            raw = {key: value for key, value in raw.items() if key != "grid_m"}
        return super().from_dict(raw, regime=Regime, model=InnovationModel)


@dataclass
class McReport:
    config: ExperimentConfig
    per_n: list
    # {"comp1": summary, "comp2": summary, "component_correlation": ...}
    limit: dict
    rate_fit: dict | None
    # The mc --csv columns after n and r; not written to the JSON.
    rows: np.ndarray = field(repr=False)

    def to_json(self) -> str:
        return json.dumps({"config": self.config.to_dict(), "per_n": self.per_n, "limit": self.limit,
                           "rate_fit": self.rate_fit}, indent=2, sort_keys=True) + "\n"


# --- elementary diagnostics -------------------------------------------------


def ks_two_sample(a, b) -> float:
    """Exact sup-distance between the empirical CDFs of two nonempty samples.

    Both samples are sorted, and the gaps are taken on both sides of ``a``'s
    points.  Between two points of either sample |F_a - F_b| is largest at an
    end: at a point of that sample, or just before the next one.  So either
    sample's points meet the pooled maximum, as the same float quotients
    k/|a| and j/|b|, and either argument order gives the same bits.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample requires nonempty samples")
    gaps = [np.searchsorted(a, a, side) / a.size - np.searchsorted(b, a, side) / b.size
            for side in ("right", "left")]
    return float(max(np.max(np.abs(gap)) for gap in gaps))


def rate_slope(n_list, rmse_list) -> dict:
    """OLS slope (and its standard error) of log(rmse) on log(n), as the report writes it."""
    n_arr = np.asarray(n_list, dtype=float)
    r_arr = np.asarray(rmse_list, dtype=float)
    if n_arr.size != r_arr.size or n_arr.size < 3:
        raise ValueError("rate_slope needs >= 3 (n, rmse) pairs")
    if np.any(r_arr <= 0) or np.any(n_arr <= 0):
        raise ValueError("rate_slope needs positive sizes and rmse values")
    x, y = np.log(n_arr), np.log(r_arr)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * y) / sxx)
    resid = y - (y.mean() + slope * xc)
    rss = float(np.sum(resid * resid))
    stderr = math.sqrt(rss / (x.size - 2) / sxx)
    return {"slope": slope, "stderr": stderr}


def summarize(sample) -> dict:
    """Mean, unbiased variance, count and interpolated quantiles (from a
    sorted copy: 2.5x faster) of a sample, keyed as the report writes them."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise ValueError("summarize requires a nonempty sample")
    qs = np.quantile(np.sort(arr), list(_QUANTILES.values()), overwrite_input=True)
    return {"mean": float(np.mean(arr)),
            "variance": float(np.var(arr, ddof=1)) if arr.size > 1 else 0.0,
            "count": int(arr.size),
            **{key: float(v) for key, v in zip(_QUANTILES, qs)}}


def _pearson(a: np.ndarray, b: np.ndarray) -> float | None:
    """Sample correlation of ``a`` and ``b``; None where it is undefined, as
    for one point or a sample with no spread (a centred sum of squares of 0)."""
    # np.sum-based on purpose: pairwise summation is deterministic across BLAS
    # thread counts, which the report's bytes rely on.  Each centred product
    # fills one buffer 4096 values at a time and is then summed whole.
    ma, mb, work, sums = np.mean(a), np.mean(b), np.empty(a.shape), []
    for x, mx, y, my in ((a, ma, a, ma), (b, mb, b, mb), (a, ma, b, mb)):
        for lo in range(0, a.size, 4096):
            np.multiply(x[lo:lo + 4096] - mx, y[lo:lo + 4096] - my, out=work[lo:lo + 4096])
        sums.append(float(np.sum(work)))
    denom = math.sqrt(sums[0] * sums[1])
    if denom == 0.0:
        return None
    return sums[2] / denom


# --- experiment driver -------------------------------------------------------


def _replicate_block(payload):
    """Worker task: run replications r_lo..r_hi-1 at size n; pure in its payload.

    ``rho`` is the root ``path_root`` accepted for size n.  Returns one
    row (mu_hat, rho_hat, mu error, rho error, singular) per replication,
    NaN but for the flag where the design is singular.  The errors are the
    Delta ratios, and the estimates are the truth plus them: mu + Delta1/Delta3
    and rho + Delta2/Delta3.  The ratios keep their own relative precision
    below ulp(rho_hat), where literal subtraction of the rounded estimates
    resolves nothing; the explosive-side rates run_experiment applies
    exceed 1/ulp.

    Replications run in chunks of rows on buffers made once per block: the
    innovations, one row per stream (1, n, r) under seed; the paths led by y0,
    which ls_deltas reads as the views x and y; and the recursion's block_plan,
    in whose lanes ls_deltas then centres x.  ls_deltas solves each chunk,
    whose four vectors go into the block's slice.  Each row's errors equal
    the Delta ratios ls_estimate gives for the single path of its stream.
    """
    rho, mu, y0, model, n, seed, r_lo, r_hi = payload
    rngs = substreams(seed, (_PATH_STREAM, n), range(r_lo, r_hi))
    step = min(r_hi - r_lo, max(1, _CHUNK_ELEMENTS // n))
    e_rows, path, plan = np.empty((step, n)), np.empty((step, n + 1)), block_plan(rho, n, step)
    deltas = np.empty((4, r_hi - r_lo))
    with _unbuffered():
        for lo in range(0, r_hi - r_lo, step):
            e = sample_innovation_rows(model, rngs, e_rows[:r_hi - r_lo - lo])
            recurse_rows(mu, rho, y0, e, path, plan)
            deltas[:, lo:lo + len(e)] = ls_deltas(path[:len(e)], e, plan[-1])
    mu_error, rho_error = deltas[:2] / deltas[2]
    return np.column_stack([mu + mu_error, rho + rho_error, mu_error, rho_error, deltas[3]])


def run_experiment(config: ExperimentConfig, workers: int = 1) -> McReport:
    """Run the full experiment described by ``config``.

    The limit law is drawn and every sample size's root is checked in this
    process before any replication block runs.  ``workers`` only chooses
    how the blocks are scheduled (in this process, or in a fork pool of at
    most that many processes when it is above 1); the report is
    bit-identical for every value.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    regime, model, mu, y0 = config.regime, config.model, config.mu, config.y0
    R = config.replications

    # The limit law is drawn first: its stream is separate, and a law that
    # cannot be drawn is refused before any path is simulated.
    limit = sample_limit(regime, mu, model, draws=config.limit_draws,
                         seed=derive_seed(config.seed, _LIMIT_STREAM), y0=y0)

    # Every root is checked before any block runs.
    roots = {n: path_root(regime, mu, y0, n) for n in config.n_list}

    payloads = [(roots[n], mu, y0, model, n, config.seed, lo, min(lo + _BLOCK, R))
                for n in config.n_list for lo in range(0, R, _BLOCK)]

    if workers > 1:
        # Imported here: a serial run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # A fork pool starts all of its processes at the first submit, so it
        # is never larger than the number of tasks.
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            results = list(pool.map(_replicate_block, payloads))
    else:
        results = list(map(_replicate_block, payloads))

    # Both maps return the blocks in payload order, (n, r): the reduction
    # order is fixed by the replication ids, never by completion order.
    rows_by_n = np.concatenate(results).reshape(len(config.n_list), R, 5)

    # A KS distance to a limit column with no spread (a point mass, as the
    # intercept's under P5 with mu = 0 and alpha <= 1/2) measures nothing: None.
    limit_spread = np.ptp(limit, axis=0) > 0
    per_n = []
    rmse_mu, rmse_rho, fit_ns = [], [], []
    trimmed = regime.tag in ("P2", "P6")
    for n, rows in zip(config.n_list, rows_by_n):
        valid = rows[:, 4] == 0.0
        count = int(np.count_nonzero(valid))
        # None if every replication here is singular; the KS and correlation also if undefined
        block = {"n": n, "replications": R, "valid": count, "singular": R - count,
                 "mu_rate": None, "rho_rate": None, "ks_mu": None, "ks_rho": None,
                 "component_correlation": None, "scaled_mu": None, "scaled_rho": None}
        if count:
            rmse_mu.append(_rmse(rows[valid, 2], trimmed))
            rmse_rho.append(_rmse(rows[valid, 3], trimmed))
            fit_ns.append(n)
            # The errors are scaled in place; a singular row's NaN stays NaN.
            mu_rate, rho_rate = error_rates(regime, model, n)
            rows[:, 2] *= mu_rate
            rows[:, 3] *= rho_rate
            s_mu, s_rho = rows[valid, 2], rows[valid, 3]
            block.update(
                mu_rate=mu_rate, rho_rate=rho_rate,
                ks_mu=ks_two_sample(s_mu, limit[:, 0]) if limit_spread[0] else None,
                ks_rho=ks_two_sample(s_rho, limit[:, 1]) if limit_spread[1] else None,
                component_correlation=_pearson(s_mu, s_rho),
                scaled_mu=summarize(s_mu), scaled_rho=summarize(s_rho),
            )
        per_n.append(block)

    rate_fit = None
    if len(fit_ns) >= 3:
        rate_fit = {"n_list": list(fit_ns), "rmse_mu": rmse_mu, "rmse_rho": rmse_rho,
                    "mu": rate_slope(fit_ns, rmse_mu), "rho": rate_slope(fit_ns, rmse_rho),
                    "trimmed": trimmed}

    limit_summary = {"comp1": summarize(limit[:, 0]), "comp2": summarize(limit[:, 1]),
                     "component_correlation": _pearson(limit[:, 0], limit[:, 1])}
    return McReport(config, per_n, limit_summary, rate_fit, rows=rows_by_n)


def _rmse(err: np.ndarray, trimmed: bool) -> float:
    """Root mean squared error; central 98% only for heavy-tailed regimes,
    where raw second moments are dominated by a few extreme ratios."""
    if trimmed and err.size >= 100:
        lo, hi = np.quantile(err, (0.01, 0.99))
        err = err[(err >= lo) & (err <= hi)]
    return float(np.sqrt(np.mean(err * err)))
