"""Replicated simulate -> estimate -> scale experiments with diagnostics.

An experiment fixes a regime, an innovation model, (mu, y0), a list of
sample sizes and a replication count.  Every replication r at sample size
n draws its innovations from a stream keyed by (seed, n, r), so

  * results are bit-identical no matter how replications are scheduled
    or how many workers run them, and
  * adding sample sizes or replications never perturbs existing draws.

Scaled-error samples are compared against draws from the regime's limit
law with the exact two-sample Kolmogorov-Smirnov distance, and RMSE decay
across sample sizes is summarized by a log-log slope fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# simulate_path and ls_estimate, the one-path forms of the block engine
# below, are not called here; they stay importable from this module because
# the benchmark's tracer hooks them on it (a bypassed hook reports 0 calls).
from .estimator import ls_estimate, ls_rows  # noqa: F401
from .innovations import (_CHUNK_ELEMENTS, ConfigError, ConfigValue, InnovationModel, _finite_real,
                          sample_innovation_rows)
from .limits import error_rates, sample_limit
from .process import Regime, path_root, recurse_rows
from .process import simulate_path  # noqa: F401
from .rng import derive_seed, philox_keys

__all__ = ["ConfigError", "ExperimentConfig", "PerSizeReport", "McReport",
           "run_experiment", "ks_two_sample", "summarize"]

# Stream ids under the master seed.
_PATH_STREAM = 1
_LIMIT_STREAM = 2

# Replications dispatched per worker task.
_BLOCK = 256

_QUANTILES = {"q05": 0.05, "q25": 0.25, "q50": 0.50, "q75": 0.75, "q95": 0.95}


def _check_int(key: str, value, low: int | None = None) -> None:
    """Refuse anything but an int (not a bool) that is >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
    if low is not None and value < low:
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
            raise ConfigError(
                f"config key 'n_list': expected a nonempty list, got {self.n_list!r}")
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
class PerSizeReport:
    n: int
    # raw per-replication values (nan where singular); not serialized to JSON
    mu_hat: np.ndarray = field(repr=False)
    rho_hat: np.ndarray = field(repr=False)
    scaled_mu: np.ndarray = field(repr=False)
    scaled_rho: np.ndarray = field(repr=False)
    singular_mask: np.ndarray = field(repr=False)
    # None if every replication here is singular; the KS and correlation fields also if undefined
    mu_rate: float | None = None
    rho_rate: float | None = None
    ks_mu: float | None = None
    ks_rho: float | None = None
    component_correlation: float | None = None
    scaled_mu_summary: dict | None = None
    scaled_rho_summary: dict | None = None

    @property
    def singular(self) -> int:
        return int(np.count_nonzero(self.singular_mask))

    @property
    def valid(self) -> int:
        return len(self.singular_mask) - self.singular

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "replications": len(self.singular_mask),
            "valid": self.valid,
            "singular": self.singular,
            "mu_rate": self.mu_rate,
            "rho_rate": self.rho_rate,
            "ks_mu": self.ks_mu,
            "ks_rho": self.ks_rho,
            "component_correlation": self.component_correlation,
            "scaled_mu": self.scaled_mu_summary,
            "scaled_rho": self.scaled_rho_summary,
        }


@dataclass
class McReport:
    config: ExperimentConfig
    per_n: list
    # {"comp1": summary, "comp2": summary, "component_correlation": ...}
    limit: dict
    rate_fit: dict | None

    def to_json(self) -> str:
        return json.dumps({
            "config": self.config.to_dict(),
            "per_n": [block.to_dict() for block in self.per_n],
            "limit": self.limit,
            "rate_fit": self.rate_fit,
        }, indent=2, sort_keys=True) + "\n"

    def replication_rows(self):
        """Rows (n, r, mu_hat, rho_hat, scaled_mu, scaled_rho, singular)."""
        for block in self.per_n:
            columns = zip(block.mu_hat, block.rho_hat, block.scaled_mu, block.scaled_rho,
                          block.singular_mask)
            for r, (mu_h, rho_h, s_mu, s_rho, sing) in enumerate(columns):
                yield block.n, r, mu_h, rho_h, s_mu, s_rho, int(sing)


# --- elementary diagnostics -------------------------------------------------


def ks_two_sample(a, b) -> float:
    """Exact sup-distance between the empirical CDFs of two nonempty samples.

    Both samples are sorted.  Between two points of the smaller one the gap
    |F_a - F_b| is largest at an end: at a point of that sample itself, or
    just before the next one.  Evaluating both sides of each of its points
    therefore meets the pooled maximum, as the same float quotients k/|a|
    and j/|b|, so the argument order does not change the result.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample requires nonempty samples")
    if a.size > b.size:
        a, b = b, a
    gap_right = (np.searchsorted(a, a, side="right") / a.size
                 - np.searchsorted(b, a, side="right") / b.size)
    gap_left = (np.searchsorted(a, a, side="left") / a.size
                - np.searchsorted(b, a, side="left") / b.size)
    return float(max(np.max(np.abs(gap_right)), np.max(np.abs(gap_left))))


def rate_slope(n_list, rmse_list) -> tuple[float, float]:
    """OLS slope (and its standard error) of log(rmse) on log(n)."""
    n_arr = np.asarray(n_list, dtype=float)
    r_arr = np.asarray(rmse_list, dtype=float)
    if n_arr.size != r_arr.size or n_arr.size < 3:
        raise ValueError("rate_slope needs >= 3 (n, rmse) pairs")
    if np.any(r_arr <= 0) or np.any(n_arr <= 0):
        raise ValueError("rate_slope needs positive sizes and rmse values")
    x = np.log(n_arr)
    y = np.log(r_arr)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * y) / sxx)
    resid = y - (y.mean() + slope * xc)
    rss = max(float(np.sum(resid * resid)), 0.0)
    stderr = math.sqrt(rss / (x.size - 2) / sxx)
    return slope, stderr


def summarize(sample) -> dict:
    """Mean, unbiased variance, count and interpolated quantiles of a
    sample, keyed as the report writes them."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise ValueError("summarize requires a nonempty sample")
    qs = np.quantile(arr, list(_QUANTILES.values()))  # linear interpolation of order stats
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
    with NaN estimates where the design is singular.  The errors are the
    Delta ratios, which equal (mu_hat - mu, rho_hat - rho_n) exactly for
    the generating truth but keep their own relative precision below
    ulp(rho_hat), where literal subtraction of the rounded estimates
    resolves nothing; the explosive-side rates run_experiment applies
    exceed 1/ulp.

    Replications run in chunks of rows: one innovation row per stream
    (seed, n, r), then one recursion and one least-squares pass per
    chunk.  Every row equals the single path simulate_path and
    ls_estimate would give for that stream.
    """
    rho, mu, y0, model, n, seed, r_lo, r_hi = payload
    keys = philox_keys(seed, (_PATH_STREAM, n), np.arange(r_lo, r_hi))
    out = np.empty((r_hi - r_lo, 5))
    step = max(1, _CHUNK_ELEMENTS // n)
    for lo in range(0, r_hi - r_lo, step):
        e = sample_innovation_rows(model, keys[lo:lo + step], n)
        est, singular = ls_rows(y0, recurse_rows(mu, rho, y0, e), e)
        delta3 = np.where(singular, 1.0, est.delta3)
        out[lo:lo + len(e)] = np.column_stack(
            [est.mu_hat, est.rho_hat, est.delta1 / delta3, est.delta2 / delta3, singular])
    return out


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
    limit = sample_limit(
        regime, mu, model,
        draws=config.limit_draws,
        seed=derive_seed(config.seed, _LIMIT_STREAM),
        y0=y0,
    )

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
        mu_hat, rho_hat, err_mu, err_rho, flag = rows.T
        singular = flag != 0.0
        valid = ~singular
        scaled_mu = np.full(R, np.nan)
        scaled_rho = np.full(R, np.nan)
        stats = {}
        if valid.any():
            mu_rate, rho_rate = error_rates(regime, model, n)
            scaled_mu[valid] = mu_rate * err_mu[valid]
            scaled_rho[valid] = rho_rate * err_rho[valid]
            s_mu, s_rho = scaled_mu[valid], scaled_rho[valid]
            stats = dict(
                mu_rate=mu_rate, rho_rate=rho_rate,
                ks_mu=ks_two_sample(s_mu, limit[:, 0]) if limit_spread[0] else None,
                ks_rho=ks_two_sample(s_rho, limit[:, 1]) if limit_spread[1] else None,
                component_correlation=_pearson(s_mu, s_rho),
                scaled_mu_summary=summarize(s_mu), scaled_rho_summary=summarize(s_rho),
            )
            rmse_mu.append(_rmse(err_mu[valid], trimmed))
            rmse_rho.append(_rmse(err_rho[valid], trimmed))
            fit_ns.append(n)
        per_n.append(PerSizeReport(n=n, mu_hat=mu_hat, rho_hat=rho_hat, scaled_mu=scaled_mu,
                                   scaled_rho=scaled_rho, singular_mask=singular, **stats))

    rate_fit = None
    if len(fit_ns) >= 3:
        slope_mu, se_mu = rate_slope(fit_ns, rmse_mu)
        slope_rho, se_rho = rate_slope(fit_ns, rmse_rho)
        rate_fit = {
            "n_list": list(fit_ns),
            "rmse_mu": rmse_mu,
            "rmse_rho": rmse_rho,
            "mu": {"slope": slope_mu, "stderr": se_mu},
            "rho": {"slope": slope_rho, "stderr": se_rho},
            "trimmed": trimmed,
        }

    return McReport(
        config=config,
        per_n=per_n,
        limit={"comp1": summarize(limit[:, 0]), "comp2": summarize(limit[:, 1]),
               "component_correlation": _pearson(limit[:, 0], limit[:, 1])},
        rate_fit=rate_fit,
    )


def _rmse(errors: np.ndarray, trimmed: bool) -> float:
    """Root mean squared error; central 98% only for heavy-tailed regimes,
    where raw second moments are dominated by a few extreme ratios."""
    err = np.asarray(errors, dtype=float)
    if trimmed and err.size >= 100:
        lo, hi = np.quantile(err, (0.01, 0.99))
        err = err[(err >= lo) & (err <= hi)]
    return float(np.sqrt(np.mean(err * err)))
