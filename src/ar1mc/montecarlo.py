"""Replicated simulate -> estimate -> scale experiments with diagnostics.

An experiment fixes a regime, an innovation model, (mu, y0), a list of
sample sizes and a replication count.  Every replication r at sample size
n draws its innovations from a stream keyed by (master_seed, n, r), so

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# simulate_path and ls_estimate, the one-path forms of the block engine
# below, are not called here; they stay importable from this module because
# the benchmark's tracer hooks them on it (a bypassed hook reports 0 calls).
from .estimator import error_rates, ls_estimate, ls_rows  # noqa: F401
from .innovations import _finite_real, model_from_config, sample_innovation_rows
from .limits import sample_limit
from .process import Regime, path_root, recurse_rows, simulate_path  # noqa: F401
from .rng import derive_seed, philox_keys

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Summary",
    "PerSizeReport",
    "McReport",
    "run_experiment",
    "ks_two_sample",
    "rate_slope",
    "summarize",
]

# Stream ids under the master seed.
_PATH_STREAM = 1
_LIMIT_STREAM = 2

# Replications dispatched per worker task.
_BLOCK = 256

# Elements (rows x n) of one chunk of paths a worker builds at a time:
# bounds peak memory without affecting results.
_CHUNK_ELEMENTS = 1 << 16

_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


def _check_int(key: str, value, low: int | None = None) -> None:
    """Refuse anything but an int (not a bool) that is >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"config key {key!r}: must be >= {low}, got {value}")


def _check_real(key: str, value) -> float:
    """``value`` as a float if it is a finite int or float (not a bool)."""
    try:
        return _finite_real(value, f"config key {key!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment; ``model`` is a registry config record.

    Construction validates every field with exact types: integers are
    ints (not bools or floats), reals are finite ints or floats, and every
    failure is a ConfigError naming the JSON key of the field.
    """

    regime: Regime
    model: dict
    mu: float
    n_list: tuple[int, ...]
    replications: int
    limit_draws: int
    master_seed: int
    y0: float = 0.0
    truncation: int | None = None

    # "grid_m" (the step count of the retired Brownian-grid sampler) is
    # still accepted so older config files load; its value is ignored.
    _KEYS = {
        "regime", "model", "mu", "y0", "n_list", "replications",
        "limit_draws", "seed", "grid_m", "truncation_M",
    }

    def __post_init__(self):
        if not isinstance(self.regime, Regime):
            raise ConfigError(f"config key 'regime': expected a Regime, got {self.regime!r}")
        try:
            model_from_config(self.model)
        except ValueError as exc:
            raise ConfigError(f"config key 'model': {exc}") from None
        object.__setattr__(self, "mu", _check_real("mu", self.mu))
        object.__setattr__(self, "y0", _check_real("y0", self.y0))
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
        _check_int("seed", self.master_seed, 0)
        if self.truncation is not None:
            _check_int("truncation_M", self.truncation)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("experiment config must be a mapping")
        unknown = set(raw) - cls._KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"regime", "model", "mu", "n_list", "replications",
                   "limit_draws", "seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        try:
            regime = Regime.from_config(raw["regime"])
        except ValueError as exc:
            raise ConfigError(f"config key 'regime': {exc}") from None
        return cls(
            regime=regime,
            model=raw["model"],
            mu=raw["mu"],
            y0=raw.get("y0", 0.0),
            n_list=raw["n_list"],
            replications=raw["replications"],
            limit_draws=raw["limit_draws"],
            master_seed=raw["seed"],
            truncation=raw.get("truncation_M"),
        )

    def to_dict(self) -> dict:
        return {
            "regime": self.regime.to_config(),
            "model": dict(self.model),
            "mu": self.mu,
            "y0": self.y0,
            "n_list": list(self.n_list),
            "replications": self.replications,
            "limit_draws": self.limit_draws,
            "seed": self.master_seed,
            "truncation_M": self.truncation,
        }


@dataclass(frozen=True)
class Summary:
    mean: float
    variance: float
    quantiles: dict
    count: int

    def to_dict(self) -> dict:
        out = {"mean": self.mean, "variance": self.variance, "count": self.count}
        out.update({f"q{int(100 * q):02d}": v for q, v in self.quantiles.items()})
        return out


@dataclass
class PerSizeReport:
    n: int
    valid: int
    singular: int
    mu_rate: float | None
    rho_rate: float | None
    ks_mu: float | None
    ks_rho: float | None
    component_correlation: float | None
    scaled_mu_summary: Summary | None
    scaled_rho_summary: Summary | None
    # raw per-replication values (nan where singular); not serialized to JSON
    mu_hat: np.ndarray = field(repr=False, default=None)
    rho_hat: np.ndarray = field(repr=False, default=None)
    scaled_mu: np.ndarray = field(repr=False, default=None)
    scaled_rho: np.ndarray = field(repr=False, default=None)
    singular_mask: np.ndarray = field(repr=False, default=None)


@dataclass
class McReport:
    config: ExperimentConfig
    per_n: list
    limit_samples: np.ndarray = field(repr=False)
    limit_comp1_summary: Summary = None
    limit_comp2_summary: Summary = None
    limit_correlation: float = None
    rate_fit: dict | None = None

    def to_json_dict(self) -> dict:
        per_n = []
        for block in self.per_n:
            per_n.append({
                "n": block.n,
                "replications": block.valid + block.singular,
                "valid": block.valid,
                "singular": block.singular,
                "mu_rate": block.mu_rate,
                "rho_rate": block.rho_rate,
                "ks_mu": block.ks_mu,
                "ks_rho": block.ks_rho,
                "component_correlation": block.component_correlation,
                "scaled_mu": None if block.scaled_mu_summary is None
                else block.scaled_mu_summary.to_dict(),
                "scaled_rho": None if block.scaled_rho_summary is None
                else block.scaled_rho_summary.to_dict(),
            })
        return {
            "config": self.config.to_dict(),
            "per_n": per_n,
            "limit": {
                "comp1": self.limit_comp1_summary.to_dict(),
                "comp2": self.limit_comp2_summary.to_dict(),
                "component_correlation": self.limit_correlation,
            },
            "rate_fit": self.rate_fit,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def replication_rows(self):
        """Rows (n, r, mu_hat, rho_hat, scaled_mu, scaled_rho, singular)."""
        for block in self.per_n:
            for r in range(len(block.mu_hat)):
                yield (
                    block.n, r,
                    block.mu_hat[r], block.rho_hat[r],
                    block.scaled_mu[r], block.scaled_rho[r],
                    int(block.singular_mask[r]),
                )


# --- elementary diagnostics -------------------------------------------------


def ks_two_sample(a, b) -> float:
    """Exact sup-distance between the empirical CDFs of two samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample requires nonempty samples")
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


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


def summarize(sample) -> Summary:
    """Mean, unbiased variance and interpolated quantiles of a sample."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise ValueError("summarize requires a nonempty sample")
    qs = np.quantile(arr, _QUANTILES)  # linear interpolation of order stats
    return Summary(
        mean=float(np.mean(arr)),
        variance=float(np.var(arr, ddof=1)) if arr.size > 1 else 0.0,
        quantiles={q: float(v) for q, v in zip(_QUANTILES, qs)},
        count=int(arr.size),
    )


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    # np.sum-based on purpose: pairwise summation is deterministic across
    # BLAS thread counts, which the report's byte-stability relies on.
    ac = a - np.mean(a)
    bc = b - np.mean(b)
    denom = math.sqrt(float(np.sum(ac * ac)) * float(np.sum(bc * bc)))
    if denom == 0.0:
        return float("nan")
    return float(np.sum(ac * bc) / denom)


# --- experiment driver -------------------------------------------------------


def _replicate_block(payload):
    """Worker task: run replications r_lo..r_hi-1 at size n; pure in its payload.

    Returns one row (mu_hat, rho_hat, mu error, rho error, singular) per
    replication, with NaN estimates where the design is singular.  The
    errors are the Delta ratios, which equal (mu_hat - mu, rho_hat - rho_n)
    exactly for the generating truth but keep their own relative precision
    below ulp(rho_hat), where literal subtraction of the rounded estimates
    resolves nothing; the explosive-side rates run_experiment applies
    exceed 1/ulp.

    Replications run in chunks of rows: one innovation row per stream
    (master_seed, n, r), then one recursion and one least-squares pass per
    chunk.  Every row equals the single path simulate_path and
    ls_estimate would give for that stream.
    """
    regime, mu, y0, model_cfg, n, master_seed, r_lo, r_hi = payload
    model = model_from_config(model_cfg)
    rho = path_root(regime, mu, y0, n)
    keys = philox_keys(master_seed, (_PATH_STREAM, n), np.arange(r_lo, r_hi))
    out = np.empty((r_hi - r_lo, 5))
    step = max(1, _CHUNK_ELEMENTS // n)
    for lo in range(0, r_hi - r_lo, step):
        e = sample_innovation_rows(model, keys[lo:lo + step], n)
        est, singular = ls_rows(y0, recurse_rows(mu, rho, y0, e), e)
        delta3 = np.where(singular, 1.0, est.delta3)
        rows = out[lo:lo + len(e)]
        rows[:, 0] = est.mu_hat
        rows[:, 1] = est.rho_hat
        rows[:, 2] = est.delta1 / delta3
        rows[:, 3] = est.delta2 / delta3
        rows[:, 4] = singular
    return out


def run_experiment(config: ExperimentConfig, workers: int = 1) -> McReport:
    """Run the full experiment described by ``config``.

    ``workers`` only chooses how replication blocks are scheduled; the
    report is bit-identical for every value.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    model = model_from_config(config.model)
    regime, mu, y0 = config.regime, config.mu, config.y0
    R = config.replications

    # The limit law is drawn first: its stream is separate, and a law that
    # cannot be drawn is refused before any path is simulated.
    limit = sample_limit(
        regime, mu, model,
        draws=config.limit_draws,
        seed=derive_seed(config.master_seed, _LIMIT_STREAM),
        truncation=config.truncation,
        y0=y0,
    )

    payloads, offsets = [], []
    for n in config.n_list:
        for lo in range(0, R, _BLOCK):
            payloads.append((regime, mu, y0, config.model, n, config.master_seed,
                             lo, min(lo + _BLOCK, R)))
            offsets.append((n, lo))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_block, payloads))
    else:
        results = list(map(_replicate_block, payloads))

    # Rows land at their replication ids: the reduction order is fixed by
    # (n, r), never by completion order.
    table = {n: np.empty((R, 5)) for n in config.n_list}
    for (n, lo), rows in zip(offsets, results):
        table[n][lo:lo + len(rows)] = rows

    per_n = []
    rmse_mu, rmse_rho, fit_ns = [], [], []
    trimmed = regime.tag in ("P2", "P6")
    for n in config.n_list:
        mu_hat, rho_hat, err_mu, err_rho, flag = table[n].T
        singular = flag != 0.0
        valid = ~singular
        n_valid = int(np.sum(valid))
        scaled_mu = np.full(R, np.nan)
        scaled_rho = np.full(R, np.nan)
        if n_valid:
            mu_rate, rho_rate = error_rates(regime, model, n)
            scaled_mu[valid] = mu_rate * err_mu[valid]
            scaled_rho[valid] = rho_rate * err_rho[valid]
            block = PerSizeReport(
                n=n,
                valid=n_valid,
                singular=R - n_valid,
                mu_rate=mu_rate,
                rho_rate=rho_rate,
                ks_mu=ks_two_sample(scaled_mu[valid], limit[:, 0]),
                ks_rho=ks_two_sample(scaled_rho[valid], limit[:, 1]),
                component_correlation=(
                    _pearson(scaled_mu[valid], scaled_rho[valid]) if n_valid > 1 else None
                ),
                scaled_mu_summary=summarize(scaled_mu[valid]),
                scaled_rho_summary=summarize(scaled_rho[valid]),
            )
            rmse_mu.append(_rmse(err_mu[valid], trimmed))
            rmse_rho.append(_rmse(err_rho[valid], trimmed))
            fit_ns.append(n)
        else:
            block = PerSizeReport(
                n=n, valid=0, singular=R, mu_rate=None, rho_rate=None,
                ks_mu=None, ks_rho=None, component_correlation=None,
                scaled_mu_summary=None, scaled_rho_summary=None,
            )
        block.mu_hat = mu_hat
        block.rho_hat = rho_hat
        block.scaled_mu = scaled_mu
        block.scaled_rho = scaled_rho
        block.singular_mask = singular
        per_n.append(block)

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
        limit_samples=limit,
        limit_comp1_summary=summarize(limit[:, 0]),
        limit_comp2_summary=summarize(limit[:, 1]),
        limit_correlation=_pearson(limit[:, 0], limit[:, 1]),
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
