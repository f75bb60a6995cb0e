"""The Monte Carlo acceptance checks C2-C8, in one table.

Each entry holds the experiment configs of one check, at its fixed seed,
how its statistics are read off the reports, and the bound each statistic
must meet.  ``tests/test_acceptance.py`` runs every entry at its fixed
seed; ``scripts/acceptance_sweep.py`` runs the same entries over a list of
seeds, to show how close each statistic sits to its bound.  A statistic
with no bound (a diagnostic) is printed but never fails a check.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from scipy import stats as sps

import ar1mc as m

# Correlation implied by the finite-variance joint law at mu=1, sigma=1,
# rho=0.5: cov = -mu(1+rho)/sigma, var1 = 1 + mu^2(1+rho)/(sigma^2(1-rho)),
# var2 = 1 - rho^2  =>  -1.5/sqrt(4*0.75) ~ -0.866.
C2_IMPLIED_CORR = -1.5 / math.sqrt(4.0 * 0.75)


@dataclass(frozen=True)
class Check:
    """Experiment configs (``ExperimentConfig`` fields, seed included), the
    statistics ``measure`` reads from their reports, and ``bounds``: for a
    statistic, its rule as text and as a predicate."""

    configs: tuple[m.ExperimentConfig, ...]
    measure: Callable[[list], dict[str, float]]
    bounds: dict[str, tuple[str, Callable[[float], bool]]]

    def run(self, seed: int | None = None) -> dict[str, float]:
        """The statistics at the fixed seeds, or with every config at ``seed``."""
        configs = [cfg if seed is None else dataclasses.replace(cfg, seed=seed)
                   for cfg in self.configs]
        return self.measure([m.run_experiment(cfg) for cfg in configs])

    def failures(self, statistics: dict[str, float]) -> list[str]:
        """The bounded statistics that miss their bound."""
        return [name for name, (_, holds) in self.bounds.items() if not holds(statistics[name])]


_GAUSSIAN = m.InnovationModel("gaussian", 1.0)


def _config(regime, model, mu, n_list, reps, draws, seed, y0=0.0) -> m.ExperimentConfig:
    return m.ExperimentConfig(regime=regime, model=model, mu=mu, y0=y0, n_list=tuple(n_list),
                              replications=reps, limit_draws=draws, seed=seed)


def _ks_vs_half_normal(block) -> float:
    """KS distance of the valid scaled rho-errors from their exact law N(0, 1/2)."""
    scaled = block.scaled_rho[~block.singular_mask]
    return float(sps.kstest(scaled, "norm", args=(0.0, math.sqrt(0.5))).statistic)


CHECKS = {
    "C2": Check(
        (_config(m.Regime("P1", rho=0.5), _GAUSSIAN, 1.0, [5000], 2000, 100_000, 777),),
        lambda reps: {"ks_rho": reps[0].per_n[0].ks_rho,
                      "var": reps[0].per_n[0].scaled_rho_summary["variance"],
                      "corr": reps[0].per_n[0].component_correlation},
        {"ks_rho": ("< 0.05", lambda v: v < 0.05),
         "var": ("in [0.70, 0.80]", lambda v: 0.70 <= v <= 0.80),
         "corr": (f"within 0.1 of {C2_IMPLIED_CORR:.4f}",
                  lambda v: abs(v - C2_IMPLIED_CORR) < 0.1)},
    ),
    # abs_corr is C3-corr's statistic, a strict expected failure of Tier-1.
    "C3": Check(
        (_config(m.Regime("P1", rho=0.5), m.InnovationModel("pareto2"), 1.0, [10_000], 2000,
                 100_000, 29),),
        lambda reps: {"ks_mu": reps[0].per_n[0].ks_mu,
                      "abs_corr": abs(reps[0].per_n[0].component_correlation)},
        {"ks_mu": ("< 0.06", lambda v: v < 0.06)},
    ),
    "C4": Check(
        (_config(m.Regime("P3"), _GAUSSIAN, 1.0, [5000], 2000, 100_000, 7),),
        lambda reps: {"var": reps[0].per_n[0].scaled_rho_summary["variance"],
                      "ks_rho": reps[0].per_n[0].ks_rho},
        {"var": ("within 10% of 12", lambda v: abs(v - 12.0) <= 1.2),
         "ks_rho": ("< 0.05", lambda v: v < 0.05)},
    ),
    "C5": Check(
        (_config(m.Regime("P2", rho=1.2), _GAUSSIAN, 1.0, [60], 2000, 100_000, 11),),
        lambda reps: {"ks_rho": reps[0].per_n[0].ks_rho},
        {"ks_rho": ("< 0.06", lambda v: v < 0.06)},
    ),
    # ks_rho is the sampler route, a diagnostic beside the exact law.
    "C6": Check(
        (_config(m.Regime("P6", c=1.0, alpha=0.5), _GAUSSIAN, 2.0, [2000], 2000,
                 100_000, 13),),
        lambda reps: {"ks_exact": _ks_vs_half_normal(reps[0].per_n[0]),
                      "ks_rho": reps[0].per_n[0].ks_rho},
        {"ks_exact": ("< 0.06", lambda v: v < 0.06)},
    ),
    "C7": Check(
        (_config(m.Regime("P5", c=-1.0, alpha=0.25), _GAUSSIAN, 1.0, [4000], 1000,
                 100_000, 17),),
        lambda reps: {"abs_corr": abs(reps[0].per_n[0].component_correlation)},
        {"abs_corr": ("> 0.95", lambda v: v > 0.95)},
    ),
    "C8": Check(
        (_config(m.Regime("P1", rho=0.5), _GAUSSIAN, 1.0, [500, 1000, 2000, 4000, 8000],
                 2000, 1000, 31),
         _config(m.Regime("P3"), _GAUSSIAN, 1.0, [500, 1000, 2000, 4000, 8000],
                 2000, 1000, 37)),
        lambda reps: {"stationary_slope": reps[0].rate_fit["rho"]["slope"],
                      "unit_root_slope": reps[1].rate_fit["rho"]["slope"]},
        {"stationary_slope": ("-0.50 +- 0.05", lambda v: abs(v + 0.50) <= 0.05),
         "unit_root_slope": ("-1.50 +- 0.07", lambda v: abs(v + 1.50) <= 0.07)},
    ),
}
