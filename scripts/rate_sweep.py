#!/usr/bin/env python3
"""RMSE decay of rho_hat across sample sizes, with the fitted log-log slope.

The stationary case should give a slope near -1/2 and the unit-root case
(with a nonzero intercept) near -3/2.

Usage: python scripts/rate_sweep.py [--regime P1|P3] [--reps 2000]
"""

import argparse

from ar1mc import ExperimentConfig, Regime, gaussian, run_experiment


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--regime", choices=["P1", "P3"], default="P1")
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=20177)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    regime = Regime("P1", rho=0.5) if args.regime == "P1" else Regime("P3")
    cfg = ExperimentConfig(
        regime=regime, model=gaussian(1.0), mu=1.0,
        n_list=(500, 1000, 2000, 4000, 8000),
        replications=args.reps, limit_draws=1000, master_seed=args.seed,
    )
    report = run_experiment(cfg, workers=args.workers)
    fit = report.rate_fit
    print(f"{'n':>6} {'rmse(mu_hat)':>14} {'rmse(rho_hat)':>14}")
    for n, rm, rr in zip(fit["n_list"], fit["rmse_mu"], fit["rmse_rho"]):
        print(f"{n:>6} {rm:>14.6g} {rr:>14.6g}")
    print(f"slope mu  = {fit['mu']['slope']:+.4f} (se {fit['mu']['stderr']:.4f})")
    print(f"slope rho = {fit['rho']['slope']:+.4f} (se {fit['rho']['stderr']:.4f})")


if __name__ == "__main__":
    main()
