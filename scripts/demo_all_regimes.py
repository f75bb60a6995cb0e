#!/usr/bin/env python3
"""Quick tour: one moderate experiment per regime, with the KS distance of
the scaled estimation errors against the regime's limit law.

Usage: python scripts/demo_all_regimes.py [--reps 1000] [--seed 20177]
"""

import argparse
import time

from ar1mc import ExperimentConfig, InnovationModel, Regime, run_experiment

GAUSSIAN = InnovationModel("gaussian", 1.0)
CASES = [
    ("stationary", Regime("P1", rho=0.5), GAUSSIAN, 1.0, 2000),
    ("stationary / heavy tails", Regime("P1", rho=0.5), InnovationModel("pareto2"), 1.0, 4000),
    ("explosive", Regime("P2", rho=1.2), GAUSSIAN, 1.0, 60),
    ("unit root", Regime("P3"), GAUSSIAN, 1.0, 2000),
    ("near unit root", Regime("P4", c=-2.0), GAUSSIAN, 1.0, 2000),
    ("moderately stationary", Regime("P5", c=-1.0, alpha=0.25), GAUSSIAN, 1.0, 2000),
    ("moderately explosive", Regime("P6", c=1.0, alpha=0.5), GAUSSIAN, 2.0, 2000),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20177)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    print(f"{'case':<28} {'tag':<4} {'n':>6} {'ks_mu':>8} {'ks_rho':>8} {'corr':>8} {'sec':>6}")
    for name, regime, model, mu, n in CASES:
        cfg = ExperimentConfig(
            regime=regime, model=model, mu=mu, n_list=(n,),
            replications=args.reps, limit_draws=50_000, seed=args.seed,
        )
        t0 = time.time()
        block = run_experiment(cfg, workers=args.workers).per_n[0]
        print(f"{name:<28} {regime.tag:<4} {n:>6} {block['ks_mu']:>8.4f} "
              f"{block['ks_rho']:>8.4f} {block['component_correlation']:>8.4f} "
              f"{time.time() - t0:>6.1f}")


if __name__ == "__main__":
    main()
