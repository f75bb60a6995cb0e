#!/usr/bin/env python3
"""Run the acceptance checks C2-C8 over a list of seeds.

Reads each check's configs and bounds from ``tests/acceptance_checks.py``,
the table ``tests/test_acceptance.py`` runs at the fixed seeds, and runs
every config at each seed in turn.  For each statistic it prints the
minimum, quartiles and maximum over the seeds, its bound and how many
seeds miss it; then, per check, the seeds at which the check fails.  It
never chooses a seed for a test: it measures how close each statistic sits
to its bound, so that a check failing after a change that moves report
bytes can be read against its swept failure rate.

Usage: PYTHONPATH=src python scripts/acceptance_sweep.py [--seeds LO:HI] [CHECK ...]

Seeds run from LO up to HI - 1 (default 1000:1030); CHECK names default
to all of C2-C8.  On a 2-core Xeon C2 and C3 take about 3 s per seed,
all seven about 14 s.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from acceptance_checks import CHECKS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("checks", nargs="*", metavar="CHECK", help=f"any of {', '.join(CHECKS)}")
    parser.add_argument("--seeds", default="1000:1030", help="LO:HI, HI excluded")
    args = parser.parse_args(argv)
    unknown = set(args.checks) - set(CHECKS)
    if unknown:
        parser.error(f"unknown checks {sorted(unknown)}")
    lo, hi = map(int, args.seeds.split(":"))
    seeds = range(lo, hi)
    print(f"seeds {lo}..{hi - 1} ({len(seeds)})")
    print(f"{'check':<6} {'statistic':<17} {'min':>8} {'q25':>8} {'median':>8} {'q75':>8} "
          f"{'max':>8}  {'bound':<22} misses")
    for name in args.checks or CHECKS:
        check = CHECKS[name]
        runs = [check.run(seed) for seed in seeds]
        for stat in runs[0]:
            values = np.array([run[stat] for run in runs])
            q = np.quantile(values, (0.0, 0.25, 0.5, 0.75, 1.0))
            rule, holds = check.bounds.get(stat, ("(diagnostic)", None))
            misses = "-" if holds is None else f"{sum(not holds(v) for v in values)}/{len(seeds)}"
            print(f"{name:<6} {stat:<17} " + " ".join(f"{v:>8.4f}" for v in q)
                  + f"  {rule:<22} {misses}")
        failing = [seed for seed, run in zip(seeds, runs) if check.failures(run)]
        print(f"{name:<6} fails at {len(failing)}/{len(seeds)} seeds: {failing}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
