#!/usr/bin/env python3
"""Mutation probe of the numeric core: does Tier-1 notice each listed edit?

For each mutant the checkout is copied to a temporary directory, one
exact-string edit is made to the copy's ``src/ar1mc``, and Tier-1 runs in
the copy under ``-x``, without the eight grid Monte Carlo lemma tests
(about half of Tier-1's time) and without ``tests/test_mutants.py``, which
fails on any edit of a listed string and so would kill every mutant.  A
mutant that makes the suite fail is killed; one that passes survived.  The
unedited copy runs first, since a suite that fails without any edit would
kill every mutant.  The checkout itself is never edited.

Prints one line per mutant and exits 1 if any mutant survived, 2 if the
unedited suite fails.  Stdlib only.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "ar1mc")

# (old, new): each old string occurs exactly once in src/ar1mc.
MUTANTS = [
    ("else alpha > 0.5", "else alpha >= 0.5"),
    ("np.quantile(err, (0.01, 0.99))", "np.quantile(err, (0.02, 0.98))"),
    ('trimmed = regime.tag in ("P2", "P6")', 'trimmed = regime.tag in ("P2",)'),
    ("_SINGULAR_EPS = 1e-12", "_SINGULAR_EPS = 1e-9"),
    ("ddof=1", "ddof=0"),
    ("_PATH_STREAM = 1", "_PATH_STREAM = 3"),
    ("_SERIES_TOL = 1e-12", "_SERIES_TOL = 1e-9"),
    ("math.log(abs(rho)))) + 1", "math.log(abs(rho)))) + 0"),
    ("2.0 * c * c / mu", "2.0 * c / mu"),
    ("math.sqrt(n / ell), math.sqrt(n)", "math.sqrt(n / ell), math.sqrt(n - 1)"),
    ("delta2 = n * sxe", "delta2 = (n - 1) * sxe"),
    ("x[:, 0] += y0", "x[:, 0] += 0.0"),
    ('"replications": len(self.singular_mask)', '"replications": self.valid'),
    ("return len(self.singular_mask) - self.singular", "return len(self.singular_mask)"),
    ("np.count_nonzero(self.singular_mask)", "np.count_nonzero(~self.singular_mask)"),
    ("np.concatenate(results)", "np.concatenate(results[::-1])"),
    ("alpha >= 0.5 if variance", "alpha > 0.5 if variance"),
    ("(alpha if first else 0.5)", "(0.5 if first else alpha)"),
    ("return first, alpha <= 0.5", "return first, alpha < 0.5"),
    ('tag == "P1" and not abs(rho) < 1', 'tag == "P1" and not abs(rho) <= 1'),
    ('tag == "P2" and not abs(rho) > 1', 'tag == "P2" and not abs(rho) >= 1'),
    ('tag == "P4" and c == 0', 'tag == "P4" and c != c'),
    ('tag == "P5" and not c < 0', 'tag == "P5" and not c <= 0'),
    ('tag == "P6" and not c > 0', 'tag == "P6" and not c >= 0'),
    ("not 0 < alpha < 1", "not 0 <= alpha < 1"),
    ("not 0 < alpha < 1", "not 0 < alpha <= 1"),
    # The innovation laws.  The last, a variance used as a scale, leaves
    # sigma = 1 unchanged; only the scale relation of tests/test_metamorphic.py
    # catches it.
    ("sigma * math.sqrt(3.0)", "sigma * math.sqrt(2.0)"),
    ("2.0 * math.log(x)", "math.log(x)"),
    ("math.exp(-0.5 * a * a)", "math.exp(-a * a)"),
    ("0.0 < sigma * sigma < math.inf", "0.0 <= sigma * sigma < math.inf"),
    ("standard_normal(out=out), sigma, out=out)", "standard_normal(out=out), sigma * sigma, out=out)"),
    # The refusals that every caller now shares: least squares on a path
    # whose estimates overflow, and the config reader's three rules (a JSON
    # null, a required key left out, an unknown key).
    ("if not np.all(np.isfinite(fields)):", "if False:"),
    ("if value is None:", "if False:"),
    ("if missing:", "if False:"),
    ("if unknown:", "if False:"),
    # The order of the in-place steps: the normal limit law reads z1 after
    # overwriting it, and least squares takes the raw sum of squares of the
    # lagged series after centring it.
    ("                u = a21 * z1\n                z1 *= a11\n",
     "                z1 *= a11\n                u = a21 * z1\n"),
    ("        sum_sq = np.sum(np.multiply(x, x, out=work), axis=1)\n"
     "        x -= xbar[:, np.newaxis]\n",
     "        x -= xbar[:, np.newaxis]\n"
     "        sum_sq = np.sum(np.multiply(x, x, out=work), axis=1)\n"),
    # The blocked closed form of the recursion: the factor rho^s on each
    # carry, a single sweep of the carries (right only while no carry
    # reaches past the next block), and the floor of one term per block that
    # keeps rho = 0 (and roots so small that 1/rho nears overflow) from the
    # weight 1/rho.
    ("        carry[:, 1:] *= lead\n", ""),
    ("for sweep in range(blocks - 1):", "for sweep in range(min(1, blocks - 1)):"),
    ("max(1, min(n, int(_SPAN / halvings)))", "max(2, min(n, int(_SPAN / halvings)))"),
    # The growth integrals: the series switch back at |c| = 1e-3, where the
    # closed forms lose up to 2e-9, and d as a plain difference at every c
    # (4e-13 at c = -1000).  Only the exact-decimal oracle sees either.
    ("_GROWTH_SERIES = 0.5", "_GROWTH_SERIES = 1e-3"),
    ("if c < -30.0:", "if c < -math.inf:"),
    # An undefined correlation written as NaN, which is not JSON: only the
    # strict parse of a P5 report with a point-mass limit sees it.
    ("        return None\n    return sums[2] / denom",
     '        return float("nan")\n    return sums[2] / denom'),
]
# Not listed, because it is equivalent: swapping the arguments of a KS call
# (``ks_two_sample(limit[:, 0], s_mu)``).  ks_two_sample evaluates the gaps
# at the points of the smaller sample whichever argument holds it, and
# |k/|a| - j/|b|| is the same float in either order, so every report byte
# stays; TestKs checks both orders against the pooled formula.  Nor is
# comparing the carry sweeps as floats rather than as bits
# (``np.array_equal(carry, old)``): the two differ only on NaN, where every
# sweep runs and the path is refused, and on the sign of a zero carry, which
# can move y only where the block sum it is added to is a zero of the other
# sign.

# ROADMAP item 5's grid Monte Carlo lemma tests.
GRID_LEMMA_TESTS = [
    "tests/test_acceptance.py::test_c10_limit_sampler_internal_consistency",
    "tests/test_limits.py::TestGrowthFunctionals::test_ito_isometry_at_zero",
    "tests/test_limits.py::TestGrowthFunctionals::test_w1_is_standard_normal",
    "tests/test_limits.py::TestUnitRootLimit::test_grid_refinement_consistency[-1.0]",
    "tests/test_limits.py::TestTimeChangedFunctionals",
]
# Checks the listed strings themselves, which the edit has just replaced.
LEFT_OUT = ["tests/test_mutants.py"]

_NOT_COPIED = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".benchmarks", ".perfbench_work")


def source_file(root: Path, old: str) -> Path:
    """The one file of ``root``'s package that holds ``old``, once."""
    hits = [(path, path.read_text().count(old)) for path in sorted((root / PACKAGE).glob("*.py"))]
    hits = [(path, count) for path, count in hits if count]
    if [count for _, count in hits] != [1]:
        raise ValueError(f"{old!r} must occur exactly once in {PACKAGE}, found {hits}")
    return hits[0][0]


def suite_passes(root: Path) -> bool:
    """Tier-1 under -x, in the checkout at ``root``, without the tests above."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += [f"--deselect={test}" for test in GRID_LEMMA_TESTS + LEFT_OUT]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(argv, cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def run(mutant) -> tuple[bool, float]:
    """(passed, seconds) of the suite in a fresh copy with ``mutant`` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "checkout")
        shutil.copytree(ROOT, root, ignore=_NOT_COPIED)
        if mutant is not None:
            old, new = mutant
            path = source_file(root, old)
            path.write_text(path.read_text().replace(old, new))
        start = time.perf_counter()
        passed = suite_passes(root)
        return passed, time.perf_counter() - start


def main() -> int:
    names = [source_file(ROOT, old).name for old, _ in MUTANTS]
    passed, seconds = run(None)
    if not passed:
        print(f"error: Tier-1 fails without any mutant ({seconds:.0f} s)", file=sys.stderr)
        return 2
    print(f"baseline  passed    {seconds:5.0f} s", flush=True)
    survivors = 0
    for i, ((old, new), name) in enumerate(zip(MUTANTS, names), 1):
        passed, seconds = run((old, new))
        survivors += passed
        verdict = "survived" if passed else "killed"
        print(f"{i:>8}  {verdict:<8}  {seconds:5.0f} s  {name}: {old} -> {new}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
