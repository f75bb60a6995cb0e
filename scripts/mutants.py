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
unedited suite fails or no mutant is selected.  Stdlib only.

Usage: python scripts/mutants.py [SUBSTRING ...]

With substrings, only the mutants whose old or new string holds one of them
run (``python scripts/mutants.py bitorder "np.add(bits"`` runs the two
sign mutants); with none, all of them run.
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
    # The stream id in counter word 0, which counts the stream's blocks:
    # stream r + 1 then starts one block into stream r.  The fresh-counter
    # references of tests/test_rng.py, the chunk and stream-map tests (their
    # streams are built from explicit counters) and the registry see it.
    ("counter[1:len(prefix) + 2] = (*prefix, i)", "counter[:len(prefix) + 1] = (i, *prefix)"),
    ("_SERIES_TOL = 1e-12", "_SERIES_TOL = 1e-9"),
    # The P2 law's per-chunk refusal of a vanished denominator: the ratio is
    # then infinite and sample_limit refuses it as an overflow, so only the
    # refusal tests (the law's error type, the command's message) see it.
    # U2's weights shifted by one term (rho^-1 ... in place of 1 ...), which
    # the P2 chunk tests, the Cauchy-case quartiles and the golden registry see.
    ("np.any(np.abs(denom) < 1e-300)", "False"),
    ("np.arange(m - 1)", "np.arange(1, m)"),
    ("math.log(abs(rho)))) + 1", "math.log(abs(rho)))) + 0"),
    ("2.0 * c * c / mu", "2.0 * c / mu"),
    ("math.sqrt(n / ell), math.sqrt(n)", "math.sqrt(n / ell), math.sqrt(n - 1)"),
    # A finite variance read as l(b_n): off b_n's floor b_0 + 1 that is close
    # to sigma^2 (1 - 6e-13 for gaussian sigma = 1 at n = 60, which the P2
    # registry entry sees), on it far below, which the large-sigma rate and
    # scale cases see.
    ("ell = model.variance if model.variance is not None else ell_at_bn(model, n)",
     "ell = ell_at_bn(model, n)"),
    ("delta2 = n * sxe", "delta2 = (n - 1) * sxe"),
    # Least squares centring e in place and multiplying there: every sum
    # keeps its bits, so only the tests that hold ls_rows and ls_sums to
    # leaving e as it was, and those that read a path's e again after
    # ls_estimate, see it.
    ("[:, np.newaxis], out=y)\n        np.add.reduce(np.multiply(xc, y, out=y), axis=1, out=sxe)",
     "[:, np.newaxis], out=e)\n        np.add.reduce(np.multiply(xc, e, out=e), axis=1, out=sxe)"),
    ("lanes[:, 0, 0] += y0", "lanes[:, 0, 0] += 0.0"),
    ('"replications": R,', '"replications": count,'),
    ('"valid": count,', '"valid": R,'),
    ("np.count_nonzero(valid)", "np.count_nonzero(~valid)"),
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
    ('"standard_normal")\n    return out if sigma == 1.0 else np.multiply(out, sigma, out=out)',
     '"standard_normal")\n    return out if sigma == 1.0 else np.multiply(out, sigma * sigma, out=out)'),
    # The pass skipped at every sigma, not only at 1 (where x * 1.0 is x).
    ("return out if sigma == 1.0 else", "return out if sigma > 0.0 else"),
    # The pareto2 and rademacher signs: bit k of raw word j, counted from the
    # least significant, signs value 64j + k, and a set bit is -1.  Reading
    # each byte's bits most significant first moves signs but keeps them
    # fair, which the chunk-fill oracle of tests/test_innovations.py and the
    # golden registry see; dropping the doubling makes the numerator 1 - bit,
    # so every negative value becomes 0, which the sign-law and edge-value
    # tests see too.  Drawing more words than ceil(n/64) is not listed: the
    # extra words follow the row's last draw, so no value moves.
    ('bitorder="little"', 'bitorder="big"'),
    ("np.add(bits, bits, out=bits)", "bits"),
    # The refusals that every caller now shares: least squares on a path
    # whose estimates overflow, and the config reader's three rules (a JSON
    # null, a required key left out, an unknown key).
    ("if not np.all(np.isfinite(fields)):", "if False:"),
    ("if value is None:", "if False:"),
    ("if missing:", "if False:"),
    ("if unknown:", "if False:"),
    # The order of the in-place steps: the normal limit law reads z1 after
    # overwriting it.
    ("                u = a21 * z1\n                z1 *= a11\n",
     "                z1 *= a11\n                u = a21 * z1\n"),
    # The singular-design guard's raw sum of squares without its n*xbar^2
    # term, which is the centred sum itself: the guard then holds only where
    # that sum is 0, and a raw sum that overflows is not refused.  The guard
    # tests of tests/test_estimator.py see both (exactly constant rows, as in
    # the all-singular report, stay singular).
    ("sum_sq = sxx + n * xbar**2", "sum_sq = sxx"),
    # The blocked closed form of the recursion: the factor rho^s on each
    # carry, a single sweep of the carries (right only while no carry
    # reaches past the next block), and the floor of one term per block that
    # keeps rho = 0 (and roots so small that 1/rho nears overflow) from the
    # weight 1/rho.
    ("                carry[:, 1:] *= lead\n", ""),
    ("for sweep in range(blocks - 1):", "for sweep in range(min(1, blocks - 1)):"),
    ("max(1, min(n, int(_SPAN / halvings)))", "max(2, min(n, int(_SPAN / halvings)))"),
    # The P3/P4 factor.  The series switch back at |c| = 1e-3: the closed form
    # is then off by about 300 eps at c = 0.1, which only the exact-decimal
    # factor test sees.  The sign of a12, which the P4 covariance cases see.
    # s = 1/(e^c - 1) taken as such for every c: below c = 709.78 it agrees
    # with the e^-c form to within ulps, and only the factor test past that
    # point (c = 720 and 1e300), where e^c overflows, fails it.
    ("_GROWTH_SERIES = 0.5", "_GROWTH_SERIES = 1e-3"),
    ("-math.copysign(1.0, c)", "math.copysign(1.0, c)"),
    ("if c > 0 else 1.0 / math.expm1(c)", "if c > math.inf else 1.0 / math.expm1(c)"),
    # The P1 factor's 1 - rho^2 unfactored, which loses about 2e5 eps at
    # rho = 0.999999 but nothing at the registry's rho = 0.5: only the
    # exact-decimal factor test sees it.
    ("math.sqrt((1.0 - rho) * (1.0 + rho))", "math.sqrt(1.0 - rho * rho)"),
    # An undefined correlation written as NaN, which is not JSON: only the
    # strict parse of a P5 report with a point-mass limit sees it.
    ("        return None\n    return sums[2] / denom",
     '        return float("nan")\n    return sums[2] / denom'),
    # A CSV row format with 16 significant digits in place of repr, which
    # does not round-trip every float: the limit-sample pins of
    # tests/test_cli.py and its bit-for-bit parse of the law see it.
    ('"draw,comp1,comp2", "%d,%r,%r\\n"', '"draw,comp1,comp2", "%d,%.16g,%.16g\\n"'),
    # The ufunc buffer of the block engine and the limit laws left set on
    # exit: no value moves, but the caller's numpy state does, which only the
    # restore tests of tests/test_montecarlo.py and tests/test_limits.py see
    # (after a run or a draw, and after one that raises).
    ("np.setbufsize(bufsize)", "bufsize"),
    # Every chunk's centred sums written to the block's first slice: later
    # chunks overwrite the first one's rows and the block's other rows keep
    # whatever np.empty held, which the stream-map tests of
    # tests/test_montecarlo.py (blocks of several chunks) and the golden
    # registry see.
    ("sums[:, lo:lo + len(e)]", "sums[:, :len(e)]"),
    # The recursion's row pairs: lane 1 - k read back into the rows of lane
    # k (every row off, a one-row path too, which reads the spare lane), and
    # an odd chunk's spare lane or the last block's pad left as the buffer
    # held it.  No row reads either, so only the NaN-filled lane tests of
    # tests/test_process.py see those two.
    ("np.multiply(pairs[:len(y[k::2]), :n, k], p", "np.multiply(pairs[:len(y[k::2]), :n, 1 - k], p"),
    ("pairs[rows // 2:, :, 1] = pairs[:, n:] = 0.0", "pairs[:, n:] = 0.0"),
    ("pairs[rows // 2:, :, 1] = pairs[:, n:] = 0.0", "pairs[rows // 2:, :, 1] = 0.0"),
]
# The other exact-arithmetic oracles (the P5 and P6 factor entries,
# ``error_rates`` and ``ls_rows``) have no mutant that they alone kill: the
# golden registry holds each of those values for its regimes byte for byte,
# in the report's rates and limit fields and the replication CSV, so every
# edit that moves them by more than the oracles' few eps moves a pinned byte
# too.  What the oracles add is that the values are right, not only
# unchanged.
#
# Not listed, because it is equivalent: swapping the arguments of a KS call
# (``ks_two_sample(limit[:, 0], s_mu)``).  ks_two_sample evaluates the gaps
# at the points of the smaller sample whichever argument holds it, and
# |k/|a| - j/|b|| is the same float in either order, so every report byte
# stays; TestKs checks both orders against the pooled formula.  Nor is
# comparing the carry sweeps as floats rather than as bytes
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


def selected(substrings) -> list:
    """The mutants whose old or new string holds one of ``substrings``; all
    of them when none is given."""
    return [(old, new) for old, new in MUTANTS
            if not substrings or any(s in old or s in new for s in substrings)]


def main(substrings) -> int:
    mutants = selected(substrings)
    if not mutants:
        print(f"error: no mutant holds any of {substrings}", file=sys.stderr)
        return 2
    names = [source_file(ROOT, old).name for old, _ in mutants]
    passed, seconds = run(None)
    if not passed:
        print(f"error: Tier-1 fails without any mutant ({seconds:.0f} s)", file=sys.stderr)
        return 2
    print(f"baseline  passed    {seconds:5.0f} s", flush=True)
    survivors = 0
    for i, ((old, new), name) in enumerate(zip(mutants, names), 1):
        passed, seconds = run((old, new))
        survivors += passed
        verdict = "survived" if passed else "killed"
        print(f"{i:>8}  {verdict:<8}  {seconds:5.0f} s  {name}: {old} -> {new}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
