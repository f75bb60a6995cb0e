"""Runs one workload in a warm interpreter and prints raw measurements.

Started by ``run.py`` from the root of a checkout, with the checkout's
``src`` first on the import path.  Every experiment goes through the user
entry point ``ar1mc.cli.main(["mc", ...])``.  The last line of standard
output is a JSON object; the exit code is 0 whenever that line is printed,
and failed checks are listed in it.

Timed mode (``--trace 0``): one warm-up run, then repeats with the same
seed for ``--seconds`` seconds (at least ``MIN_REPEATS`` of them); every
repeat's report and CSV must match the warm-up's byte for byte.  With
``--workers`` above 1 a final workers-1 run must give the same report.

Traced mode (``--trace 1``): a warm-up run, then workers-1 runs untraced,
traced and untraced again, and an untraced workers-2 run; all their reports
must match.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import HOOKS, Tracer

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import ar1mc  # noqa: E402
from ar1mc import cli  # noqa: E402

# Timed repeats per run, however short ``--seconds`` is.
MIN_REPEATS = 3
# Layers whose call count must be R * |n_list| in a workers-1 traced run.
PER_REPLICATION = ("process.simulate_path", "estimator.ls_estimate")


def cpu_seconds() -> float:
    """User + system seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Session:
    """Runs ``mc`` experiments of one config and checks their outputs."""

    def __init__(self, args):
        self.config_path = args.config
        with open(args.config) as fh:
            config = json.load(fh)
        self.replications = config["replications"]
        self.n_list = config["n_list"]
        self.ks_ceiling = args.ks_ceiling
        self.workdir = Path(args.workdir)
        self.with_csv = bool(args.csv)
        self.attempted = 0
        self.failures: list[str] = []
        self._failed_runs: set[int] = set()

    def run(self, workers: int, tracer: Tracer | None = None):
        """One experiment; returns (report bytes, csv bytes, wall s, cpu s)."""
        out = self.workdir / "report.json"
        csv = self.workdir / "reps.csv"
        for stale in (out, csv):
            stale.unlink(missing_ok=True)
        argv = ["mc", "--config", self.config_path, "--out", str(out),
                "--workers", str(workers)]
        if self.with_csv:
            argv += ["--csv", str(csv)]
        self.attempted += 1
        code = None
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            c0 = cpu_seconds()
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli.main", cli.main, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc(file=sys.stderr)
            wall = perf_counter() - t0
            cpu = cpu_seconds() - c0
        if code != 0:
            self.fail(f"mc exited with {code!r} (workers {workers})")
            return None, None, wall, cpu
        report = out.read_bytes()
        problems = self.check_report(report)
        if problems:
            self.fail("; ".join(problems))
        return report, csv.read_bytes() if self.with_csv else b"", wall, cpu

    def fail(self, message: str):
        """Count the latest run as failed."""
        self._failed_runs.add(self.attempted)
        self.failures.append(message)

    def same(self, what: str, got, want) -> None:
        """Fail the latest run when its output differs from the reference."""
        if got is not None and want is not None and got != want:
            self.fail(f"{what} differs from the reference run")

    def check_report(self, data: bytes) -> list[str]:
        report = json.loads(data)
        problems = []
        sizes = [block["n"] for block in report["per_n"]]
        if sizes != self.n_list:
            problems.append(f"report sizes {sizes} != config {self.n_list}")
        for block in report["per_n"]:
            if block["valid"] + block["singular"] != self.replications:
                problems.append(f"n={block['n']}: valid+singular != R")
            if not block["valid"]:
                problems.append(f"n={block['n']}: no valid replication")
        for section in ("per_n", "limit", "rate_fit"):
            if not all(math.isfinite(v) for v in _numbers(report[section])):
                problems.append(f"non-finite value in {section}")
        ks = ks_max(report)
        if not ks <= self.ks_ceiling:
            problems.append(f"ks_max {ks} above the workload ceiling {self.ks_ceiling}")
        return problems

    @property
    def failed(self) -> int:
        return len(self._failed_runs)


def _numbers(node):
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        yield float(node)
    elif isinstance(node, dict):
        for v in node.values():
            yield from _numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v)


def ks_max(report: dict) -> float:
    """Largest KS distance over all sample sizes and both components."""
    return max((block[key] for block in report["per_n"]
                for key in ("ks_mu", "ks_rho") if block[key] is not None), default=0.0)


def report_facts(report_bytes: bytes) -> dict:
    report = json.loads(report_bytes)
    return {
        "ks_max": ks_max(report),
        "singular": sum(block["singular"] for block in report["per_n"]),
    }


def timed(session: Session, workers: int, seconds: float) -> dict:
    ref_report, ref_csv, _, _ = session.run(workers)
    walls, cpus = [], []
    start = perf_counter()
    while len(walls) < MIN_REPEATS or perf_counter() - start < seconds:
        report, csv, wall, cpu = session.run(workers)
        session.same("report", report, ref_report)
        session.same("csv", csv, ref_csv)
        walls.append(wall)
        cpus.append(cpu)
    if workers > 1:
        report, _, _, _ = session.run(1)
        session.same("workers-1 report", report, ref_report)
    out = {"report_s": walls, "cpu_s": cpus, "peak_rss_mb": peak_rss_mb()}
    if ref_report is not None:
        out.update(report_facts(ref_report))
        out["report_bytes"] = len(ref_report)
        out["csv_bytes"] = len(ref_csv)
    return out


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def traced(session: Session, workers: int) -> dict:
    session.run(workers)  # warm-up
    ref_report, ref_csv, before_s, _ = session.run(1)
    tracer = Tracer()
    with tracer.patched():
        report, csv, traced_s, _ = session.run(1, tracer)
    session.same("traced report", report, ref_report)
    session.same("traced csv", csv, ref_csv)
    # Untraced runs on both sides of the traced one, so that a slow spell
    # of the host moves both sides of the overhead alike.
    report, _, after_s, _ = session.run(1)
    session.same("report", report, ref_report)
    plain_s = (before_s + after_s) / 2
    report, _, pool_s, _ = session.run(2)
    session.same("workers-2 report", report, ref_report)

    layers = tracer.layers()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "work": 0}
    expected = session.replications * len(session.n_list)
    for name in PER_REPLICATION:
        calls = layers.get(name, empty)["calls"]
        if calls and calls != expected:
            session.fail(f"{name} made {calls} calls, expected R*|n_list| = {expected}")
    total = tracer.root_total_s()
    self_sum = sum(entry["self_s"] for entry in layers.values())
    if self_sum > total * (1 + 1e-9):
        session.fail(f"self times sum to {self_sum} s, more than the total {total} s")

    metrics = {}
    for name, entry in ((n, layers.get(n, empty)) for n, *_ in HOOKS):
        durations = sorted(entry["durations"])
        metrics[name] = {
            "calls": entry["calls"],
            "self_s": entry["self_s"],
            "total_s": entry["total_s"],
            "p50_us": 1e6 * _quantile(durations, 0.50),
            "p99_us": 1e6 * _quantile(durations, 0.99),
            "work": entry["work"],
        }
    metrics["cli.main"] = {"self_s": layers.get("cli.main", empty)["self_s"]}
    out = {
        "layers": metrics,
        "missing_hooks": tracer.missing,
        "overhead_s": traced_s - plain_s,
        "pool_speedup": plain_s / pool_s,
        "spans": len(tracer.names),
    }
    if ref_report is not None:
        out.update(report_facts(ref_report))
        out["report_bytes"] = len(ref_report)
        out["csv_bytes"] = len(ref_csv)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--csv", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ks-ceiling", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not Path(ar1mc.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"error: imported ar1mc from {ar1mc.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    session = Session(args)
    if args.trace:
        result = traced(session, args.workers)
    else:
        result = timed(session, args.workers, args.seconds)
    result.update(attempted=session.attempted, failed=session.failed,
                  failures=session.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
