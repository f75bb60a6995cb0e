"""ar1mc benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an ar1mc checkout.  The benchmark writes a config
for the workload from ``--seed`` and drives the user entry point
``ar1mc.cli.main(["mc", ...])`` in a separate warm interpreter
(``worker.py``), one experiment at a time (a closed loop with one client).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
a correctness check failed and 2 when the checkout has no ar1mc sources.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# Every child is killed once this many seconds have passed since the start,
# so that a run ends within 180 s.
DEADLINE_S = 170
# Fresh interpreters timed per run for set-up.  They start after the worker,
# so a new checkout's bytecode cache, if Python writes one, exists by then.
SETUP_SPAWNS = 3

SETUP_CODE = """\
import json, sys
import ar1mc.cli
from ar1mc.montecarlo import ExperimentConfig
with open(sys.argv[1]) as fh:
    ExperimentConfig.from_dict(json.load(fh))
"""

# Each workload: the experiment config (the seed is added per run), the
# worker count of the timed runs, whether ``mc`` writes the CSV, and the
# ceiling on the report's largest KS distance.  README.md says why each
# workload is here and where each ceiling comes from.
WORKLOADS = {
    "small_n_many_reps": {
        "config": {
            "regime": {"tag": "P1", "rho": 0.5},
            "model": {"id": "gaussian", "sigma": 1.0},
            "mu": 1.0, "n_list": [100, 200, 400],
            "replications": 10000, "limit_draws": 100000,
        },
        "workers": 1, "csv": True, "ks_ceiling": 0.13,
    },
    "unit_root_grid": {
        "config": {
            "regime": {"tag": "P3"},
            "model": {"id": "gaussian", "sigma": 1.0},
            "mu": 1.0, "n_list": [5000],
            "replications": 2000, "limit_draws": 100000, "grid_m": 2000,
        },
        "workers": 1, "csv": False, "ks_ceiling": 0.09,
    },
    "explosive_heavy": {
        "config": {
            "regime": {"tag": "P2", "rho": 1.2},
            "model": {"id": "pareto2"},
            "mu": 1.0, "n_list": [60, 90, 120],
            "replications": 4000, "limit_draws": 200000,
        },
        "workers": 1, "csv": False, "ks_ceiling": 0.28,
    },
    "heavy_tail_pool": {
        "config": {
            "regime": {"tag": "P1", "rho": 0.5},
            "model": {"id": "pareto2"},
            "mu": 1.0, "n_list": [2000, 4000, 8000, 16000],
            "replications": 2000, "limit_draws": 100000,
        },
        "workers": 2, "csv": True, "ks_ceiling": 0.09,
    },
}

# name -> unit, in the order printed.
END_TO_END = {
    "report_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
_COUNT, _SECONDS, _MICROS = "count", "s", "us"
PER_LAYER = {
    "rng.derive_seed.calls": _COUNT,
    "rng.derive_seed.self_s": _SECONDS,
    "rng.generator.calls": _COUNT,
    "rng.generator.self_s": _SECONDS,
    "innovations.sample_innovations.calls": _COUNT,
    "innovations.sample_innovations.self_s": _SECONDS,
    "process.simulate_path.calls": _COUNT,
    "process.simulate_path.self_s": _SECONDS,
    "process.simulate_path.p50_us": _MICROS,
    "process.simulate_path.p99_us": _MICROS,
    "process.obs": _COUNT,
    "estimator.ls_estimate.calls": _COUNT,
    "estimator.ls_estimate.self_s": _SECONDS,
    "estimator.ls_estimate.p50_us": _MICROS,
    "estimator.ls_estimate.p99_us": _MICROS,
    "estimator.error_rates.s": _SECONDS,
    "estimator.singular": _COUNT,
    "limits.sample_limit.s": _SECONDS,
    "limits.draws": _COUNT,
    "montecarlo.run_experiment.self_s": _SECONDS,
    "montecarlo.ks_two_sample.s": _SECONDS,
    "montecarlo.summarize.s": _SECONDS,
    "montecarlo.pool.speedup": "x",
    "montecarlo.pool.efficiency": "fraction",
    "montecarlo.ks_max": "fraction",
    "cli.main.self_s": _SECONDS,
    "cli.csv_bytes": "bytes",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": _SECONDS,
}


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv, env, deadline):
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += "\nkilled at the run's deadline"
    except BaseException:  # SIGTERM or Ctrl-C: take the whole group down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def measure_setup(config_path: Path, env, deadline) -> list[float] | None:
    """Seconds for fresh interpreters to import ar1mc and load the config."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        code, _, err = run_child([sys.executable, "-c", SETUP_CODE, str(config_path)],
                                 env, deadline)
        if code != 0:
            sys.stderr.write(err)
            return None
        times.append(perf_counter() - t0)
    return times


def provenance(root: Path, env: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            caches[f"l{level}_{(index / 'type').read_text().strip().lower()}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def end_to_end(raw: dict, setup: list[float]) -> dict:
    return {
        "report_s": statistics.median(raw["report_s"]),
        "cpu_s": statistics.median(raw["cpu_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict) -> dict:
    layers = raw["layers"]
    out = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if layer in layers:
            entry = layers[layer]
            out[name] = entry["total_s"] if field == "s" else entry[field]
    out["process.obs"] = layers["process.simulate_path"]["work"]
    out["limits.draws"] = layers["limits.sample_limit"]["work"]
    out["montecarlo.pool.speedup"] = raw["pool_speedup"]
    out["montecarlo.pool.efficiency"] = raw["pool_speedup"] / 2
    out["trace.overhead_s"] = raw["overhead_s"]
    # Facts read from the reference report (absent when that run failed).
    out["estimator.singular"] = raw.get("singular", 0)
    out["montecarlo.ks_max"] = raw.get("ks_max", 0.0)
    out["cli.csv_bytes"] = raw.get("csv_bytes", 0)
    out["cli.report_bytes"] = raw.get("report_bytes", 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ar1mc benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ar1mc" / "__init__.py").is_file():
        print(f"error: no ar1mc sources under {root / 'src'}; "
              "run from the root of an ar1mc checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    signal.signal(signal.SIGTERM, _terminate)
    deadline = perf_counter() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(dict(workload["config"], seed=args.seed), indent=2))
        code, out, err = run_child(
            [sys.executable, str(HERE / "worker.py"),
             "--config", str(config_path), "--workdir", str(workdir),
             "--workers", str(workload["workers"]), "--csv", str(int(workload["csv"])),
             "--ks-ceiling", str(workload["ks_ceiling"]),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline)
        setup = [] if code or args.trace else measure_setup(config_path, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(err)
        print(f"error: worker exited with {code}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])
    if err:
        sys.stderr.write(err)
    if setup is None:
        print("error: a set-up interpreter failed", file=sys.stderr)
        return 1

    values = per_layer(raw) if args.trace else end_to_end(raw, setup)
    units = PER_LAYER if args.trace else END_TO_END
    print("provenance " + json.dumps(provenance(root, env), sort_keys=True))
    for failure in raw["failures"]:
        print(f"FAILED: {failure}")
    if args.trace:
        print(f"spans {raw['spans']}, hooks not found {raw['missing_hooks']}")
    else:
        print(f"report_s samples {raw['report_s']}")
        print(f"cpu_s samples {raw['cpu_s']}")
        print(f"setup_s samples {setup}")
        print(f"ks_max {raw.get('ks_max')}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6f} {unit}")
    correct = raw["failed"] == 0 and not raw["failures"]
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
