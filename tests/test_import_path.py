"""``import ar1mc`` loads numpy only, and every ``ar1mc`` command runs
without scipy, writing the same bytes as with it.

Each check runs in a fresh interpreter, because the test session itself
has imported scipy.  ``sys.modules["scipy"] = None`` makes any import of
scipy fail there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"
MAIN = "from ar1mc.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def python(code, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def write_config(path, regime):
    path.write_text(json.dumps({
        "regime": regime, "model": {"id": "gaussian"}, "mu": 1.0,
        "n_list": [60, 80], "replications": 100, "limit_draws": 1000, "seed": 3,
    }))
    return path


def test_cli_imports_without_scipy(tmp_path):
    done = python(NO_SCIPY + "import ar1mc, ar1mc.cli\n", cwd=tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("workers", [1, 2])
def test_unit_root_mc_runs_without_scipy(tmp_path, workers):
    config = write_config(tmp_path / "p3.json", {"tag": "P3"})
    done = python(NO_SCIPY + MAIN, "mc", "--config", config, "--workers", workers,
                  "--out", tmp_path / "report.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "report.json").read_text())["per_n"][1]["valid"] == 100


def test_explosive_limit_sample_runs_without_scipy(tmp_path):
    done = python(NO_SCIPY + MAIN, "limit-sample", "--regime", "P2", "--rho", "1.5",
                  "--mu", "1", "--draws", "1000", "--out", tmp_path / "draws.csv",
                  cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert len((tmp_path / "draws.csv").read_text().splitlines()) == 1001


def test_cli_imports_no_process_pool(tmp_path):
    code = (
        "import sys\n"
        "import ar1mc.cli\n"
        "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    done = python(code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("workers", [1, 2])
def test_stationary_run_imports_no_scipy_module(tmp_path, workers):
    config = write_config(tmp_path / "p1.json", {"tag": "P1", "rho": 0.5})
    code = (
        "import sys\n"
        "from ar1mc.cli import _load_config\n"
        "from ar1mc.montecarlo import run_experiment\n"
        "report = run_experiment(_load_config(sys.argv[1]), workers=int(sys.argv[2]))\n"
        "assert report.per_n[1]['valid'] == 100\n"
        "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not scipy, scipy\n"
    )
    done = python(code, config, workers, cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def assert_same_bytes_without_scipy(tmp_path, argv, out_name):
    """``ar1mc argv --out <file>`` exits 0 and writes the same bytes with
    scipy hidden as with scipy importable."""
    outputs = []
    for prelude, tag in ((NO_SCIPY, "hidden"), ("import sys\n", "present")):
        out = tmp_path / f"{tag}-{out_name}"
        done = python(prelude + MAIN, *argv, "--out", out, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_stationary_mc_without_scipy_writes_the_same_report(tmp_path, workers):
    config = write_config(tmp_path / "p1.json", {"tag": "P1", "rho": 0.5})
    assert_same_bytes_without_scipy(tmp_path, ["mc", "--config", config, "--workers", workers],
                                    "report.json")


def test_stationary_simulate_without_scipy_writes_the_same_csv(tmp_path):
    assert_same_bytes_without_scipy(tmp_path, ["simulate", "--regime", "P1", "--rho", "0.5",
                                               "--mu", "1", "--n", "50"], "path.csv")
