"""``import ar1mc`` loads numpy only; scipy's filter is loaded by the runs
that need it (roots with |rho| <= 1 other than 1), in the parent process.

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


def test_stationary_run_loads_the_filter_in_the_parent(tmp_path):
    config = write_config(tmp_path / "p1.json", {"tag": "P1", "rho": 0.5})
    code = (
        "import sys\n"
        "import ar1mc.cli\n"
        "from ar1mc.cli import _load_config\n"
        "from ar1mc.montecarlo import run_experiment\n"
        "assert 'scipy.signal' not in sys.modules, 'loaded at import'\n"
        "run_experiment(_load_config(sys.argv[1], None), workers=2)\n"
        "assert 'scipy.signal' in sys.modules, 'not loaded in the parent'\n"
    )
    done = python(code, config, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
