"""Committed sha256s of fixed-seed ``ar1mc`` outputs.

``tests/golden_reports.json`` holds, for each config below, the sha256 of
the report JSON and of the replication CSV that ``ar1mc mc`` writes, next
to the report's flattened fields, so that a mismatch names the fields
that moved.  Entries listed with workers (1, 2) must give the same bytes
under both.  The registry also records the numpy version it was built
with: a numpy upgrade that moves bytes fails here, and that is a finding
about the stream contract, not noise.

A change that moves report bytes on purpose rewrites the entries of the
regimes it moves, and lists the moves with ``scripts/report_diff.py``:

    PYTHONPATH=src python tests/test_golden_reports.py P2

``CLI_PINS`` below holds the sha256 of the CSVs that ``ar1mc simulate``
and ``ar1mc limit-sample`` write, and of the JSON that ``ar1mc estimate``
writes for each ``simulate`` CSV, which the registry does not cover; they
check the streamed CSV writer, each limit law and the fit of a path read
from a file byte for byte.  A change that moves them on purpose prints the
new table with

    PYTHONPATH=src python tests/test_golden_reports.py --cli

A failing entry or pin ends its message with the tests of
``tests/test_stream_spec.py`` that fail too, run in a fresh process, so a
moved byte names the part of numpy's stream contract that moved with it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ar1mc.cli import main

REGISTRY = Path(__file__).with_name("golden_reports.json")
ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).parents[1] / "scripts" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

_SETTINGS = {"mu": 1.5, "y0": 0.75, "replications": 300, "limit_draws": 20000, "seed": 5}
_MODELS = {"gaussian": {"id": "gaussian", "sigma": 1.0}, "pareto2": {"id": "pareto2"}}
# Entry labels; P5 runs below, at and above alpha = 1/2, where its rate and
# law keep the second term, both terms (one under infinite variance) and the
# first term.
_REGIMES = {
    "P1": {"tag": "P1", "rho": 0.5},
    "P2": {"tag": "P2", "rho": 1.2},
    "P3": {"tag": "P3"},
    "P4": {"tag": "P4", "c": -2.0},
    "P5": {"tag": "P5", "c": -1.0, "alpha": 0.25},
    "P5@0.5": {"tag": "P5", "c": -1.0, "alpha": 0.5},
    "P5@0.75": {"tag": "P5", "c": -1.0, "alpha": 0.75},
    "P6": {"tag": "P6", "c": 1.0, "alpha": 0.5},
}
# Entries also run at workers 2, which must not move a byte.
_POOLED = {"P1-pareto2", "P3-gaussian"}


def _config(name: str) -> dict:
    label, model = name.split("-")
    regime = _REGIMES[label]
    n_list = [60, 120] if regime["tag"] == "P2" else [200, 400]
    return {"regime": regime, "model": _MODELS[model], "n_list": n_list, **_SETTINGS}


NAMES = [f"{label}-{model}" for label in _REGIMES for model in _MODELS]
CASES = [(name, w) for name in NAMES for w in ((1, 2) if name in _POOLED else (1,))]


def run_entry(name: str, workers: int, workdir: Path) -> tuple[bytes, bytes]:
    """The report JSON and replication CSV bytes of ``ar1mc mc`` on ``name``."""
    cfg, out, csv = workdir / f"{name}.json", workdir / "report.json", workdir / "reps.csv"
    cfg.write_text(json.dumps(_config(name)))
    code = main(["mc", "--config", str(cfg), "--out", str(out), "--csv", str(csv),
                 "--workers", str(workers)])
    assert code == 0
    return out.read_bytes(), csv.read_bytes()


def _entry(report: bytes, csv: bytes) -> dict:
    return {
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "csv_sha256": hashlib.sha256(csv).hexdigest(),
        "fields": report_diff.flatten(json.loads(report)),
    }


def failing_tests(spec: Path) -> list[str]:
    """The ids of the tests in ``spec`` that fail or error, from a fresh pytest process."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider", str(spec)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=600)
    return [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]


def spec_note() -> str:
    """The last line of a failure message here: the stream spec tests that fail too."""
    failed = failing_tests(ROOT / "tests" / "test_stream_spec.py")
    return "\nstream spec tests failing too: " + (", ".join(failed) or "none")


@pytest.fixture(scope="module")
def registry():
    return json.loads(REGISTRY.read_text())


def test_registry_lists_every_case(registry):
    assert sorted(registry["entries"]) == sorted(NAMES)


@pytest.mark.parametrize("name,workers", CASES, ids=[f"{n}-w{w}" for n, w in CASES])
def test_report_bytes_match_registry(registry, name, workers, tmp_path):
    want = registry["entries"][name]
    got = _entry(*run_entry(name, workers, tmp_path))
    moved = report_diff.moved_fields(want["fields"], got["fields"])
    where = f"{name} at workers {workers} (registry numpy {registry['numpy']}, here {np.__version__})"
    assert not moved, f"{where}: report fields moved:\n" + "\n".join(moved) + spec_note()
    assert got["report_sha256"] == want["report_sha256"], f"{where}: report bytes moved" + spec_note()
    assert got["csv_sha256"] == want["csv_sha256"], f"{where}: replication CSV moved" + spec_note()


# simulate, estimate and limit-sample entries: command-regime-model.  Each
# estimate entry fits the CSV of its simulate entry.  The limit laws run
# where the model matters (P1 and P5 through its variance class, P2 through
# its series innovations) under both models, the others under one.
CLI_NAMES = ([f"{command}-{label}-{model}" for command in ("simulate", "estimate")
              for label in ("P1", "P2", "P3") for model in _MODELS]
             + [f"limit-sample-{label}-{model}" for label in ("P1", "P2", "P5@0.5")
                for model in _MODELS]
             + [f"limit-sample-{label}-gaussian" for label in ("P3", "P6")])
CLI_PINS = {
    "simulate-P1-gaussian": "16cdc15ca66f3ff60e2722a9e2b6717cebc0a34a407f1c85aa1ca94b79cea80a",
    "simulate-P1-pareto2": "170b07d5ed46ae8e0ae71a1135fd57634efa01862b60e4ce6ebf825ee6b21c09",
    "simulate-P2-gaussian": "b2ecc4360ce65f3c708e6f781951efe01b48c1620a3e1a778c0ba37c8a4dcf1d",
    "simulate-P2-pareto2": "74d9912b0148f3e64ea204a878032b156ea0a7e9bf5767d84849a4726c4a9455",
    "simulate-P3-gaussian": "037f49484063b59cc607f540c679fc192ac88cec05ae67a1c28086e00d772e48",
    "simulate-P3-pareto2": "0bcfbc4feacf41e2a70f5d54e516edde9b41b7b52a8692ffce93bbd71dc55a7a",
    "estimate-P1-gaussian": "154e35c785ef84d185cde0ca8084e67812f402d13a16dd1ca60c09e1192d2aaa",
    "estimate-P1-pareto2": "f330e7d634089f9e219434ae6b123ac53b134b3c648baa6d446b25245eaedf78",
    "estimate-P2-gaussian": "d73879c8e18a0527714ce90a2381df8b5a20daa131ef8fa2cc514b518bde0b55",
    "estimate-P2-pareto2": "dc9be4436d2b4053aa0b414926723c213d0358b5824adce9d21beea5ebf983be",
    "estimate-P3-gaussian": "459e75ac073a8333c59b0b164826b1981cfd91b93f550ebb93b3f946570f45ee",
    "estimate-P3-pareto2": "c275ddeeefb086001b9dfdd32db6ecc9e52bfa64a111699ad19addae36b824b8",
    "limit-sample-P1-gaussian": "ea3a2d992302e8a3324f5ab3243f8c747c5a13dd65caec62c833d33cac0eef9c",
    "limit-sample-P1-pareto2": "d3321e3ef59ec983c65866ee2908bb47b9bc52663da58bcb14ca9e7d25a45657",
    "limit-sample-P2-gaussian": "807a76eb400c299c4c051b3f0141c52b223e496dfa974ee6ce7faa56fd720bc3",
    "limit-sample-P2-pareto2": "7a3fa0853bf60ff6de292b4e368e3833903eefe5715d63fcbd89556821262986",
    "limit-sample-P5@0.5-gaussian": "6551ff1f7bd1bdc1b4a6872b16ae2b83ab34d7703a95def2c28e97a2ec988b3b",
    "limit-sample-P5@0.5-pareto2": "0a886e10fad19e3fc112a2060a59cac01d938aa51f89d92acd0f3bc5c51512f3",
    "limit-sample-P3-gaussian": "9d46cbdbaaf780759bf3588696eb54269d056b58489a72ac20d79668f7f830dd",
    "limit-sample-P6-gaussian": "c1ef32ef06e94db0b8aa9c73c351340e6bc454a08e231d3f564792fa122a44ee",
}


def cli_argv(name: str, out: Path) -> list[str]:
    """The ``ar1mc`` arguments of a ``CLI_NAMES`` entry, writing to ``out``."""
    command, label, model = name.rsplit("-", 2)
    regime = _REGIMES[label]
    argv = [command, "--regime", regime["tag"], "--model", model, "--mu", "1.5", "--seed", "5"]
    argv += [f"--{key}={value!r}" for key, value in regime.items() if key != "tag"]
    argv += [f"--sigma={value!r}" for key, value in _MODELS[model].items() if key == "sigma"]
    if command == "simulate":
        argv += ["--y0", "0.75", "--n", "1000"]
    else:
        argv += ["--draws", "3000"] + (["--y0", "0.75"] if regime["tag"] == "P2" else [])
    return argv + ["--out", str(out)]


def cli_sha256(name: str, workdir: Path) -> str:
    out = workdir / "out"
    if name.startswith("estimate-"):
        path = workdir / "path.csv"
        assert main(cli_argv(name.replace("estimate", "simulate", 1), path)) == 0
        assert main(["estimate", "--in", str(path), "--out", str(out)]) == 0
    else:
        assert main(cli_argv(name, out)) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_cli_pins_list_every_case():
    assert sorted(CLI_PINS) == sorted(CLI_NAMES)


@pytest.mark.parametrize("name", CLI_NAMES)
def test_cli_csv_bytes_match_pins(name, tmp_path):
    assert cli_sha256(name, tmp_path) == CLI_PINS[name], f"{name}: output bytes moved" + spec_note()


def test_failing_tests_are_named(tmp_path):
    spec = tmp_path / "test_spec.py"
    spec.write_text("import pytest\n\n"
                    "def test_holds():\n    pass\n\n"
                    "@pytest.mark.parametrize('word', [0, 1])\n"
                    "def test_moved(word):\n    assert word == 0\n")
    assert [name.rsplit("::", 1)[1] for name in failing_tests(spec)] == ["test_moved[1]"]


def rewrite(tags) -> None:
    """Recompute the entries of regimes ``tags`` (every regime when empty)."""
    registry = json.loads(REGISTRY.read_text()) if REGISTRY.exists() else {"entries": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            if tags and _REGIMES[name.split("-")[0]]["tag"] not in tags:
                continue
            outputs = run_entry(name, 1, Path(tmp))
            if name in _POOLED and run_entry(name, 2, Path(tmp)) != outputs:
                raise SystemExit(f"{name}: workers 2 moved bytes")
            registry["entries"][name] = _entry(*outputs)
    registry["numpy"] = np.__version__
    REGISTRY.write_text(json.dumps(registry, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--cli"]:
        with tempfile.TemporaryDirectory() as tmp:
            for name in CLI_NAMES:
                print(f'    "{name}": "{cli_sha256(name, Path(tmp))}",')
    else:
        rewrite(set(sys.argv[1:]))
