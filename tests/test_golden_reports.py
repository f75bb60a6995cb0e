"""Committed sha256s of fixed-seed ``ar1mc mc`` outputs.

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
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ar1mc.cli import main

REGISTRY = Path(__file__).with_name("golden_reports.json")

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
    with contextlib.redirect_stdout(io.StringIO()):
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
    assert not moved, f"{where}: report fields moved:\n" + "\n".join(moved)
    assert got["report_sha256"] == want["report_sha256"], f"{where}: report bytes moved"
    assert got["csv_sha256"] == want["csv_sha256"], f"{where}: replication CSV moved"


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
    rewrite(set(sys.argv[1:]))
