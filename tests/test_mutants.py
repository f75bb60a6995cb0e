"""Every edit that ``scripts/mutants.py`` makes still matches exactly one
place in ``src/ar1mc``, so the probe cannot rot into mutants that change
nothing (or change more than the one formula they name)."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"


def _load():
    spec = importlib.util.spec_from_file_location("mutants", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_edit_matches_one_place():
    mutants = _load()
    assert len(mutants.MUTANTS) >= 12
    for old, new in mutants.MUTANTS:
        assert old != new
        mutants.source_file(mutants.ROOT, old)  # raises unless exactly one match


def test_substrings_select_mutants():
    mutants = _load()
    assert mutants.selected([]) == mutants.MUTANTS
    signs = mutants.selected(["bitorder", "np.add(bits"])
    assert signs == [('bitorder="little"', 'bitorder="big"'),
                     ("np.add(bits, bits, out=bits)", "bits")]
    assert mutants.selected(["bitorder", "np.add(bits", "ddof=1"]) == [("ddof=1", "ddof=0")] + signs
    assert mutants.selected(["no such edit"]) == []
