"""Every function the benchmark's span tracer hooks must still exist.

The tracer skips a hook whose module attribute is gone and reports 0 calls
for that layer, so a renamed or dropped import would otherwise pass
silently.  ``perfbench/tracer.py`` is loaded by file path, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


@pytest.mark.parametrize("hook", _hooks(), ids=lambda hook: hook[0])
def test_hooked_attribute_is_callable(hook):
    _, module_name, attr, _ = hook
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is missing"
