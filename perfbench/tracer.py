"""Outside-in span tracer for the ar1mc pipeline.

Each hook replaces a public function on the module that *calls* it (the
callers import those names directly), so a wrapped call records one span:
name, start, end, parent span and, for some hooks, a work size taken from
the return value.  A hook whose module or attribute no longer exists is
skipped: its layer reports 0 calls and its time stays in the parent's self
time.  Every patched attribute is restored when the ``patched`` block ends.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter


def _path_len(path):
    return len(path.y)


def _rows(draws):
    return draws.shape[0]


# (span name, module whose attribute is patched, attribute, work size of the
# return value or None).  The span name is "<layer>.<function>".
HOOKS = (
    ("montecarlo.run_experiment", "ar1mc.cli", "run_experiment", None),
    ("rng.derive_seed", "ar1mc.montecarlo", "derive_seed", None),
    ("process.simulate_path", "ar1mc.montecarlo", "simulate_path", _path_len),
    ("innovations.sample_innovations", "ar1mc.process", "sample_innovations", len),
    ("rng.generator", "ar1mc.innovations", "generator", None),
    ("estimator.ls_estimate", "ar1mc.montecarlo", "ls_estimate", None),
    ("estimator.error_rates", "ar1mc.montecarlo", "error_rates", None),
    ("limits.sample_limit", "ar1mc.montecarlo", "sample_limit", _rows),
    ("montecarlo.ks_two_sample", "ar1mc.montecarlo", "ks_two_sample", None),
    ("montecarlo.summarize", "ar1mc.montecarlo", "summarize", None),
)


class Tracer:
    """Spans kept in parallel lists; index -1 as parent marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list[int] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self._span(name, None, fn, args, kwargs)

    def _span(self, name, size, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.work.append(0)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()
        if size is not None:
            self.work[idx] = int(size(result))
        return result

    def _wrap(self, name, fn, size):
        def traced(*args, **kwargs):
            return self._span(name, size, fn, args, kwargs)
        return traced

    @contextmanager
    def patched(self, hooks=HOOKS):
        """Install every available hook; restore all of them on exit."""
        saved = []
        try:
            for name, module_name, attr, size in hooks:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(name)
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, size))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layers(self) -> dict:
        """Per span name: calls, total and self seconds, durations, work."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[idx]
        out = {}
        for idx, name in enumerate(self.names):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "work": 0})
            entry["calls"] += 1
            entry["total_s"] += durations[idx]
            entry["self_s"] += durations[idx] - child[idx]
            entry["durations"].append(durations[idx])
            entry["work"] += self.work[idx]
        return out

    def root_total_s(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)
