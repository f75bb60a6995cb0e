"""Innovation distributions and their truncated-variance normalizers.

Each model is a mean-zero iid error law together with the analytic
truncated second moment ``l(x) = E[e^2 1{|e| <= x}]`` and a declared
variance class: either ``l(x) -> sigma^2`` (finite variance) or
``l(x) -> infinity`` slowly (``l(2x)/l(x) -> 1``).  The normalizing
sequence ``b_n`` is defined by

    b_0 = inf{x >= 1 : l(x) > 0},
    b_n = inf{s >= b_0 + 1 : l(s)/s^2 <= 1/n},

so ``n * l(b_n) <= b_n**2``.  ``compute_bn`` returns the smallest float
at or above ``b_0 + 1`` that satisfies both float forms of that bound,
and ``b_0`` as the smallest float with ``l(b_0) > 0``.  In the
finite-variance case ``b_n`` behaves like ``sigma * sqrt(n)`` and
``l(b_n)`` replaces ``sigma^2`` in every scaling rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .rng import generator, keyed_generators

_ROOT2 = math.sqrt(2.0)
_ROOT_2_PI = math.sqrt(2.0 / math.pi)

__all__ = [
    "InnovationModel",
    "gaussian",
    "uniform_sym",
    "rademacher",
    "pareto_tail2",
    "model_from_config",
    "sample_innovations",
    "compute_bn",
    "MODEL_IDS",
]


@dataclass(frozen=True)
class InnovationModel:
    """A named mean-zero error distribution.

    ``variance`` is ``sigma^2`` when the variance is finite, or ``None``
    when the truncated second moment diverges (slowly varying case).  The
    class is always declared, never inferred: which limit-law branch
    applies depends on it and cannot be decided from finitely many
    evaluations of ``l``.
    """

    name: str
    variance: float | None
    _ell: Callable[[float], float] = field(repr=False)
    _sample: Callable[[np.random.Generator, int], np.ndarray] = field(repr=False)

    @property
    def has_finite_variance(self) -> bool:
        return self.variance is not None


def eval_l(model: InnovationModel, x: float) -> float:
    """Truncated second moment ``l(x) = E[e^2 1{|e| <= x}]`` at ``x >= 0``."""
    if x < 0:
        raise ValueError("l(x) is defined for x >= 0")
    return float(model._ell(float(x)))


def sample_innovations(model: InnovationModel, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` iid innovations; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return model._sample(generator(seed), int(n))


# Innovations per chunk (rows x columns) in the replication blocks and the
# P2 limit series alike: bounds peak memory without affecting results.
_CHUNK_ELEMENTS = 1 << 16


def sample_innovation_rows(model: InnovationModel, keys: np.ndarray, n: int) -> np.ndarray:
    """One row of ``n`` innovations per Philox key (see ``rng.philox_keys``).

    Row i is the draw of a fresh ``Generator(Philox(key=keys[i]))``, so it
    equals ``sample_innovations`` for the seed that key was derived from.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((len(keys), int(n)))
    for row, rng in zip(out, keyed_generators(keys)):
        row[:] = model._sample(rng, int(n))
    return out


# --- built-in models -------------------------------------------------------


def _finite_real(value, what: str) -> float:
    """``value`` as a float if it is a finite int or float (bools refused)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def _scale_variance(sigma: float) -> float:
    """sigma^2, which must be a positive finite float for sigma > 0."""
    s2 = sigma * sigma
    if not (sigma > 0 and 0.0 < s2 < math.inf):
        raise ValueError(f"sigma must be positive with 0 < sigma^2 < inf, got {sigma!r}")
    return s2


def gaussian(sigma: float = 1.0) -> InnovationModel:
    """N(0, sigma^2) innovations.

    l(x) = sigma^2 * (erf(a/sqrt(2)) - a*sqrt(2/pi)*exp(-a^2/2)),  a = x/sigma.
    """
    s2 = _scale_variance(sigma)

    def ell(x):
        a = x / sigma
        return s2 * (math.erf(a / _ROOT2) - a * _ROOT_2_PI * math.exp(-0.5 * a * a))

    def sample(rng, n):
        return sigma * rng.standard_normal(n)

    return InnovationModel("gaussian", s2, ell, sample)


def uniform_sym(sigma: float = 1.0) -> InnovationModel:
    """Uniform on [-a, a] with a = sigma*sqrt(3), so the variance is sigma^2."""
    s2 = _scale_variance(sigma)
    a = sigma * math.sqrt(3.0)

    def ell(x):
        return min(x, a) ** 3 / (3.0 * a)

    def sample(rng, n):
        return rng.uniform(-a, a, n)

    return InnovationModel("uniform", s2, ell, sample)


def rademacher() -> InnovationModel:
    """Symmetric +/-1 innovations; l(x) = 1{x >= 1}."""

    def ell(x):
        return 1.0 if x >= 1.0 else 0.0

    def sample(rng, n):
        return rng.integers(0, 2, n).astype(float) * 2.0 - 1.0

    return InnovationModel("rademacher", 1.0, ell, sample)


def pareto_tail2() -> InnovationModel:
    """Symmetric density |x|^-3 on |x| >= 1: infinite variance, l(x) = 2*log(x).

    P(|e| > t) = t^-2 for t >= 1, so |e| = 1/sqrt(U) samples the magnitude
    exactly; an independent sign flip makes the law symmetric.
    """

    def ell(x):
        return 2.0 * math.log(x) if x >= 1.0 else 0.0

    def sample(rng, n):
        mag = 1.0 / np.sqrt(1.0 - rng.random(n))
        sign = rng.integers(0, 2, n).astype(float) * 2.0 - 1.0
        return mag * sign

    return InnovationModel("pareto2", None, ell, sample)


MODEL_IDS = ("gaussian", "uniform", "rademacher", "pareto2")


def model_from_config(cfg: dict) -> InnovationModel:
    """Build a built-in model from ``{"id": ..., "sigma": ...}``."""
    if not isinstance(cfg, dict) or "id" not in cfg:
        raise ValueError("model config must be a mapping with an 'id' field")
    kind = cfg["id"]
    extra = set(cfg) - {"id", "sigma"}
    if extra:
        raise ValueError(f"unknown model config keys: {sorted(extra)}")
    if kind in ("gaussian", "uniform"):
        sigma = _finite_real(cfg.get("sigma", 1.0), "model sigma")
        return gaussian(sigma) if kind == "gaussian" else uniform_sym(sigma)
    if kind in ("rademacher", "pareto2"):
        if "sigma" in cfg:
            raise ValueError(f"model '{kind}' takes no sigma parameter")
        return rademacher() if kind == "rademacher" else pareto_tail2()
    raise ValueError(f"unknown model id {kind!r}; expected one of {MODEL_IDS}")


# --- the b_n sequence ------------------------------------------------------

# Searches for b_0 and b_n give up above this.
_S_MAX = 1e12


def _first_true(pred: Callable[[float], bool], lo: float, what: str) -> float:
    """The smallest float at or above ``lo`` where the monotone ``pred`` holds.

    The upper end doubles until ``pred`` holds there, raising
    ``ValueError(what)`` once it passes ``_S_MAX``; bisection then shrinks
    the bracket until its ends are adjacent floats, of which only the
    upper satisfies ``pred``.
    """
    if pred(lo):
        return lo
    hi = 2.0 * lo
    while not pred(hi):
        lo, hi = hi, 2.0 * hi
        if hi > _S_MAX:
            raise ValueError(what)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=256)
def _positivity_edge(model: InnovationModel) -> float:
    """``b_0``: the smallest float ``x >= 1`` with ``l(x) > 0``."""
    return _first_true(
        lambda x: eval_l(model, x) > 0.0, 1.0,
        f"l(x) of model {model.name!r} never becomes positive below {_S_MAX:g}",
    )


def compute_bn(model: InnovationModel, n: int) -> float:
    """The n-th normalizer ``b_n``; ``n = 0`` returns ``b_0``.

    ``b_n`` is the smallest float ``s >= b_0 + 1`` at which both float
    forms of the definition hold, ``n*l(s) <= s*s`` and
    ``l(s)/(s*s) <= 1/n``, found by doubling then bisecting down to
    adjacent floats.  That it is the smallest rests on ``l(s)/s^2``
    crossing ``1/n`` once above ``b_0 + 1``, as it does for every model
    satisfying the slow-variation condition.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    b0 = _positivity_edge(model)
    if n == 0:
        return b0
    target = 1.0 / n

    def settled(s):
        ell = eval_l(model, s)
        return n * ell <= s * s and ell / (s * s) <= target

    return _first_true(
        settled, b0 + 1.0,
        f"no s <= {_S_MAX:g} with l(s)/s^2 <= 1/{n} for model "
        f"{model.name!r}; its l is inconsistent with slow variation",
    )


def ell_at_bn(model: InnovationModel, n: int) -> float:
    """Convenience: ``l(b_n)``, the variance proxy entering every rate."""
    return float(eval_l(model, compute_bn(model, n)))
