"""Innovation distributions and their truncated-variance normalizers.

Each model is a mean-zero iid error law together with the analytic
truncated second moment ``l(x) = E[e^2 1{|e| <= x}]`` and a declared
variance class: either ``l(x) -> sigma^2`` (finite variance) or
``l(x) -> infinity`` slowly (``l(2x)/l(x) -> 1``).  The normalizing
sequence ``b_n`` is defined by

    b_0 = inf{x >= 1 : l(x) > 0},
    b_n = inf{s >= b_0 + 1 : l(s)/s^2 <= 1/n},

which guarantees ``n * l(b_n) <= b_n**2``.  In the finite-variance case
``b_n`` behaves like ``sigma * sqrt(n)`` and ``l(b_n)`` replaces
``sigma^2`` in every scaling rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf

from .rng import generator, keyed_generators

_ROOT2 = math.sqrt(2.0)
_ROOT_2_PI = math.sqrt(2.0 / math.pi)

__all__ = [
    "InnovationModel",
    "gaussian",
    "uniform_sym",
    "rademacher",
    "pareto_tail2",
    "custom",
    "model_from_config",
    "eval_l",
    "sample_innovations",
    "compute_bn",
    "ell_at_bn",
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
    _ell: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _sample: Callable[[np.random.Generator, int], np.ndarray] = field(repr=False)

    @property
    def has_finite_variance(self) -> bool:
        return self.variance is not None


def eval_l(model: InnovationModel, x) -> float | np.ndarray:
    """Truncated second moment ``l(x) = E[e^2 1{|e| <= x}]`` at ``x >= 0``."""
    if isinstance(x, (int, float)):
        if x < 0:
            raise ValueError("l(x) is defined for x >= 0")
        return float(model._ell(float(x)))
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("l(x) is defined for x >= 0")
    out = model._ell(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def sample_innovations(model: InnovationModel, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` iid innovations; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return model._sample(generator(seed), int(n))


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
        if isinstance(a, float):
            return s2 * (math.erf(a / _ROOT2) - a * _ROOT_2_PI * math.exp(-0.5 * a * a))
        return s2 * (erf(a / _ROOT2) - a * _ROOT_2_PI * np.exp(-0.5 * a * a))

    def sample(rng, n):
        return sigma * rng.standard_normal(n)

    return InnovationModel("gaussian", s2, ell, sample)


def uniform_sym(sigma: float = 1.0) -> InnovationModel:
    """Uniform on [-a, a] with a = sigma*sqrt(3), so the variance is sigma^2."""
    s2 = _scale_variance(sigma)
    a = sigma * math.sqrt(3.0)

    def ell(x):
        u = min(x, a) if isinstance(x, float) else np.minimum(x, a)
        return u ** 3 / (3.0 * a)

    def sample(rng, n):
        return rng.uniform(-a, a, n)

    return InnovationModel("uniform", s2, ell, sample)


def rademacher() -> InnovationModel:
    """Symmetric +/-1 innovations; l(x) = 1{x >= 1}."""

    def ell(x):
        if isinstance(x, float):
            return 1.0 if x >= 1.0 else 0.0
        return np.where(x >= 1.0, 1.0, 0.0)

    def sample(rng, n):
        return rng.integers(0, 2, n).astype(float) * 2.0 - 1.0

    return InnovationModel("rademacher", 1.0, ell, sample)


def pareto_tail2() -> InnovationModel:
    """Symmetric density |x|^-3 on |x| >= 1: infinite variance, l(x) = 2*log(x).

    P(|e| > t) = t^-2 for t >= 1, so |e| = 1/sqrt(U) samples the magnitude
    exactly; an independent sign flip makes the law symmetric.
    """

    def ell(x):
        if isinstance(x, float):
            return 2.0 * math.log(x) if x >= 1.0 else 0.0
        return np.where(x >= 1.0, 2.0 * np.log(np.maximum(x, 1.0)), 0.0)

    def sample(rng, n):
        mag = 1.0 / np.sqrt(1.0 - rng.random(n))
        sign = rng.integers(0, 2, n).astype(float) * 2.0 - 1.0
        return mag * sign

    return InnovationModel("pareto2", None, ell, sample)


def custom(
    name: str,
    ell: Callable[[np.ndarray], np.ndarray],
    sample: Callable[[np.random.Generator, int], np.ndarray],
    variance: float | None,
) -> InnovationModel:
    """User-supplied model; ``variance`` must be declared explicitly
    (sigma^2 > 0, or None for the slowly-varying-to-infinity class).

    ``ell`` must accept python floats as well as numpy arrays (numpy-style
    ufunc code handles both).
    """
    if variance is not None and not variance > 0:
        raise ValueError("declared variance must be positive (or None)")
    return InnovationModel(name, variance, ell, sample)


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

_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=256)
def _positivity_edge(model: InnovationModel, s_max: float) -> float:
    """inf{x >= 1 : l(x) > 0}, located by bisection to a few ulps."""
    if eval_l(model, 1.0) > 0.0:
        return 1.0
    lo, hi = 1.0, 2.0
    while eval_l(model, hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > s_max:
            raise ValueError(
                f"l(x) of model {model.name!r} never becomes positive below {s_max:g}"
            )
    while hi - lo > 4.0 * _EPS * hi:
        mid = 0.5 * (lo + hi)
        if eval_l(model, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def compute_bn(model: InnovationModel, n: int, s_max: float = 1e12) -> float:
    """The n-th normalizer ``b_n``; ``n = 0`` returns ``b_0``.

    The crossing of ``l(s)/s^2 = 1/n`` is bracketed by geometric growth of
    the upper end (``l(s)/s^2`` is eventually decreasing for every model
    satisfying the slow-variation condition), solved by Brent's method,
    then polished by iterating ``s = sqrt(n*l(s))`` so that flat regions
    of ``l`` resolve the crossing exactly.  The returned value always
    satisfies ``n*l(b_n) <= b_n**2`` in floating point.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    b0 = _positivity_edge(model, s_max)
    if n == 0:
        return b0
    floor = b0 + 1.0
    target = 1.0 / n

    def ratio_excess(s):
        return eval_l(model, s) / (s * s) - target

    if ratio_excess(floor) <= 0.0:
        return floor
    lo, hi = floor, 2.0 * floor
    while ratio_excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > s_max:
            raise ValueError(
                f"no s <= {s_max:g} with l(s)/s^2 <= 1/{n} for model "
                f"{model.name!r}; its l is inconsistent with slow variation"
            )
    base = brentq(ratio_excess, lo, hi, xtol=1e-12, rtol=1e-12)
    # Polish with the fixed point s = sqrt(n*l(s)): a contraction wherever
    # l varies slower than s^2 (all admissible models), and exact in one
    # step when l is flat at the crossing (two-point laws).  Bail out if
    # an ill-behaved custom l drives it away from the bracketed root.
    root = base
    for _ in range(64):
        nxt = math.sqrt(n * eval_l(model, root))
        if not (floor <= nxt and abs(nxt - base) <= 1e-8 * base):
            break
        converged = abs(nxt - root) <= 2.0 * _EPS * root
        root = nxt
        if converged:
            break
    guard = 0
    while n * eval_l(model, root) > root * root:
        root = math.nextafter(root, math.inf)
        guard += 1
        if guard > 100_000:
            raise RuntimeError("could not certify n*l(b_n) <= b_n^2 near the root")
    return float(root)


def ell_at_bn(model: InnovationModel, n: int) -> float:
    """Convenience: ``l(b_n)``, the variance proxy entering every rate."""
    return float(eval_l(model, compute_bn(model, n)))
