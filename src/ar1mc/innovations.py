"""Innovation distributions and their truncated-variance normalizers.

Each model is a mean-zero iid error law together with the analytic
truncated second moment ``l(x) = E[e^2 1{|e| <= x}]`` and a declared
variance class: either ``l(x) -> sigma^2`` (finite variance) or
``l(x) -> infinity`` slowly (``l(2x)/l(x) -> 1``).  The normalizing
sequence ``b_n`` is defined by

    b_0 = inf{x >= 1 : l(x) > 0},
    b_n = inf{s >= b_0 + 1 : l(s)/s^2 <= 1/n},

so ``n * l(b_n) <= b_n**2``.  Only under an infinite variance does
``l(b_n)`` scale the rates (``limits.error_rates`` says why).

The module also holds the one config rule, ``ConfigValue``, and its error,
``ConfigError``, which the model, the regime and the experiment share.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from typing import Callable

import numpy as np

from .rng import generator

_ROOT2 = math.sqrt(2.0)
_ROOT_2_PI = math.sqrt(2.0 / math.pi)

__all__ = ["ConfigError", "InnovationModel", "sample_innovations", "compute_bn", "MODEL_IDS"]


class ConfigError(ValueError):
    """An invalid config value, naming the JSON key at fault."""


def _finite_real(value, what: str) -> float:
    """``value`` as a float if it is a finite int or float (bools refused)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


class ConfigValue:
    """A frozen dataclass read from and written as the JSON mapping of its
    fields, each named by its key; ``_WHAT`` names the mapping in errors."""

    @classmethod
    def from_dict(cls, raw, **nested):
        """The value of the mapping ``raw``, reading the mapping at each key
        of ``nested`` as that ConfigValue class.  A field with no default is
        a required key; an unknown key and a JSON null (a value, not an
        absent key) are refused."""
        if not isinstance(raw, dict):
            raise ConfigError(f"{cls._WHAT} config must be a mapping")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown {cls._WHAT} config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
        if missing:
            raise ConfigError(f"missing {cls._WHAT} config keys: {missing}")
        for key, value in raw.items():
            if value is None:
                raise ConfigError(f"{cls._WHAT} config key {key!r} must not be null")
        return cls(**{key: nested[key].from_dict(value) if key in nested else value
                      for key, value in raw.items()})

    def to_dict(self) -> dict:
        """The JSON mapping of this value: None fields are left out, a nested
        value is written as its own mapping and a tuple as a list."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ConfigValue):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            if value is not None:
                out[f.name] = value
        return out


# --- the built-in laws -----------------------------------------------------


def _gaussian_ell(x, sigma):
    """l(x) = sigma^2 * (erf(a/sqrt(2)) - a*sqrt(2/pi)*exp(-a^2/2)),  a = x/sigma."""
    a = x / sigma
    return sigma * sigma * (math.erf(a / _ROOT2) - a * _ROOT_2_PI * math.exp(-0.5 * a * a))


def _half_width(sigma):
    """Uniform on [-a, a] with a = sigma*sqrt(3) has variance sigma^2."""
    return sigma * math.sqrt(3.0)


def _uniform_ell(x, sigma):
    a = _half_width(sigma)
    return min(x, a) ** 3 / (3.0 * a)


def _draw_rows(rngs, out, draw, signed=False):
    """Per row of ``out``, with its generator from ``rngs``: ``rng.<draw>(out=row)``,
    then if ``signed`` ceil(n/64) raw Philox words, before ``rngs`` advances.
    Returns ``out``, or if ``signed`` the (rows, n) int8 +-1 numerators: value
    64j + k is 1 - 2*bit, -1 where bit k of word j, least significant first, is set."""
    words = np.empty((len(out), -(-out.shape[1] // 64) * signed), np.uint64)
    for row, word, rng in zip(out, words, rngs):
        if draw:
            getattr(rng, draw)(out=row)
        if signed:
            word[:] = rng.bit_generator.random_raw(word.size)
    if not signed:
        return out
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=out.shape[1], bitorder="little")
    return np.subtract(1, np.add(bits, bits, out=bits), out=bits).view(np.int8)


def _gaussian_fill(rngs, out, sigma):
    """sigma * ``standard_normal()``, with no pass at sigma = 1 (x * 1.0 is x bit for bit)."""
    _draw_rows(rngs, out, "standard_normal")
    return out if sigma == 1.0 else np.multiply(out, sigma, out=out)


def _uniform_fill(rngs, out, sigma):
    """-a + 2a*U for U = ``random()``: the floats of ``uniform(-a, a)``."""
    a = _half_width(sigma)
    return np.subtract(np.multiply(_draw_rows(rngs, out, "random"), 2.0 * a, out=out), a, out=out)


def _pareto_fill(rngs, out, sigma):
    """P(|e| > t) = t^-2 for t >= 1, so |e| = 1/sqrt(U) samples the magnitude
    exactly; an independent sign, the divide's +-1 numerator, makes the law
    symmetric ((-1)/s is -(1/s) bit for bit)."""
    signs = _draw_rows(rngs, out, "random", signed=True)
    return np.divide(signs, np.sqrt(np.subtract(1.0, out, out=out), out=out), out=out)


# model id -> its law: whether it takes sigma, its variance class, l(x, sigma)
# and fill(rngs, out, sigma), which fills and returns the (rows, n) array out, row
# i from generator i of rngs, the arithmetic once per chunk (sigma None if unused).
_Law = namedtuple("_Law", "takes_sigma finite_variance ell fill")
_LAWS = {
    "gaussian": _Law(True, True, _gaussian_ell, _gaussian_fill),
    "uniform": _Law(True, True, _uniform_ell, _uniform_fill),
    # symmetric +/-1: l(x) = 1{x >= 1}
    "rademacher": _Law(False, True, lambda x, sigma: 1.0 if x >= 1.0 else 0.0,
                       lambda rngs, out, sigma: np.positive(
                           _draw_rows(rngs, out, None, signed=True), out=out)),
    # symmetric density |x|^-3 on |x| >= 1: infinite variance, l(x) = 2*log(x)
    "pareto2": _Law(False, False, lambda x, sigma: 2.0 * math.log(x) if x >= 1.0 else 0.0,
                    _pareto_fill),
}
MODEL_IDS = tuple(_LAWS)


@dataclass(frozen=True)
class InnovationModel(ConfigValue):
    """A built-in mean-zero error law: its ``id`` and, for the laws that take
    one, its scale ``sigma`` (1.0 when left out; None for the others).

    A hashable, picklable value that checks itself; its l(x), sampler and
    variance class are read from ``_LAWS`` by id.  ``variance`` is
    ``sigma^2`` (1 for rademacher) when the variance is finite, or ``None``
    when the truncated second moment diverges (slowly varying case).  The
    class is always declared, never inferred: which limit-law branch
    applies depends on it and cannot be decided from finitely many
    evaluations of ``l``.
    """

    _WHAT = "model"

    id: str
    sigma: float | None = None

    def __post_init__(self):
        law = _LAWS.get(self.id) if isinstance(self.id, str) else None
        if law is None:
            raise ConfigError(f"unknown model id {self.id!r}; expected one of {MODEL_IDS}")
        if not law.takes_sigma:
            if self.sigma is not None:
                raise ConfigError(f"model '{self.id}' takes no sigma parameter")
            return
        sigma = _finite_real(1.0 if self.sigma is None else self.sigma, "model sigma")
        if not (sigma > 0 and 0.0 < sigma * sigma < math.inf):
            raise ConfigError(f"sigma must be positive with 0 < sigma^2 < inf, got {sigma!r}")
        object.__setattr__(self, "sigma", sigma)

    @property
    def variance(self) -> float | None:
        if not _LAWS[self.id].finite_variance:
            return None
        return 1.0 if self.sigma is None else self.sigma * self.sigma


def eval_l(model: InnovationModel, x: float) -> float:
    """Truncated second moment ``l(x) = E[e^2 1{|e| <= x}]`` at ``x >= 0``."""
    if x < 0:
        raise ValueError("l(x) is defined for x >= 0")
    return float(_LAWS[model.id].ell(float(x), model.sigma))


def sample_innovations(model: InnovationModel, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` iid innovations; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sample_innovation_rows(model, (generator(seed),), np.empty((1, int(n))))[0]


# Values per chunk (rows x columns) in the replication blocks, the P2 limit
# series and the normal limit laws: bounds memory without affecting results.
_CHUNK_ELEMENTS = 1 << 16


@contextmanager
def _unbuffered():
    """numpy's ufunc buffer at 1024 values, then restored: a per-row broadcast of
    rows of 513-4096 values is then not buffered, 2.5x faster, with the same bits."""
    bufsize = np.setbufsize(1024)
    try:
        yield
    finally:
        np.setbufsize(bufsize)


def sample_innovation_rows(model: InnovationModel, rngs, out: np.ndarray) -> np.ndarray:
    """Fills and returns ``out`` (rows, n), row i from the i-th generator that
    the iterator ``rngs`` yields (see ``rng.substreams``), and takes no more:
    the next call starts at the next stream."""
    return _LAWS[model.id].fill(rngs, out, model.sigma)


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


def _positivity_edge(model: InnovationModel) -> float:
    """``b_0``: the smallest float ``x >= 1`` with ``l(x) > 0``, searched once per b_n."""
    return _first_true(lambda x: eval_l(model, x) > 0.0, 1.0,
                       f"l(x) of model {model.id!r} never becomes positive below {_S_MAX:g}")


def compute_bn(model: InnovationModel, n: int) -> float:
    """The n-th normalizer ``b_n``, for ``n >= 1``.

    ``b_n`` is the smallest float ``s >= b_0 + 1`` at which both float
    forms of the definition hold, ``n*l(s) <= s*s`` and
    ``l(s)/(s*s) <= 1/n``, found by doubling then bisecting down to
    adjacent floats.  That it is the smallest rests on ``l(s)/s^2``
    crossing ``1/n`` once above ``b_0 + 1``, as it does for every model
    satisfying the slow-variation condition.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b0 = _positivity_edge(model)
    target = 1.0 / n

    def settled(s):
        ell = eval_l(model, s)
        return n * ell <= s * s and ell / (s * s) <= target

    return _first_true(
        settled, b0 + 1.0,
        f"no s <= {_S_MAX:g} with l(s)/s^2 <= 1/{n} for model "
        f"{model.id!r}; its l is inconsistent with slow variation",
    )


def ell_at_bn(model: InnovationModel, n: int) -> float:
    """``l(b_n)``, the variance proxy in every rate under infinite variance."""
    return float(eval_l(model, compute_bn(model, n)))
