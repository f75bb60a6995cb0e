"""Regimes for the autoregressive root and simulation of the AR(1) recursion

    y_t = mu + rho_n * y_{t-1} + e_t,   t = 1..n,

with a constant start y_0.  A regime fixes how rho_n depends on n:

    P1  |rho| < 1 fixed          (stationary)
    P2  |rho| > 1 fixed          (explosive)
    P3  rho = 1                  (unit root)
    P4  rho = 1 + c/n, c != 0    (near unit root)
    P5  rho = 1 + c/n^alpha, c < 0, alpha in (0,1)   (moderately stationary)
    P6  rho = 1 + c/n^alpha, c > 0, alpha in (0,1)   (moderately explosive)

The recursion runs row-wise in numpy alone, in one of two forms: a running
sum at rho = 1, and for every other root the closed form
y_t = rho^t * (y_0 + sum_i x_i rho^-i), on blocks short enough that no
power of rho leaves the double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .innovations import (ConfigError, ConfigValue, InnovationModel, _finite_real,
                          sample_innovations)

__all__ = ["Regime", "Ar1Path", "simulate_path"]

# The parameters each regime takes, in the order of _NAMES, which is the
# order they are checked and written in.
_PARAMS = {"P1": ("rho",), "P2": ("rho",), "P3": (), "P4": ("c",),
           "P5": ("c", "alpha"), "P6": ("c", "alpha")}
_TAGS = tuple(_PARAMS)
_NAMES = ("rho", "c", "alpha")

# Explosive paths are refused once rho^n would exceed this, instead of
# silently producing infinities.
_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class Regime(ConfigValue):
    _WHAT = "regime"

    tag: str
    rho: float | None = None
    c: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        tag = self.tag
        if tag not in _TAGS:
            raise ConfigError(f"unknown regime tag {tag!r}; expected one of {_TAGS}")
        for name in _NAMES:
            value, wanted = getattr(self, name), name in _PARAMS[tag]
            if wanted and value is None:
                raise ConfigError(f"regime {tag} requires parameter {name!r}")
            if value is not None and not wanted:
                raise ConfigError(f"regime {tag} does not take parameter {name!r}")
            if value is not None:
                object.__setattr__(self, name, _finite_real(value, f"regime parameter {name!r}"))
        rho, c, alpha = self.rho, self.c, self.alpha
        for broken, rule in (
            (tag == "P1" and not abs(rho) < 1, "|rho| < 1"),
            (tag == "P2" and not abs(rho) > 1, "|rho| > 1"),
            (tag == "P4" and c == 0, "c != 0"),
            (tag == "P5" and not c < 0, "c < 0"),
            (tag == "P6" and not c > 0, "c > 0"),
            (tag in ("P5", "P6") and not 0 < alpha < 1, "alpha in (0, 1)"),
        ):
            if broken:
                raise ConfigError(f"{tag} requires {rule}")


def resolve_rho(regime: Regime, n: int) -> float:
    """The autoregressive root used at sample size ``n``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tag = regime.tag
    if tag in ("P1", "P2"):
        return regime.rho
    if tag == "P3":
        return 1.0
    if tag == "P4":
        return 1.0 + regime.c / n
    return 1.0 + regime.c / n ** regime.alpha


@dataclass(frozen=True)
class Ar1Path:
    """One simulated trajectory: y_1..y_n plus the innovations that made it."""

    mu: float
    rho: float
    y0: float
    y: np.ndarray
    e: np.ndarray

    @property
    def n(self) -> int:
        return len(self.y)


def path_root(regime: Regime, mu: float, y0: float, n: int) -> float:
    """The root rho_n of a path of length ``n``, once its inputs are checked.

    Refuses n < 2, non-finite mu or y0, and explosive roots with rho^n
    beyond the overflow limit, before any innovation is drawn.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (math.isfinite(mu) and math.isfinite(y0)):
        raise ValueError("mu and y0 must be finite")
    rho = resolve_rho(regime, n)
    if abs(rho) > 1 and n * math.log(abs(rho)) > math.log(_OVERFLOW_LIMIT):
        raise OverflowError(f"rho^n exceeds {_OVERFLOW_LIMIT:g} at rho={rho}, n={n}; shorten the path")
    return rho


# Within one block of the closed form no power of rho passes 2^(+-_SPAN/2),
# so |mu + e| from about 2^-672 to 2^674 (1e-202 to 1e202) is weighted
# inside the normal double range.
_SPAN = 700
_PLAN = [None, None]  # _closed_form's last (rho, n) and (size, blocks, s, p, w), p, w read-only


def _powers(rho: float, k: np.ndarray) -> np.ndarray:
    """rho^k for integer exponents ``k``.  Inside the unit disc a negative
    root is raised as |rho|^k with the odd powers negated, since numpy
    raises a negative base about 20 times slower; explosive roots keep the
    bits of numpy's own power."""
    if not -1.0 <= rho < 0.0:
        return np.power(rho, k)
    out = np.power(-rho, k)
    out[k % 2 == 1] *= -1.0
    return out


def _closed_form(e: np.ndarray, rho: float, start: float, mu: float) -> np.ndarray:
    """y_1..y_n of y_t = mu + rho*y_{t-1} + e_t from y_0 = start for each
    row of ``e`` (rows, n), which is unchanged, at any root but 1.

    The rows run in blocks of the most terms L with |rho|^-L <= 2^_SPAN
    (one block when |rho| >= 1), and block b holds, from the value c before it,

        y_{bL+j} = rho^(j-s) * (rho^s * c + sum_{i<=j} x_{bL+i} rho^(s-i)),  j = 1..L.

    Inside the unit disc x = mu + e, since mu's own closed form cancels as
    rho nears 1, and s = ceil(L/2) keeps every power within 2^(+-_SPAN/2);
    rho = 0 (L = s = 1) gives y = x.  For |rho| > 1, x = e, s = 0 and mu adds
    its drift mu*(rho^t - 1)/(rho - 1): the exact solution rounds per term,
    where each step of the recursion would round at eps*rho^t, a fake
    innovation that the diverging rates amplify.
    """
    rows, n = e.shape
    explosive = abs(rho) > 1
    key = (rho, n)
    if _PLAN[0] != key:  # the chunks of a replication block share one plan
        halvings = -math.log2(abs(rho)) if rho else math.inf  # log2(1/|rho|)
        size = n if halvings <= 0 else max(1, min(n, int(_SPAN / halvings)))
        blocks = -(-n // size)
        s = 0 if explosive else (size + 1) // 2
        k = np.arange(1 - s, size + 1 - s)
        p, w = _powers(rho, k), np.tile(_powers(rho, -k), blocks)[:n]
        p.flags.writeable = w.flags.writeable = False
        _PLAN[:] = key, (size, blocks, s, p, w)
    size, blocks, s, p, w = _PLAN[1]
    y = np.empty((rows, blocks, size))
    flat = y.reshape(rows, blocks * size)
    x = e if explosive else np.add(e, mu, out=flat[:, :n])
    np.multiply(x, w, out=flat[:, :n])
    flat[:, n:] = 0.0
    if size > 1:  # a block of one term is its own sum
        np.cumsum(y, axis=2, out=y)
    # carry_{b+1} = rho^s * p[-1] * (carry_b + y[:, b, -1]).  Each sweep forms
    # every carry from the last sweep's, in the other buffer, so k sweeps
    # make the first k + 1 exact, and one that moves no bit has met the
    # recursion.  A carry reaches the next block scaled by |rho|^L <
    # 2^-(_SPAN/2), so that takes a few sweeps, not one per block.
    lead = rho ** s
    both = np.zeros((2, rows, blocks))
    both[:, :, 0] = lead * start
    carry = both[0]
    for sweep in range(blocks - 1):
        old, carry = carry, both[1 - sweep % 2]
        np.add(old[:, :-1], y[:, :-1, -1], out=carry[:, 1:])
        carry[:, 1:] *= p[-1]
        carry[:, 1:] *= lead
        if np.array_equal(carry.view(np.int64), old.view(np.int64)):
            break
    y += carry[:, :, np.newaxis]
    y *= p
    y = flat[:, :n]
    if explosive:
        y += mu * (p - 1.0) / (rho - 1.0)
    return y


def recurse_rows(mu: float, rho: float, y0: float, e: np.ndarray) -> np.ndarray:
    """y_1..y_n for each row of innovations ``e`` (shape (rows, n)), all from y0.

    Each row is computed exactly as a path on its own would be: the same
    running sum or closed form, elementwise or along the row.
    """
    # An overflowing path is refused below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        if rho == 1.0:
            # y_t = x_t + y_{t-1} with x = mu + e, as a running sum.
            x = mu + e
            x[:, 0] += y0
            y = np.cumsum(x, axis=1, out=x)
        else:
            y = _closed_form(e, rho, y0, mu)
    if not np.all(np.isfinite(y[:, -1])):
        raise OverflowError("simulated path overflowed double precision")
    return y


def simulate_path(regime: Regime, mu: float, y0: float, model: InnovationModel, n: int,
                  seed: int) -> Ar1Path:
    """Simulate y_1..y_n under ``regime`` with innovations from ``model``."""
    rho = path_root(regime, mu, y0, n)
    e = sample_innovations(model, n, seed)
    y = recurse_rows(mu, rho, y0, e[np.newaxis])[0]
    return Ar1Path(mu=mu, rho=rho, y0=y0, y=y, e=e)
