"""Regimes for the autoregressive root and simulation of the AR(1) recursion

    y_t = mu + rho_n * y_{t-1} + e_t,   t = 1..n,

with a constant start y_0.  A regime fixes how rho_n depends on n:

    P1  |rho| < 1 fixed          (stationary)
    P2  |rho| > 1 fixed          (explosive)
    P3  rho = 1                  (unit root)
    P4  rho = 1 + c/n, c != 0    (near unit root)
    P5  rho = 1 + c/n^alpha, c < 0, alpha in (0,1)   (moderately stationary)
    P6  rho = 1 + c/n^alpha, c > 0, alpha in (0,1)   (moderately explosive)

The recursion runs on row pairs in numpy alone, in one of two forms: a running
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


def block_plan(rho: float, n: int, rows: int) -> tuple:
    """recurse_rows' plan for up to ``rows`` paths of length n at rho: (L, blocks, rho^s,
    p, w, lanes), p = rho^(j-s) and w = rho^(s-j) at j = 1..L tiled to n (empty at rho = 1,
    which uses neither), and the work space lanes (ceil(rows/2), blocks, L, 2)."""
    halvings = -math.log2(abs(rho)) if rho else math.inf  # log2(1/|rho|)
    size = n if halvings <= 0 else max(1, min(n, int(_SPAN / halvings)))
    blocks = -(-n // size)
    s = 0 if abs(rho) > 1 else (size + 1) // 2
    k = np.arange(1 - s, size + 1 - s) if rho != 1.0 else np.arange(0)
    p, w = (np.tile(_powers(rho, sign * k), blocks)[:n] for sign in (1, -1))
    return size, blocks, rho ** s, p, w, np.empty((-(-rows // 2), blocks, size, 2))


def recurse_rows(mu: float, rho: float, y0: float, e: np.ndarray, path: np.ndarray | None = None,
                 plan: tuple | None = None) -> np.ndarray:
    """y_1..y_n for each row of innovations ``e`` (rows, n), all from y0, as the
    view path[:, 1:] of ``path`` (rows, n + 1), whose column 0 takes y0; ``e`` is
    unchanged.  ``path`` and ``plan``, block_plan(rho, n, rows), are made when not given.

    Row 2i + k runs in lane k of pair i, so the lanes' complex128 view adds two
    rows' running sums at once, each with the floats of its own row.  At rho = 1
    that is the running sum of x = mu + e from y0 + x_1.  Other roots take the
    closed form in blocks of the most terms L with |rho|^-L <= 2^_SPAN (one
    block when |rho| >= 1), block b holding, from the value c before it,

        y_{bL+j} = rho^(j-s) * (rho^s * c + sum_{i<=j} x_{bL+i} rho^(s-i)),  j = 1..L.

    Inside the unit disc x = mu + e, since mu's own closed form cancels as rho nears
    1, and s = ceil(L/2) keeps every power within 2^(+-_SPAN/2); rho = 0 (L = s = 1)
    gives y = x.  For |rho| > 1, x = e, s = 0 and mu adds its drift mu*(rho^t - 1)/
    (rho - 1): the exact solution rounds per term, where each step of the recursion
    would round at eps*rho^t, a fake innovation that the diverging rates amplify.
    """
    rows, n = e.shape
    size, blocks, lead, p, w, lanes = block_plan(rho, n, rows) if plan is None else plan
    path = np.empty((rows, n + 1)) if path is None else path[:rows]
    lanes = lanes[:-(-rows // 2)]
    path[:, 0] = y0
    y, pairs, z = path[:, 1:], lanes.reshape(len(lanes), -1, 2), lanes.view(np.complex128)[..., 0]
    unit, explosive = rho == 1.0, abs(rho) > 1
    pairs[rows // 2:, :, 1] = pairs[:, n:] = 0.0  # an odd chunk's spare lane, the last block's pad
    # An overflowing path is refused below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        x = e if unit or explosive else np.add(e, mu, out=y)
        for k in (0, 1):
            (np.add if unit else np.multiply)(x[k::2], mu if unit else w, out=pairs[:len(x[k::2]), :n, k])
        if unit:
            lanes[:, 0, 0] += y0
        np.cumsum(z, axis=2, out=z)  # leaves rho = 0's blocks of one term as they are
        if not unit:
            # carry_{b+1} = lead * p_L * (carry_b + z[:, b, -1]).  Each sweep forms every
            # carry from the last sweep's, in the other buffer, so k sweeps make the first
            # k + 1 exact.  The stop rule compares bytes: a sweep that moves none has met the
            # recursion; a carry reaches the next block scaled by |rho|^L < 2^-(_SPAN/2), so a few do.
            both = np.zeros((2, len(lanes), blocks, 2))
            both[:, :, 0] = lead * y0
            carry = both[0]
            for sweep in range(blocks - 1):
                old, carry = carry, both[1 - sweep % 2]
                np.add(old[:, :-1], lanes[:, :-1, -1], out=carry[:, 1:])
                carry[:, 1:] *= p[size - 1]
                carry[:, 1:] *= lead
                if carry.tobytes() == old.tobytes():
                    break
            z += carry.view(np.complex128)
        for k in (0, 1):
            if unit:
                y[k::2] = pairs[:len(y[k::2]), :n, k]
            else:
                np.multiply(pairs[:len(y[k::2]), :n, k], p, out=y[k::2])
        if explosive:
            y += mu * (p - 1.0) / (rho - 1.0)
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
