"""Regimes for the autoregressive root and simulation of the AR(1) recursion

    y_t = mu + rho_n * y_{t-1} + e_t,   t = 1..n,

with a constant start y_0.  A regime fixes how rho_n depends on n:

    P1  |rho| < 1 fixed          (stationary)
    P2  |rho| > 1 fixed          (explosive)
    P3  rho = 1                  (unit root)
    P4  rho = 1 + c/n, c != 0    (near unit root)
    P5  rho = 1 + c/n^alpha, c < 0, alpha in (0,1)   (moderately stationary)
    P6  rho = 1 + c/n^alpha, c > 0, alpha in (0,1)   (moderately explosive)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .innovations import InnovationModel, _finite_real, sample_innovations

__all__ = ["Regime", "Ar1Path", "resolve_rho", "simulate_path"]

_TAGS = ("P1", "P2", "P3", "P4", "P5", "P6")

# Explosive paths are refused once rho^n would exceed this, instead of
# silently producing infinities.
_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class Regime:
    tag: str
    rho: float | None = None
    c: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown regime tag {self.tag!r}; expected one of {_TAGS}")
        if self.tag == "P1":
            self._need(rho=True)
            if not abs(self.rho) < 1:
                raise ValueError("P1 requires |rho| < 1")
        elif self.tag == "P2":
            self._need(rho=True)
            if not abs(self.rho) > 1:
                raise ValueError("P2 requires |rho| > 1")
        elif self.tag == "P3":
            self._need()
        elif self.tag == "P4":
            self._need(c=True)
            if self.c == 0:
                raise ValueError("P4 requires c != 0")
        elif self.tag == "P5":
            self._need(c=True, alpha=True)
            if not self.c < 0:
                raise ValueError("P5 requires c < 0")
            if not 0 < self.alpha < 1:
                raise ValueError("P5 requires alpha in (0, 1)")
        else:  # P6
            self._need(c=True, alpha=True)
            if not self.c > 0:
                raise ValueError("P6 requires c > 0")
            if not 0 < self.alpha < 1:
                raise ValueError("P6 requires alpha in (0, 1)")

    def _need(self, rho=False, c=False, alpha=False):
        for name, wanted in (("rho", rho), ("c", c), ("alpha", alpha)):
            have = getattr(self, name) is not None
            if wanted and not have:
                raise ValueError(f"regime {self.tag} requires parameter {name!r}")
            if have and not wanted:
                raise ValueError(f"regime {self.tag} does not take parameter {name!r}")
            if have:
                value = _finite_real(getattr(self, name), f"regime parameter {name!r}")
                object.__setattr__(self, name, value)

    @classmethod
    def from_config(cls, cfg: dict) -> "Regime":
        if not isinstance(cfg, dict) or "tag" not in cfg:
            raise ValueError("regime config must be a mapping with a 'tag' field")
        extra = set(cfg) - {"tag", "rho", "c", "alpha"}
        if extra:
            raise ValueError(f"unknown regime config keys: {sorted(extra)}")
        kw = {k: cfg[k] for k in ("rho", "c", "alpha") if k in cfg}
        return cls(cfg["tag"], **kw)

    def to_config(self) -> dict:
        out = {"tag": self.tag}
        for k in ("rho", "c", "alpha"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


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

    def lagged(self) -> np.ndarray:
        """The regressor series y_0..y_{n-1}."""
        return np.concatenate(([self.y0], self.y[:-1]))


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
        raise OverflowError(
            f"rho^n exceeds {_OVERFLOW_LIMIT:g} at rho={rho}, n={n}; shorten the path"
        )
    return rho


def recurse_rows(mu: float, rho: float, y0: float, e: np.ndarray) -> np.ndarray:
    """y_1..y_n for each row of innovations ``e`` (shape (rows, n)), all from y0.

    Each row is computed exactly as a path on its own would be: the same
    C-loop filter or closed form, elementwise or along the row.
    """
    rows, n = e.shape
    # An overflowing path is refused below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(rho) > 1:
            # For |rho| > 1 the recursion adds O(1) innovations onto terms of
            # size rho^t; each step then rounds at eps*|y_t|, which acts as a
            # fake innovation that the diverging rates of the error theory
            # amplify.  Building the path elementwise from the exact solution
            #     y_t = mu*(rho^t - 1)/(rho - 1) + rho^t*y0 + rho^t * sum_i e_i rho^-i
            # keeps every ingredient accurate to a few ulps of itself.
            t = np.arange(1, n + 1)
            p = np.power(rho, t)
            w = np.cumsum(e * np.power(rho, -t), axis=1)
            y = mu * (p - 1.0) / (rho - 1.0) + p * (y0 + w)
        else:
            y, _ = lfilter([1.0], [1.0, -rho], mu + e, axis=1,
                           zi=np.full((rows, 1), rho * y0))
    if not np.all(np.isfinite(y[:, -1])):
        raise OverflowError("simulated path overflowed double precision")
    return y


def simulate_path(
    regime: Regime,
    mu: float,
    y0: float,
    model: InnovationModel,
    n: int,
    seed: int,
) -> Ar1Path:
    """Simulate y_1..y_n under ``regime`` with innovations from ``model``."""
    rho = path_root(regime, mu, y0, n)
    e = sample_innovations(model, n, seed)
    y = recurse_rows(mu, rho, y0, e[np.newaxis])[0]
    return Ar1Path(mu=mu, rho=rho, y0=y0, y=y, e=e)
