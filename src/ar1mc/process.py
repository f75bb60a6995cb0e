"""Regimes for the autoregressive root and simulation of the AR(1) recursion

    y_t = mu + rho_n * y_{t-1} + e_t,   t = 1..n,

with a constant start y_0.  A regime fixes how rho_n depends on n:

    P1  |rho| < 1 fixed          (stationary)
    P2  |rho| > 1 fixed          (explosive)
    P3  rho = 1                  (unit root)
    P4  rho = 1 + c/n, c != 0    (near unit root)
    P5  rho = 1 + c/n^alpha, c < 0, alpha in (0,1)   (moderately stationary)
    P6  rho = 1 + c/n^alpha, c > 0, alpha in (0,1)   (moderately explosive)

The recursion runs row-wise in one of three forms: the exact closed form
for |rho| > 1, a running sum at rho = 1, and otherwise the C loop of
scipy's ``lfilter``.  That loop is the only part of scipy used here: it is
loaded from its extension file at first use, and no scipy package module
is imported.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .innovations import InnovationModel, _config_values, _finite_real, sample_innovations

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
class Regime:
    tag: str
    rho: float | None = None
    c: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        tag = self.tag
        if tag not in _TAGS:
            raise ValueError(f"unknown regime tag {tag!r}; expected one of {_TAGS}")
        for name in _NAMES:
            value, wanted = getattr(self, name), name in _PARAMS[tag]
            if wanted and value is None:
                raise ValueError(f"regime {tag} requires parameter {name!r}")
            if value is not None and not wanted:
                raise ValueError(f"regime {tag} does not take parameter {name!r}")
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
                raise ValueError(f"{tag} requires {rule}")

    @classmethod
    def from_config(cls, cfg: dict) -> "Regime":
        return cls(*_config_values(cfg, "regime", ("tag", *_NAMES)))

    def to_config(self) -> dict:
        return {"tag": self.tag, **{k: getattr(self, k) for k in _PARAMS[self.tag]}}


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
        raise OverflowError(
            f"rho^n exceeds {_OVERFLOW_LIMIT:g} at rho={rho}, n={n}; shorten the path"
        )
    return rho


@functools.cache
def load_filter():
    """The C loop of scipy's ``lfilter``: ``_linear_filter`` from scipy's
    ``signal/_sigtools`` extension, loaded from its file on first use and
    kept for the life of the process.

    Only that extension is loaded; no scipy package module is imported.
    Raises ImportError, naming scipy and the extension, when it is missing.
    """
    spec = importlib.util.find_spec("scipy")  # finds scipy without importing it
    dirs = spec.submodule_search_locations if spec is not None else None
    paths = [os.path.join(d, "signal", "_sigtools" + suffix)
             for d in dirs or () for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError("scipy's signal/_sigtools extension was not found; roots "
                          "with |rho| <= 1 other than 1 need scipy installed")
    # The last part of the module name selects the extension's init function.
    loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._sigtools", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module._linear_filter


def recurse_rows(mu: float, rho: float, y0: float, e: np.ndarray) -> np.ndarray:
    """y_1..y_n for each row of innovations ``e`` (shape (rows, n)), all from y0.

    Each row is computed exactly as a path on its own would be: the same
    C-loop filter, running sum or closed form, elementwise or along the row.
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
            y = np.cumsum(e * np.power(rho, -t), axis=1)
            y += y0
            y *= p
            y += mu * (p - 1.0) / (rho - 1.0)
        elif rho == 1.0:
            # lfilter's y_t = x_t + 1.0*y_{t-1} with y_0 = 1.0*y0, as a
            # running sum: the same additions in the same order.
            x = mu + e
            x[:, 0] += y0
            y = np.cumsum(x, axis=1, out=x)
        else:
            # lfilter's own call for this IIR filter, with its arguments.
            y, _ = load_filter()(np.array([1.0]), np.array([1.0, -rho]), mu + e, 1,
                                 np.full((rows, 1), rho * y0))
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
