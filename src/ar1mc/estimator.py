"""Least-squares estimation of (mu, rho) from one path or a block of paths.

The estimator minimizes sum_t (y_t - mu - rho*y_{t-1})^2.  Writing
x = (y_0..y_{n-1}), e for the innovations that generated the path and S for
raw sums, its estimation errors decompose exactly as

    mu_hat - mu   = Delta1/Delta3,      Delta1 = S_xx*S_e - S_x*S_xe,
    rho_hat - rho = Delta2/Delta3,      Delta2 = n*S_xe - S_x*S_e,
                                        Delta3 = n*S_xx - S_x^2,

so every estimate here is its truth plus its Delta ratio, from four sums of
x and e that one call, ls_deltas, takes row by row.  A path read from a file
has no truth: it is fitted with truth (0, 0) and y as its own innovations
(y_t = 0 + 0*y_{t-1} + y_t), so its estimates are the Delta ratios of y.

All sums here are computed from mean-centered series (numpy pairwise
summation); Delta3 is a difference of large near-equal terms when the
process mean is large, and centering avoids that cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import Ar1Path

__all__ = ["SingularDesignError", "LsEstimate", "ls_estimate"]

# Relative floor for Delta3: below this the lagged regressor is constant
# to working precision and the normal equations are singular.
_SINGULAR_EPS = 1e-12


class SingularDesignError(ValueError):
    """Raised when Delta3 <= eps * n * sum(y_{t-1}^2)."""


@dataclass(frozen=True)
class LsEstimate:
    mu_hat: float
    rho_hat: float
    delta1: float
    delta2: float
    delta3: float


def ls_deltas(path: np.ndarray, e: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, ...]:
    """Delta1, Delta2, Delta3 and the singular-design mask of each row of the paths
    ``path`` (rows, n + 1), y_0..y_n, with innovations ``e`` (rows, n), from the
    row's centred sums.  The C-contiguous ``work`` (rows * n values or more) takes
    the centred lagged series; y = path[:, 1:] is consumed as the work space of the
    products and ``e`` is only read.  Every sum runs along a row, so a row gets the
    same floats in a chunk of the block engine as on its own in ls_estimate.  A
    singular row's Delta1 and Delta2 are NaN.  Refuses every row if any row's sums
    of squares of the lagged series overflow."""
    rows, n = e.shape
    x, y, xc = path[:, :-1], path[:, 1:], work.reshape(-1)[:rows * n].reshape(rows, n)
    xbar, sxx, ebar, sxe = np.empty((4, rows))
    # Overflow is refused below; a singular row's S_xe is NaN before any product.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(x, np.divide(np.add.reduce(x, axis=1, out=xbar), n, out=xbar)[:, np.newaxis], out=xc)
        np.add.reduce(np.square(xc, out=y), axis=1, out=sxx)
        np.subtract(e, np.divide(np.add.reduce(e, axis=1, out=ebar), n, out=ebar)[:, np.newaxis], out=y)
        np.add.reduce(np.multiply(xc, y, out=y), axis=1, out=sxe)
        sum_sq = sxx + n * xbar**2  # sum(x^2), no cancellation (Chan, Golub & LeVeque 1983)
        delta3 = n * sxx
        if not (np.all(np.isfinite(delta3)) and np.all(np.isfinite(sum_sq))):
            raise OverflowError("sums of squares of the lagged series overflow double precision")
        singular = delta3 <= _SINGULAR_EPS * n * sum_sq
        sxe = np.where(singular, np.nan, sxe)
        return n * (ebar * sxx - xbar * sxe), n * sxe, delta3, singular


def ls_estimate(path: Ar1Path) -> LsEstimate:
    """Least-squares (mu_hat, rho_hat) with the Delta decomposition, from one
    ls_deltas call on a two-row block: row 0 fits y as its own innovations with
    truth (0, 0), whose Delta ratios are the estimates, and row 1 fits e, which
    gives the Deltas.  Row 0 takes y scaled by 2^-k, k = max(0, exponent of
    max|y|), so that ybar * S_xx stays finite wherever the fit is, and its ratios
    are scaled back by 2^k: exact, unless a scaled value falls subnormal.  The
    path's y and e are kept.

    Raises SingularDesignError when the lagged regressor is numerically
    constant, and OverflowError when an estimate or a Delta is not finite.
    """
    n = path.n
    if n < 2:
        raise ValueError("need n >= 2 observations")
    k = max(0, int(np.frexp(np.max(np.abs(path.y)))[1]))
    rows = np.empty((2, n + 1))
    rows[:, 0], rows[:, 1:] = path.y0, path.y
    deltas = ls_deltas(rows, np.stack([np.ldexp(path.y, -k), path.e]), np.empty(2 * n))
    (mu_num, delta1), (rho_num, delta2), (_, delta3), (_, singular) = (v.tolist() for v in deltas)
    if singular:
        raise SingularDesignError(f"lagged regressor is numerically constant (Delta3={delta3:.3e})")
    with np.errstate(over="ignore"):
        fields = [*np.ldexp([mu_num / delta3, rho_num / delta3], k).tolist(), delta1, delta2, delta3]
    if not np.all(np.isfinite(fields)):
        raise OverflowError("least-squares estimates overflow double precision")
    return LsEstimate(*fields)
