"""Least-squares estimation of (mu, rho) and regime-rate error scaling.

The estimator minimizes sum_t (y_t - mu - rho*y_{t-1})^2.  Writing
x = (y_0..y_{n-1}) and S for raw sums, the closed form is

    rho_hat = (n*S_xy - S_x*S_y) / Delta3,      Delta3 = n*S_xx - S_x^2,
    mu_hat  = (S_y*S_xx - S_x*S_xy) / Delta3,

and with the innovations e that generated the path the estimation errors
decompose exactly as mu_hat - mu = Delta1/Delta3, rho_hat - rho =
Delta2/Delta3 where

    Delta1 = S_xx*S_e - S_x*S_xe,
    Delta2 = n*S_xe - S_x*S_e.

All sums here are computed from mean-centered series (numpy pairwise
summation); Delta3 is a difference of large near-equal terms when the
process mean is large, and centering avoids that cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .innovations import InnovationModel, ell_at_bn
from .process import Ar1Path, Regime, resolve_rho

__all__ = ["SingularDesignError", "LsEstimate", "ls_estimate", "error_rates"]

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


def ls_estimate(path: Ar1Path) -> LsEstimate:
    """Least-squares (mu_hat, rho_hat) with the Delta decomposition."""
    x = path.lagged()
    z = path.y
    n = path.n
    if n < 2:
        raise ValueError("need n >= 2 observations")
    xbar = float(np.mean(x))
    xc = x - xbar
    sxx = float(np.sum(xc * xc))
    delta3 = n * sxx
    if delta3 <= _SINGULAR_EPS * n * float(np.sum(x * x)):
        raise SingularDesignError(
            f"lagged regressor is numerically constant (Delta3={delta3:.3e})"
        )
    zbar = float(np.mean(z))
    rho_hat = float(np.sum(xc * (z - zbar))) / sxx
    mu_hat = zbar - rho_hat * xbar
    e = path.e
    ebar = float(np.mean(e))
    sxe = float(np.sum(xc * (e - ebar)))
    delta1 = n * (ebar * sxx - xbar * sxe)
    delta2 = n * sxe
    return LsEstimate(mu_hat, rho_hat, delta1, delta2, delta3)


def error_rates(regime: Regime, model: InnovationModel, n: int) -> tuple[float, float]:
    """Divergence rates (mu_rate, rho_rate) that stabilize the errors.

    With ell = l(b_n):

        P1     sqrt(n/ell),        sqrt(n)
        P2     sqrt(n/ell),        rho^n
        P3/P4  sqrt(n/ell),        sqrt(n^3/ell)
        P5     a_n,                a_n * n^alpha
        P6     sqrt(n/ell),        sqrt(n^(3*alpha)/ell) * rho_n^n

    where under P5 the factor a_n is n^(max(alpha,1/2) - alpha/2) in the
    finite-variance case, and sqrt(n^alpha/ell) for alpha > 1/2 or
    sqrt(n^(1-alpha)) for alpha <= 1/2 in the infinite-variance case.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ell = ell_at_bn(model, n)
    tag = regime.tag
    if tag == "P1":
        return math.sqrt(n / ell), math.sqrt(n)
    if tag == "P2":
        return math.sqrt(n / ell), regime.rho ** n
    if tag in ("P3", "P4"):
        return math.sqrt(n / ell), math.sqrt(n ** 3 / ell)
    if tag == "P5":
        alpha = regime.alpha
        if model.has_finite_variance:
            a_n = n ** (max(alpha, 0.5) - 0.5 * alpha)
        elif alpha > 0.5:
            a_n = math.sqrt(n ** alpha / ell)
        else:
            a_n = math.sqrt(n ** (1.0 - alpha))
        return a_n, a_n * n ** alpha
    # P6
    rho_n = resolve_rho(regime, n)
    return math.sqrt(n / ell), math.sqrt(n ** (3.0 * regime.alpha) / ell) * rho_n ** n
