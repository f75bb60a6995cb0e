"""The limit distributions of the scaled estimation errors.

``sample_limit`` is the entry point: it checks its inputs once and draws
from the regime's law a (draws, 2) array whose columns are the limits of
the scaled mu-error and rho-error:

    P1      (X1, X2) from two independent normals W1 ~ N(0,1) and
            W2 ~ N(0, 1/(1-rho^2)):  X2 = (1-rho^2) W2 always, and
            X1 = W1 - mu(1+rho)/sigma * W2 with finite variance sigma^2,
            X1 = W1 when the truncated variance diverges.
    P2      (W1, (rho^2-1) U1 / (U2 + mu*rho/(rho-1))) where U1, U2 are
            independent weighted series of raw (unnormalized) fresh
            innovations from the actual error model -- the explosive limit
            is distribution specific, so no Gaussian shortcut is valid here.
    P3/P4   (Y1/d, Y2/(mu*d)), linear in W(1) and the Wiener integral
            int_0^1 G_c dW of the deterministic growth curve
            G_c(s) = int_0^s exp(c*u) du, hence exactly bivariate normal.
    P5      the rank-one pair (mu/(c*d), 1/d) * Z  (degenerate joint law).
    P6      (V1, (2c^2/mu) V2) with independent centered normals.
"""

from __future__ import annotations

import math

import numpy as np

from .innovations import InnovationModel
from .process import Regime
from .rng import generator

__all__ = [
    "growth_mean",
    "growth_mean_sq",
    "growth_dispersion",
    "default_truncation",
    "sample_limit",
]

# Rows of innovations drawn per chunk by the explosive sampler; bounds
# memory at ~chunk*M doubles without affecting results.
_CHUNK_ROWS = 4096


# --- integrals of the growth curve G_c(s) = int_0^s exp(c*u) du ------------


def growth_mean(c: float) -> float:
    """int_0^1 G_c(s) ds = (exp(c) - 1 - c)/c^2, = 1/2 at c = 0."""
    if abs(c) < 1e-3:
        # power series sum_k c^k/(k+2)!; truncation error < 1e-24 here
        acc, term, fact = 0.0, 1.0, 2.0
        for k in range(8):
            acc += term / fact
            term *= c
            fact *= k + 3
        return acc
    return (math.expm1(c) - c) / (c * c)


def growth_mean_sq(c: float) -> float:
    """int_0^1 G_c(s)^2 ds, = 1/3 at c = 0."""
    if abs(c) < 1e-3:
        coeff = (1.0 / 3.0, 1.0 / 4.0, 7.0 / 60.0, 1.0 / 24.0, 31.0 / 2520.0)
        return sum(co * c ** k for k, co in enumerate(coeff))
    return (math.expm1(2.0 * c) / (2.0 * c) - 2.0 * math.expm1(c) / c + 1.0) / (c * c)


def growth_dispersion(c: float) -> float:
    """d = int G_c^2 - (int G_c)^2 > 0; the shared denominator at P3/P4."""
    return growth_mean_sq(c) - growth_mean(c) ** 2


# --- per-regime laws --------------------------------------------------------
#
# Each takes the plain parameters of its law and a fresh generator; the
# order of the draws from ``rng`` fixes the sample for a given seed.


def _stationary_law(rho, mu, sigma2, draws, rng) -> np.ndarray:
    """P1; ``sigma2`` is the model variance, or None when it diverges."""
    w1 = rng.standard_normal(draws)
    w2 = rng.standard_normal(draws) / math.sqrt(1.0 - rho * rho)
    if sigma2 is not None:
        sigma = math.sqrt(sigma2)
        comp1 = w1 - (mu * (1.0 + rho) / sigma) * w2
    else:
        comp1 = w1
    comp2 = (1.0 - rho * rho) * w2
    return np.column_stack([comp1, comp2])


def default_truncation(rho: float, tol: float = 1e-12) -> int:
    """Smallest M with |rho|^-M < tol; series tails beyond M are negligible."""
    if not abs(rho) > 1:
        raise ValueError("truncation is defined for |rho| > 1")
    return int(math.ceil(-math.log(tol) / math.log(abs(rho)))) + 1


def _explosive_law(rho, mu, y0, model, truncation, draws, rng) -> np.ndarray:
    """P2: a standard normal and a ratio of two weighted innovation series.

    U1 = sum_{t<=M} rho^-(M-t) eps_t and
    U2 = rho*y0 + rho * sum_{t<M} rho^-t eps'_t use disjoint fresh draws
    from ``model``, truncated once rho^-M < 1e-12.  The series stay raw
    (not divided by sqrt(l(b_M))): the rate rho^n carries no l(b_n), so the
    innovation scale must meet the shift mu*rho/(rho-1) and y0 unchanged.
    """
    m = default_truncation(rho) if truncation is None else int(truncation)
    if abs(rho) ** (-m) > 1e-12:
        raise ValueError(f"truncation M={m} too small: |rho|^-M must be < 1e-12")
    shift = mu * rho / (rho - 1.0)
    w1 = rng.standard_normal(draws)
    # weights rho^-(M-t), t = 1..M, and rho^-t, t = 1..M-1
    w_u1 = rho ** -(m - np.arange(1, m + 1, dtype=float))
    w_u2 = rho ** -np.arange(1, m, dtype=float)
    u1 = np.empty(draws)
    u2 = np.empty(draws)
    for lo in range(0, draws, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, draws)
        rows = hi - lo
        eps1 = model._sample(rng, rows * m).reshape(rows, m)
        u1[lo:hi] = np.sum(eps1 * w_u1, axis=1)
        eps2 = model._sample(rng, rows * (m - 1)).reshape(rows, m - 1)
        u2[lo:hi] = rho * y0 + rho * np.sum(eps2 * w_u2, axis=1)
    denom = u2 + shift
    if np.any(np.abs(denom) < 1e-300):
        raise FloatingPointError("explosive limit denominator vanished")
    comp2 = (rho * rho - 1.0) * u1 / denom
    return np.column_stack([w1, comp2])


def _unit_root_law(c, mu, draws, rng) -> np.ndarray:
    """P3 (c = 0) and P4 (c != 0).

    With W1 = W(1) and I = int G_c dW,
        Y1 = W1 int G_c^2 - int G_c * I,   Y2 = I - W1 int G_c,
    and the pair is (Y1/d, Y2/(mu*d)).  G_c is deterministic, so (W1, I)
    is bivariate normal with Var W1 = 1, Var I = int G_c^2 and
    Cov = int G_c.  Writing I = g W1 + sqrt(d) Z with g = int G_c and Z
    independent of W1 gives the pair exactly as
        (W1 - (g/sqrt(d)) Z,  Z/(mu sqrt(d))).
    """
    if mu == 0.0:
        raise ValueError("unit-root limit requires mu != 0")
    w1 = rng.standard_normal(draws)
    z = rng.standard_normal(draws)
    g = growth_mean(c)
    root_d = math.sqrt(growth_dispersion(c))
    return np.column_stack([w1 - (g / root_d) * z, z / (mu * root_d)])


def _moderately_stationary_law(c, alpha, mu, sigma2, draws, rng) -> np.ndarray:
    """P5 (c < 0): with independent V12, V14 ~ N(0, -1/(2c)), both scaled
    errors are multiples of one variable Z, so the pair is exactly
    rank one:  (mu/(c*d) * Z, Z/d).  The indicator structure of (Z, d)
    differs between the variance branches and is applied literally,
    including the double activation at alpha = 1/2 in the finite branch.
    """
    spread = math.sqrt(-1.0 / (2.0 * c))
    v12 = rng.standard_normal(draws) * spread
    v14 = rng.standard_normal(draws) * spread
    if sigma2 is not None:
        sigma = math.sqrt(sigma2)
        z = np.zeros(draws)
        d = 0.0
        if alpha >= 0.5:
            z += (mu * sigma / c) * v12
            d += mu * mu / (-2.0 * c ** 3)
        if alpha <= 0.5:
            z += sigma2 * v14
            d += sigma2 / (-2.0 * c)
    else:
        if alpha > 0.5:
            z = (mu / c) * v12
            d = mu * mu / (-2.0 * c ** 3)
        else:
            z = v14
            d = 1.0 / (-2.0 * c)
    if d == 0.0:  # alpha > 1/2 leaves only the mu^2 term
        raise ValueError("moderately stationary limit with alpha > 1/2 requires mu^2 > 0")
    return np.column_stack([(mu / (c * d)) * z, z / d])


def _moderately_explosive_law(c, mu, draws, rng) -> np.ndarray:
    """P6 (c > 0): independent (V21, V23) ~ N(0,1) x N(0, 1/(2c)) give
    (V21, (2c^2/mu) V23)."""
    if mu == 0.0:
        raise ValueError("moderately explosive limit requires mu != 0")
    v21 = rng.standard_normal(draws)
    v23 = rng.standard_normal(draws) * math.sqrt(1.0 / (2.0 * c))
    return np.column_stack([v21, (2.0 * c * c / mu) * v23])


def sample_limit(
    regime: Regime,
    mu: float,
    model: InnovationModel,
    draws: int,
    seed: int,
    truncation: int | None = None,
    y0: float = 0.0,
) -> np.ndarray:
    """``draws`` pairs from the limit law of the scaled errors under ``regime``.

    ``model`` picks the variance branch (P1, P5) and supplies the series
    innovations (P2); ``truncation`` and ``y0`` enter only the P2 law.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if not (math.isfinite(mu) and math.isfinite(y0)):
        raise ValueError("mu and y0 must be finite")
    rng = generator(seed)
    tag = regime.tag
    # Draws that overflow are refused below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        if tag == "P1":
            out = _stationary_law(regime.rho, mu, model.variance, draws, rng)
        elif tag == "P2":
            out = _explosive_law(regime.rho, mu, y0, model, truncation, draws, rng)
        elif tag == "P3":
            out = _unit_root_law(0.0, mu, draws, rng)
        elif tag == "P4":
            out = _unit_root_law(regime.c, mu, draws, rng)
        elif tag == "P5":
            out = _moderately_stationary_law(
                regime.c, regime.alpha, mu, model.variance, draws, rng)
        else:
            out = _moderately_explosive_law(regime.c, mu, draws, rng)
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"{tag} limit draws overflow double precision at these parameters")
    return out
