"""Each regime's error rates and the limit law of its scaled errors.

``error_rates`` gives the divergence rates that scale the estimation
errors at sample size n.  ``sample_limit`` is the entry point of the laws:
it checks its inputs once and draws from the regime's law a (draws, 2)
array whose columns are the limits of the scaled mu-error and rho-error.
P5's rates and law keep one or both of two terms, as ``_p5_terms``
decides.

Under P1 and P3-P6 the limit is bivariate normal for every innovation
model, so each of these regimes is one entry of ``_normal_factor``: a 2x2
matrix A with (comp1, comp2) = A (Z1, Z2) for independent standard
normals Z1, Z2, hence covariance A A^T.  The model enters only through its
variance class (P1, P5).  P5 is rank one; P3/P4 are linear in W(1) and the
Wiener integral of the deterministic growth curve G_c(s) = int_0^s exp(c*u) du.

P2 alone is not normal: ``_explosive_law`` draws (W1, (rho^2-1) U1 /
(U2 + mu*rho/(rho-1))) with U1, U2 independent weighted series of raw
innovations from the actual error model.
"""

from __future__ import annotations

import math

import numpy as np

from .innovations import _CHUNK_ELEMENTS, InnovationModel, _unbuffered, ell_at_bn, sample_innovation_rows
from .process import Regime, resolve_rho
from .rng import generator, substreams

__all__ = ["error_rates", "sample_limit"]

# The P2 series are cut once |rho|^-M falls below this.
_SERIES_TOL = 1e-12


# --- integrals of the growth curve G_c(s) = int_0^s exp(c*u) du ------------

# Below this |c| the closed form of the P3/P4 factor cancels by about 1/c^2,
# so the integrals are summed as power series instead.
_GROWTH_SERIES = 0.5


def _growth_series(c: float) -> tuple[float, float]:
    """(int G_c, int G_c^2) as the series sum c^k/(k+2)! and
    sum (2^(k+2) - 2) c^k/((k+3) (k+2)!); at |c| < 1/2 the tail after 20
    terms is below 1e-21 relative."""
    mean = mean_sq = 0.0
    term = 0.5  # c^k/(k+2)!
    for k in range(20):
        mean += term
        mean_sq += (2.0 ** (k + 2) - 2.0) * term / (k + 3)
        term *= c / (k + 3)
    return mean, mean_sq


# --- the rates -------------------------------------------------------------


def _p5_terms(alpha: float, variance: float | None) -> tuple[bool, bool]:
    """Which of P5's two terms survive at ``alpha``.  The first (mu) term
    does from alpha = 1/2 on when the model's ``variance`` is finite, and
    only beyond 1/2 when it is None; the second up to alpha = 1/2."""
    first = alpha >= 0.5 if variance is not None else alpha > 0.5
    return first, alpha <= 0.5


def error_rates(regime: Regime, model: InnovationModel, n: int) -> tuple[float, float]:
    """Divergence rates (mu_rate, rho_rate) that stabilize the errors.

    With ell = sigma^2 when the model's variance is finite, else l(b_n):

        P1     sqrt(n/ell),        sqrt(n)
        P2     sqrt(n/ell),        rho^n
        P3/P4  sqrt(n/ell),        sqrt(n^3/ell)
        P5     a_n,                a_n * n^alpha
        P6     sqrt(n/ell),        sqrt(n^(3*alpha)/ell) * rho_n^n

    where under P5 the factor a_n is n^(max(alpha,1/2) - alpha/2) in the
    finite-variance case, and in the infinite-variance case sqrt(n^alpha/ell)
    when the first term survives (alpha > 1/2), else sqrt(n^(1-alpha)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ell = model.variance if model.variance is not None else ell_at_bn(model, n)
    tag = regime.tag
    if tag == "P1":
        return math.sqrt(n / ell), math.sqrt(n)
    if tag == "P2":
        return math.sqrt(n / ell), regime.rho ** n
    if tag in ("P3", "P4"):
        return math.sqrt(n / ell), math.sqrt(n ** 3 / ell)
    if tag == "P5":
        alpha = regime.alpha
        first, _ = _p5_terms(alpha, model.variance)
        if model.variance is not None:
            a_n = n ** ((alpha if first else 0.5) - 0.5 * alpha)
        elif first:
            a_n = math.sqrt(n ** alpha / ell)
        else:
            a_n = math.sqrt(n ** (1.0 - alpha))
        return a_n, a_n * n ** alpha
    # P6
    rho_n = resolve_rho(regime, n)
    return math.sqrt(n / ell), math.sqrt(n ** (3.0 * regime.alpha) / ell) * rho_n ** n


# --- the limit laws --------------------------------------------------------


def default_truncation(rho: float) -> int:
    """Smallest M with |rho|^-M < _SERIES_TOL; series tails beyond M are negligible."""
    if not abs(rho) > 1:
        raise ValueError("truncation is defined for |rho| > 1")
    return int(math.ceil(-math.log(_SERIES_TOL) / math.log(abs(rho)))) + 1


def _explosive_law(rho, mu, y0, model, seed, out) -> None:
    """P2 into ``out`` (2, draws): a standard normal and a ratio of two weighted innovation series.

    U1 = sum_{s<M} rho^-s eps_s and U2 = rho*y0 + sum_{s<M-1} rho^-s eps'_s
    (that is, rho * sum_{1<=t<M} rho^-t eps'_t) use disjoint fresh draws
    from ``model``, truncated once rho^-M < _SERIES_TOL.  The series stay raw
    (not divided by sqrt(l(b_M))): the rate rho^n carries no l(b_n), so the
    innovation scale must meet the shift mu*rho/(rho-1) and y0 unchanged.

    Chunk c holds k = max(1, _CHUNK_ELEMENTS // (2M-1)) draws, from stream
    (c,) under seed (``rng.substreams``): its k W1 normals, then one row of
    2M-1 innovations per draw, whose first M columns give U1 and last M-1
    give U2, weighted in place in one buffer of k rows.
    """
    m = default_truncation(rho)
    weights = rho ** -np.concatenate((np.arange(m), np.arange(m - 1)), dtype=float)
    step = max(1, _CHUNK_ELEMENTS // (2 * m - 1))
    buf = np.empty((step, 2 * m - 1))
    chunks = substreams(seed, (), range(-(-out.shape[1] // step)))
    for lo, rng in zip(range(0, out.shape[1], step), chunks):
        w1, u1 = out[:, lo:lo + step]
        rng.standard_normal(out=w1)
        eps = sample_innovation_rows(model, (rng,), buf[:len(w1)].reshape(1, -1)).reshape(len(w1), -1)
        eps *= weights
        np.add.reduce(eps[:, :m], axis=1, out=u1)
        denom = np.add.reduce(eps[:, m:], axis=1, out=eps[:, 0])  # U2's sum, in U1's spent column 0
        denom += rho * y0
        denom += mu * rho / (rho - 1.0)
        if np.any(np.abs(denom) < 1e-300):
            raise FloatingPointError("explosive limit denominator vanished")
        u1 *= rho * rho - 1.0
        u1 /= denom


def _normal_factor(regime: Regime, mu: float, variance: float | None):
    """The factor A = ((a11, a12), (a21, a22)) of the normal law under P1, P3-P6.

    ``variance`` is the model's sigma^2, or None when it diverges.
    """
    tag = regime.tag
    if tag == "P1":
        # (W1 - mu(1+rho)/sigma W2, (1-rho^2) W2) with W2 ~ N(0, 1/(1-rho^2));
        # the coupling term drops when the variance diverges.  Factored, 1 - rho^2
        # keeps full precision as |rho| nears 1.
        rho = regime.rho
        root = math.sqrt((1.0 - rho) * (1.0 + rho))
        coupling = 0.0 if variance is None else -(mu * (1.0 + rho) / math.sqrt(variance)) / root
        return (1.0, coupling), (0.0, root)
    if tag == "P5":
        # Rank one: (mu/(c*d) Z, Z/d) with Z = k1 V12 + k2 V14 and V12, V14
        # iid N(0, -1/(2c)).  The finite branch keeps both terms at alpha = 1/2.
        c, alpha = regime.c, regime.alpha
        s2 = 1.0 if variance is None else variance
        first, second = _p5_terms(alpha, variance)
        k1 = mu * math.sqrt(s2) / c if first else 0.0
        k2 = s2 if second else 0.0
        d = (mu * mu / (-2.0 * c ** 3) if first else 0.0) + (s2 / (-2.0 * c) if second else 0.0)
        if d == 0.0:  # alpha > 1/2 leaves only the mu^2 term
            raise ValueError("moderately stationary limit with alpha > 1/2 requires mu^2 > 0")
        spread = math.sqrt(-1.0 / (2.0 * c))
        lead = mu / (c * d)
        return (lead * k1 * spread, lead * k2 * spread), (k1 * spread / d, k2 * spread / d)
    if mu == 0.0:
        kind = "moderately explosive" if tag == "P6" else "unit-root"
        raise ValueError(f"{kind} limit requires mu != 0")
    if tag == "P6":
        # (V21, (2c^2/mu) V23) with V23 ~ N(0, 1/(2c))
        c = regime.c
        return (1.0, 0.0), (0.0, 2.0 * c * c / mu * math.sqrt(1.0 / (2.0 * c)))
    # P3 (c = 0) and P4: with g = int G_c, d = int G_c^2 - g^2 and I = g W(1) +
    # sqrt(d) Z the Wiener integral int G_c dW, the pair (Y1/d, Y2/(mu*d)) is
    # (W(1) - (g/sqrt(d)) Z, Z/(mu sqrt(d))).  Beyond the series g = (1/s - c)/c^2
    # and d = (c - 2 + 2cs)/(2 c^4 s^2) with s = 1/(e^c - 1), taken from e^-c for
    # c > 0: the factor needs s alone, which neither overflows nor cancels.
    c = 0.0 if tag == "P3" else regime.c
    if abs(c) < _GROWTH_SERIES:
        g, g2 = _growth_series(c)
        root_d = math.sqrt(g2 - g * g)
        return (1.0, -g / root_d), (0.0, 1.0 / (mu * root_d))
    s = math.exp(-c) / -math.expm1(-c) if c > 0 else 1.0 / math.expm1(c)
    r = math.sqrt((c - 2.0 + 2.0 * c * s) / 2.0)
    return (1.0, -math.copysign(1.0, c) * (1.0 - c * s) / r), (0.0, c * (c * abs(s)) / (mu * r))


def sample_limit(regime: Regime, mu: float, model: InnovationModel, draws: int, seed: int,
                 y0: float = 0.0) -> np.ndarray:
    """``draws`` pairs from the limit law of the scaled errors under ``regime``.

    ``model`` picks the variance branch (P1, P5) and supplies the series
    innovations (P2); ``y0`` enters only the P2 law.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if not (math.isfinite(mu) and math.isfinite(y0)):
        raise ValueError("mu and y0 must be finite")
    out = np.empty((2, draws))
    # Draws that overflow are refused below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"), _unbuffered():
        if regime.tag == "P2":
            _explosive_law(regime.rho, mu, y0, model, seed, out)
        else:
            (a11, a12), (a21, a22) = _normal_factor(regime, mu, model.variance)
            rng = generator(seed)
            for z in out:
                rng.standard_normal(out=z)
            for lo in range(0, draws, _CHUNK_ELEMENTS):
                z1, z2 = out[:, lo:lo + _CHUNK_ELEMENTS]
                u = a21 * z1
                z1 *= a11
                z1 += a12 * z2
                z2 *= a22
                z2 += u
    # min and max carry any NaN or infinity, and need no mask the size of out
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise OverflowError(f"{regime.tag} limit draws overflow double precision at these parameters")
    return out.T
