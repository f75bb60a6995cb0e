"""Reference constructions for the lemma-level checks of the paper.

These are independent routes to quantities the pipeline computes, or
objects the theory is stated in terms of (companion series, normalized
sums and their functional limits).  Only the tests use them.  They build
on the public functions of the ``ar1mc`` modules alone, so a reference
never shares private code with what it checks.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.signal import lfilter

from ar1mc.estimator import SingularDesignError
from ar1mc.innovations import InnovationModel, ell_at_bn, sample_innovation_rows
from ar1mc.process import Ar1Path, Regime, resolve_rho
from ar1mc.rng import generator

# Standard normals (rows x grid steps) per chunk in the grid samplers;
# bounds memory without affecting results, since the rows are drawn in
# sequence whatever their number per chunk.
_CHUNK_ELEMENTS = 1 << 16


def lagged(path) -> np.ndarray:
    """The regressor series y_0..y_{n-1} of an ``Ar1Path``."""
    return np.concatenate(([path.y0], path.y[:-1]))


def refit_residual(path) -> float:
    """max_t |y_t - mu - rho*y_{t-1} - e_t|, for round-off checks."""
    resid = path.y - (path.mu + path.rho * lagged(path) + path.e)
    return float(np.max(np.abs(resid)))


def conditioned_fixture(rng, i):
    """Random fixtures over all six regimes, explosive growth capped so that
    float64 subtraction of the estimates resolves far beyond 1e-10."""
    kind = i % 6
    mu = float(rng.normal(0.0, 2.0))
    y0 = float(rng.normal(0.0, 2.0))
    if kind == 0:
        reg, n = Regime("P1", rho=float(rng.uniform(-0.9, 0.9))), int(rng.integers(50, 1500))
    elif kind == 1:
        rho = float(rng.uniform(1.05, 1.5))
        reg, n = Regime("P2", rho=rho), max(10, min(int(rng.integers(10, 120)), int(5.0 / math.log(rho))))
    elif kind == 2:
        reg, n = Regime("P3"), int(rng.integers(50, 1500))
    elif kind == 3:
        reg, n = Regime("P4", c=float(rng.uniform(-3.0, 3.0)) or 1.0), int(rng.integers(50, 1500))
    elif kind == 4:
        reg = Regime("P5", c=float(rng.uniform(-3.0, -0.2)), alpha=float(rng.uniform(0.1, 0.9)))
        n = int(rng.integers(50, 1500))
    else:
        alpha = float(rng.uniform(0.3, 0.9))
        n = int(rng.integers(50, 800))
        c = min(1.5, 5.0 / n ** (1.0 - alpha)) * float(rng.uniform(0.3, 1.0))
        reg = Regime("P6", c=c, alpha=alpha)
    model = InnovationModel(("gaussian", "uniform", "rademacher", "pareto2")[i % 4])
    return reg, mu, y0, model, n


def normal_equations_oracle(path) -> tuple[float, float]:
    """(mu_hat, rho_hat) from explicitly formed and solved 2x2 normal equations.

    The system is assembled in the centered parametrization
    y_t = a + b*(y_{t-1} - xbar) for conditioning and solved with LAPACK,
    then mapped back to (mu_hat, rho_hat) = (a - b*xbar, b).  A lagged
    regressor that is constant to working precision raises
    SingularDesignError, as the estimator does.
    """
    x = lagged(path)
    z = path.y
    n = path.n
    xbar = float(np.mean(x))
    xc = x - xbar
    sxx = float(np.sum(xc * xc))
    if sxx <= 1e-12 * float(np.sum(x * x)):
        raise SingularDesignError("lagged regressor is numerically constant")
    design = np.array([[float(n), float(np.sum(xc))], [float(np.sum(xc)), sxx]])
    rhs = np.array([float(np.sum(z)), float(np.sum(xc * z))])
    a, b = np.linalg.solve(design, rhs)
    return float(a - b * xbar), float(b)


def exact_delta_ratios(path) -> tuple[Fraction, Fraction]:
    """(Delta1/Delta3, Delta2/Delta3) of a path in exact rational arithmetic.

    The float y0, y and e are taken as the exact binary numbers they are and
    scaled to integers over one power of two, so the raw sums
    Delta1 = S_xx S_e - S_x S_xe, Delta2 = n S_xe - S_x S_e and
    Delta3 = n S_xx - S_x^2 are formed without rounding.
    """
    ratios = [float(v).as_integer_ratio() for v in np.concatenate([lagged(path), path.e])]
    scale = max(q for _, q in ratios)  # every q is a power of two
    ints = [p * (scale // q) for p, q in ratios]
    xs, es = ints[:path.n], ints[path.n:]
    sx, se = sum(xs), sum(es)
    sxx = sum(v * v for v in xs)
    sxe = sum(a * b for a, b in zip(xs, es))
    n = path.n
    delta3 = n * sxx - sx * sx
    # Delta1 carries one power of the scale more than Delta2 and Delta3
    return Fraction(sxx * se - sx * sxe, delta3 * scale), Fraction(n * sxe - sx * se, delta3)


def fresh_stream(seed: int, *path: int) -> np.random.Generator:
    """Stream ``path`` under ``seed``, built on its own: a fresh Philox with
    ``generator(seed)``'s key and ``[0, *path]`` as its counter, padded with
    zero words (word 0 counts the stream's blocks of four 64-bit values)."""
    key = generator(seed).bit_generator.state["state"]["key"]
    counter = np.array([0, *path, 0, 0, 0][:4], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def reference_path(config, n: int, r: int) -> Ar1Path:
    """Replication r at size n of an experiment, as an ``Ar1Path`` built on
    its own: innovations from stream (1, n, r) under the seed, then the
    closed-form explosive path, lfilter at rho = 1 (a running sum) or the
    blocked closed form of ``disc_path``.  ``config`` needs only the
    regime, model, mu, y0 and seed of an ``ExperimentConfig``.  These are
    the paths the Monte Carlo engine draws and recurses in blocks of rows.
    """
    e = sample_innovation_rows(config.model, (fresh_stream(config.seed, 1, n, r),), np.empty((1, n)))[0]
    rho = resolve_rho(config.regime, n)
    mu, y0 = config.mu, config.y0
    if abs(rho) > 1:
        t = np.arange(1, n + 1)
        p = np.power(rho, t)
        y = mu * (p - 1.0) / (rho - 1.0) + p * (y0 + np.cumsum(e * np.power(rho, -t)))
    elif rho == 1.0:
        y, _ = lfilter([1.0], [1.0, -rho], mu + e, zi=np.array([rho * y0]))
    else:
        y = disc_path(mu + e, rho, y0)
    return Ar1Path(mu=mu, rho=rho, y0=y0, y=y, e=e)


def replication_reference(config, n: int, r: int) -> tuple[float, float, float, float]:
    """(mu_hat, rho_hat, mu error, rho error) of ``reference_path(config, n, r)``
    by centered least squares on 1-D sums, all NaN when the design is
    singular.  The errors are the Delta ratios Delta1/Delta3 and
    Delta2/Delta3, and the estimates are the truth (mu, rho_n) plus them:
    the row the Monte Carlo engine gives for replication r at size n.
    """
    path = reference_path(config, n, r)
    mu, rho, e, x = path.mu, path.rho, path.e, lagged(path)
    xbar = float(np.mean(x))
    xc = x - xbar
    sxx = float(np.sum(xc * xc))
    delta3 = n * sxx
    if delta3 <= 1e-12 * n * float(np.sum(x * x)):
        return (math.nan,) * 4
    ebar = float(np.mean(e))
    sxe = float(np.sum(xc * (e - ebar)))
    mu_error, rho_error = n * (ebar * sxx - xbar * sxe) / delta3, n * sxe / delta3
    return mu + mu_error, rho + rho_error, mu_error, rho_error


def disc_path(x: np.ndarray, rho: float, y0: float) -> np.ndarray:
    """y_t = x_t + rho*y_{t-1} from y0 for |rho| <= 1, rho != 1, on one
    1-D path, in the blocked closed form the engine runs on rows: blocks
    of the most terms L <= n with |rho|^-L <= 2^700 (at least 1), each from
    the value c before it as y_{bL+j} = rho^(j-s) (rho^s*c + sum_{i<=j}
    x_{bL+i} rho^(s-i)) with s = ceil(L/2), the powers of a negative rho
    signed by hand, and the carries one block after another.
    """
    n = len(x)
    if abs(rho) == 1:
        size = n
    else:  # one term per block at rho = 0
        size = max(1, min(n, int(700 / -math.log2(abs(rho))))) if rho else 1
    s = (size + 1) // 2
    k = np.arange(1, size + 1) - s
    sign = np.where((k % 2 == 1) & (rho < 0), -1.0, 1.0)
    p, w = sign * np.power(abs(rho), k), sign * np.power(abs(rho), -k)
    y, c = np.empty(n), y0
    for lo in range(0, n, size):
        m = min(size, n - lo)
        y[lo:lo + m] = p[:m] * (rho ** s * c + np.cumsum(x[lo:lo + m] * w[:m]))
        c = y[lo + m - 1]
    return y


_COMPANIONS = ("centered", "tilde_explosive", "tilde_unit")


def companion_series(path, kind: str) -> np.ndarray:
    """Auxiliary series (t = 1..n) satisfying its own AR recursion.

    centered          y_t - mu/(1-rho)          (start y_0 - mu/(1-rho))
    tilde_explosive   sum_i rho^{t-i} e_i + rho^t y_0   (start y_0)
    tilde_unit        sum_i rho^{t-i} e_i       (start 0)

    The tilde variants are rebuilt from the innovations by running the
    recursion, not read off y, so they cross-check the path.
    """
    if kind == "centered":
        if path.rho == 1.0:
            raise ValueError("centered series is undefined at rho = 1")
        return path.y - path.mu / (1.0 - path.rho)
    if kind in ("tilde_explosive", "tilde_unit"):
        start = path.y0 if kind == "tilde_explosive" else 0.0
        out, _ = lfilter([1.0], [1.0, -path.rho], path.e, zi=np.array([path.rho * start]))
        return out
    raise ValueError(f"unknown companion kind {kind!r}; expected one of {_COMPANIONS}")


def normalized_stationary_sums(path, model) -> dict:
    """Normalized sums entering the stationary theory (all scale-free):

        mean_lag    (1/n) sum y_{t-1}
        mean_sq_lag (1/(n l(b_n))) sum y_{t-1}^2
        w1          (1/sqrt(n l(b_n))) sum e_t
        w2          (1/(sqrt(n) l(b_n))) sum (y_{t-1} - mu/(1-rho)) e_t
    """
    n = path.n
    ell = ell_at_bn(model, n)
    lag = lagged(path)
    centered_lag = lag - path.mu / (1.0 - path.rho)
    return {
        "mean_lag": float(np.sum(lag) / n),
        "mean_sq_lag": float(np.sum(lag * lag) / (n * ell)),
        "w1": float(np.sum(path.e) / math.sqrt(n * ell)),
        "w2": float(np.sum(centered_lag * path.e) / (math.sqrt(n) * ell)),
    }


def normalized_tilde_sums(path, model) -> dict:
    """Normalized sums of the drift-free companion series at P3/P4:

        int_sq   sum ytilde_t^2 / (n^2 l(b_n))
        int_lin  sum ytilde_t / (n^{3/2} sqrt(l(b_n)))
        ito      sum ytilde_{t-1} e_t / (n l(b_n))

    Their joint limits are what ``sample_time_changed_functionals`` draws.
    """
    n = path.n
    ell = ell_at_bn(model, n)
    tilde = companion_series(path, "tilde_unit")
    tilde_lag = np.concatenate(([0.0], tilde[:-1]))
    return {
        "int_sq": float(np.sum(tilde * tilde) / (n * n * ell)),
        "int_lin": float(np.sum(tilde) / (n ** 1.5 * math.sqrt(ell))),
        "ito": float(np.sum(tilde_lag * path.e) / (n * ell)),
    }


def cumulative_growth(c: float, s):
    """G_c(s) = int_0^s exp(c*u) du = (exp(c*s) - 1)/c, = s at c = 0.

    Continuous in c; evaluated through expm1 so small |c*s| keeps full
    relative precision.
    """
    s_arr = np.asarray(s, dtype=float)
    if c == 0.0:
        out = s_arr.copy()
    else:
        out = np.expm1(c * s_arr) / c
    return float(out) if np.ndim(s) == 0 else out


def exact_growth_integrals(c: float) -> tuple[Decimal, Decimal, Decimal]:
    """(int G_c, int G_c^2, d = int G_c^2 - (int G_c)^2) over [0, 1], to 60 digits.

    The closed forms (e^c - 1 - c)/c^2 and ((e^2c - 1)/(2c) - 2(e^c - 1)/c + 1)/c^2
    cancel by about 1/c^2, so the working precision grows by twice the
    decimal exponent of a small |c|; the float c is exact in Decimal.
    """
    with localcontext() as ctx:
        x = Decimal(c)
        ctx.prec = 60 + 2 * max(0, -x.adjusted())
        if c == 0.0:
            mean, mean_sq = Decimal(1) / 2, Decimal(1) / 3
        else:
            e = x.exp()
            mean = (e - 1 - x) / (x * x)
            mean_sq = ((e * e - 1) / (2 * x) - 2 * (e - 1) / x + 1) / (x * x)
        return mean, mean_sq, mean_sq - mean * mean


def sample_growth_functionals(c: float, grid_m: int, draws: int, seed: int):
    """Joint draws of W(1) and the Ito integral int_0^1 G_c(s) dW(s).

    Returns (w1, ito, int_g, int_g2): two (draws,) arrays from a common
    Brownian path discretized on grid_m steps, plus the two deterministic
    integrals (exact, rounded to float).  The Ito sum uses left endpoints k/m.
    """
    if grid_m < 100:
        raise ValueError("grid_m must be >= 100")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = generator(seed)
    weights = cumulative_growth(c, np.arange(grid_m) / grid_m)
    scale = 1.0 / math.sqrt(grid_m)
    w1 = np.empty(draws)
    ito = np.empty(draws)
    step = max(1, _CHUNK_ELEMENTS // grid_m)
    for lo in range(0, draws, step):
        hi = min(lo + step, draws)
        dw = rng.standard_normal((hi - lo, grid_m)) * scale
        w1[lo:hi] = np.sum(dw, axis=1)
        ito[lo:hi] = np.sum(dw * weights, axis=1)
    int_g, int_g2, _ = exact_growth_integrals(c)
    return w1, ito, float(int_g), float(int_g2)


def grid_unit_root_limit(c: float, mu: float, grid_m: int, draws: int, seed: int) -> np.ndarray:
    """The P3/P4 limit pair (Y1/d, Y2/(mu*d)) built from grid functionals:

        Y1 = W(1) int G_c^2 - int G_c * int G_c dW,
        Y2 = int G_c dW - W(1) int G_c,

    an independent route to the exact normal law the pipeline samples.
    """
    w1, ito, int_g, int_g2 = sample_growth_functionals(c, grid_m, draws, seed)
    d = float(exact_growth_integrals(c)[2])
    y1 = w1 * int_g2 - int_g * ito
    y2 = ito - w1 * int_g
    return np.column_stack([y1 / d, y2 / (mu * d)])


def brownian_time_change(c: float, s):
    """T_c(s) = int_0^s exp(2c(1-u)) du; the clock of the tilde-series limit.

    Equals exp(2c) * G_{-2c}(s); increasing in s with T_c(0) = 0 and
    T_0(s) = s.
    """
    return math.exp(2.0 * c) * cumulative_growth(-2.0 * c, s)


def sample_time_changed_functionals(c: float, grid_m: int, draws: int, seed: int) -> dict:
    """Limits of the normalized tilde-series sums at P3/P4, per draw:

        int_sq  = int_0^1 exp(-2c(1-s)) W(T_c(s))^2 ds
        int_lin = int_0^1 exp(-c(1-s))  W(T_c(s))    ds
        ito     = -c * int_sq + (W(T_c(1))^2 - 1)/2

    One Brownian path per draw, evaluated at the time-changed points
    T_c(k/m); the two integrals use left-endpoint Riemann sums.
    """
    if grid_m < 1000:
        raise ValueError("grid_m must be >= 1000")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = generator(seed)
    s = np.arange(grid_m + 1) / grid_m
    clock = brownian_time_change(c, s)
    root_inc = np.sqrt(np.diff(clock))
    damp_sq = np.exp(-2.0 * c * (1.0 - s[:-1])) / grid_m
    damp_lin = np.exp(-c * (1.0 - s[:-1])) / grid_m
    int_sq = np.empty(draws)
    int_lin = np.empty(draws)
    w_end = np.empty(draws)
    step = max(1, _CHUNK_ELEMENTS // grid_m)
    for lo in range(0, draws, step):
        hi = min(lo + step, draws)
        z = rng.standard_normal((hi - lo, grid_m)) * root_inc
        w = np.cumsum(z, axis=1)  # W at T_c(s_k), k = 1..m
        left = np.concatenate([np.zeros((hi - lo, 1)), w[:, :-1]], axis=1)
        int_sq[lo:hi] = np.sum(left * left * damp_sq, axis=1)
        int_lin[lo:hi] = np.sum(left * damp_lin, axis=1)
        w_end[lo:hi] = w[:, -1]
    ito = -c * int_sq + 0.5 * (w_end * w_end - 1.0)
    return {"int_sq": int_sq, "int_lin": int_lin, "ito": ito}
