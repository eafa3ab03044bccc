"""Empirical survival curves, tail-index estimation, envelope checks.

The estimator works on the log-log curve ``(log x, log(-log S(x)))``
sampled on an even grid in ``log x`` between two sample quantiles. For a
stretched-exponential tail ``S(x) = exp(-(c0 * x**beta + c2))`` that curve
is a line of slope ``beta`` plus a slowly decaying correction.

A plain least-squares slope of the curve is badly biased at feasible
sample sizes: the slowly-varying factor of real families (Gaussian,
generalized Gaussian, products of such) drifts across any window that
n = 1e6 samples can reach, depressing or inflating the slope by up to
30 percent. The estimator here instead fits the exponent curve
``y = -log S`` directly with the three-parameter model

    y(x) ~= c0 * x**beta + c2,

profiled over ``beta`` with weights proportional to the inverse pointwise
variance of ``y``. The additive offset ``c2`` absorbs the constant part of
the slowly-varying factor (the normalization constant of the density),
which removes the bulk of the finite-sample bias while keeping the
variance close to the information limit of the window. Residual bias for
families whose slowly-varying factor genuinely drifts (an ``x**-beta`` or
``log x`` term in the exponent) is second order; it cannot be removed
without a variance explosion, because the window's data cannot separate
such terms from ``x**beta`` itself.

Standard errors come from a Gauss-Newton sandwich with the empirical
process covariance ``Cov(y_i, y_j) = (1 - S_a)/(n S_a)``, ``a`` the
shallower point, which accounts for the strong positive correlation of
survival estimates along the grid. They match observed seed-to-seed
spread, unlike the naive diagonal formula.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DegenerateTailError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    require_integer,
)

SIDE_RIGHT = "right"
SIDE_ABSOLUTE = "absolute"
_SIDES = frozenset({SIDE_RIGHT, SIDE_ABSOLUTE})

# search range of the profiled tail parameter; hitting a bound signals a
# degenerate (bounded or power-law) tail rather than a Weibull-like one
BETA_MIN = 0.05
BETA_MAX = 20.0

# multiplicative slack on the exponent -log(S) used by envelope checks;
# tolerates empirical step noise without masking order-of-magnitude gaps
ENVELOPE_SLACK = 1.05


@dataclass(frozen=True)
class FitWindow:
    """Quantile window and grid for tail fitting.

    The defaults keep at least ~100 exceedances above the deepest grid
    point at n = 1e6 while staying deep enough that the slowly-varying
    part of the exponent is subdominant.
    """

    q_lo: float = 0.95
    q_hi: float = 0.9999
    grid_size: int = 200
    min_points: int = 50

    def __post_init__(self):
        require_integer("grid_size", self.grid_size)
        require_integer("min_points", self.min_points)
        if not 0.0 < self.q_lo < self.q_hi < 1.0:
            raise ParameterError(f"need 0 < q_lo < q_hi < 1, got ({self.q_lo}, {self.q_hi})")
        if self.min_points < 8:
            raise ParameterError("min_points must be at least 8")
        if self.grid_size < self.min_points:
            raise ParameterError("grid_size must be >= min_points")


@dataclass(frozen=True)
class EmpiricalTail:
    """The top order statistics of a sample set folded onto the right tail.

    Right tails are analyzed as they are, absolute tails as right tails
    of ``|X|``. ``sorted_samples`` holds the folded values, ascending,
    from the order statistic at the ``q_keep`` quantile and its ties up;
    ``n_below`` values lie below them, and nothing reads there.
    """

    sorted_samples: np.ndarray
    n_below: int
    q_keep: float

    @property
    def n(self) -> int:
        return self.n_below + self.sorted_samples.size

    @classmethod
    def from_samples(
        cls, samples, side: str = SIDE_RIGHT, q_keep: float = 0.0, overwrite: bool = False
    ) -> "EmpiricalTail":
        """Fold ``samples``; ``overwrite=True`` reorders a float64 array in place, like scipy's ``overwrite_a``."""
        if side not in _SIDES:
            raise ParameterError(f"side must be one of {sorted(_SIDES)}, got {side!r}")
        if not 0.0 <= q_keep < 1.0:
            raise ParameterError(f"need 0 <= q_keep < 1, got {q_keep}")
        x = np.asarray(samples, dtype=np.float64).ravel()
        if x.size == 0:
            raise DomainError("empty sample set")
        if not np.isfinite(x).all():
            raise DomainError("samples must be finite")
        n = x.size
        x = np.abs(x) if side == SIDE_ABSOLUTE else x if overwrite else x.copy()
        k = int((n - 1) * float(q_keep))  # the index _sorted_quantiles reads at q_keep
        if k:
            x.partition(k)
            low = x[:k]
            x = np.concatenate([low[low == x[k]], x[k:]])
        x.sort()
        return cls(x, n - x.size, q_keep)


@dataclass(frozen=True)
class TailEstimate:
    """Fitted tail index with diagnostics.

    ``intercept`` is the implied intercept of the log-log line,
    ``log(c0)``; it absorbs the constant part of the slowly-varying
    factor and makes no claim about the factor itself.
    """

    beta_hat: float
    intercept: float
    stderr_slope: float
    fit_points: int
    x_range: tuple[float, float]

    def to_dict(self) -> dict:
        return {**asdict(self), "x_range": list(self.x_range)}


def empirical_survival(tail: EmpiricalTail, x):
    """Empirical P(X >= x) = #{i : X_i >= x} / n on the folded samples; refused below the kept block."""
    xs = np.asarray(x, dtype=np.float64)
    if tail.n_below and np.any(xs < tail.sorted_samples[0]):
        raise DomainError(f"survival below the kept order statistics (x < {tail.sorted_samples[0]:g})")
    idx = tail.n_below + np.searchsorted(tail.sorted_samples, xs, side="left")
    out = (tail.n - idx) / tail.n
    return out if out.ndim else float(out)


def _sorted_quantiles(s: np.ndarray, qs, n_below: int = 0) -> np.ndarray:
    """``np.quantile`` of n_below + s.size values whose top ones are the ascending ``s``, read by index.

    Bit for bit numpy's default 'linear' method for qs in [0, 1], down to
    its ``_lerp``, which interpolates from the upper neighbour when t >= 0.5.
    """
    last = n_below + s.size - 1
    virtual = last * np.asarray(qs, dtype=np.float64)
    below = np.floor(virtual)
    a = s[np.minimum(below, last).astype(np.intp) - n_below]
    b = s[np.minimum(below + 1, last).astype(np.intp) - n_below]
    t = virtual - below
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def loglog_points(tail: EmpiricalTail, window: FitWindow) -> np.ndarray:
    """Grid of (log x, log(-log S(x))) pairs over the fit window.

    The grid is even in log x between the q_lo and q_hi sample quantiles.
    Points with an empirical survival of exactly 0 or 1 are dropped, and
    runs of grid points sharing one survival level are collapsed to their
    first point: repeated levels carry no information and would defeat the
    min_points guard on small samples.

    Returns an array of shape (k, 2). Raises InsufficientDataError when
    fewer than ``window.min_points`` informative points remain, and
    ParameterError when the window starts below the tail's ``q_keep``.
    """
    if window.q_lo < tail.q_keep:
        raise ParameterError(f"fit window starts at q_lo = {window.q_lo}, below the kept q_keep = {tail.q_keep}")
    x_lo, x_hi = _sorted_quantiles(tail.sorted_samples, (window.q_lo, window.q_hi), tail.n_below)
    if not x_lo > 0:
        raise DomainError(
            f"fit window starts at x = {x_lo:g}; tail grid needs x > 0 after folding"
        )
    if not x_hi > x_lo:
        raise InsufficientDataError("degenerate fit window: quantiles coincide")
    grid = np.geomspace(x_lo, x_hi, window.grid_size)
    surv = empirical_survival(tail, grid)
    keep = (surv > 0.0) & (surv < 1.0)
    grid, surv = grid[keep], surv[keep]
    if grid.size:
        first = np.ones(grid.size, dtype=bool)
        first[1:] = surv[1:] != surv[:-1]
        grid, surv = grid[first], surv[first]
    if grid.size < window.min_points:
        raise InsufficientDataError(
            f"only {grid.size} informative grid points, need {window.min_points}"
        )
    return np.column_stack([np.log(grid), np.log(-np.log(surv))])


def _profile_objective(lnb, z, y, sw):
    """Weighted RSS of y ~ c0 * exp(beta z) + c2 at fixed beta; z is centered."""
    beta = np.exp(lnb)
    col = np.exp(np.minimum(beta * z, 600.0))
    a = np.column_stack([col, np.ones_like(z)]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(a, y * sw, rcond=None)
    r = y * sw - a @ coef
    return float(r @ r), coef


def _bounded_minimum(f, a, b, xatol):
    """Minimize a scalar ``f`` on ``[a, b]`` by Brent's bounded search; return the argmin.

    A step-for-step port of ``_minimize_scalar_bounded`` from scipy.optimize
    (the algorithm behind ``fminbound``, BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc. and 2003 onwards SciPy Developers), so it returns the
    bits ``minimize_scalar(f, bounds=(a, b), method="bounded",
    options={"xatol": xatol})`` returns: golden-section steps, parabolic
    steps where the parabola is acceptable, and at most 500 evaluations.
    Kept in-module because the package runs on numpy alone.
    """
    maxfun = 500
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # parabolic fit through the three best points
        if np.abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # accept the parabola only if its step shrinks and stays inside [a, b]
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True

        if golden:
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return xf


def _fit_exponent_curve(lnx, lny):
    """Profile fit of y = c0 x**beta + c2 to the log-log points.

    Returns (beta, ln_c0, weights). ln_c0 is computed in log space so
    extreme sample scales cannot overflow.
    """
    y = np.exp(lny)
    surv = np.exp(-y)
    # inverse pointwise variance of y = -log(S_hat), up to the 1/n factor
    sw = np.sqrt(surv / (1.0 - surv))
    z = lnx - lnx.mean()
    lnb = _bounded_minimum(
        lambda lnb: _profile_objective(lnb, z, y, sw)[0],
        np.log(BETA_MIN),
        np.log(BETA_MAX),
        xatol=1e-12,
    )
    beta = float(np.exp(lnb))
    _, coef = _profile_objective(lnb, z, y, sw)
    c0_centered = float(coef[0])
    if c0_centered <= 0:
        raise DegenerateTailError("fitted tail exponent is not increasing")
    if beta <= BETA_MIN * (1 + 1e-6) or beta >= BETA_MAX * (1 - 1e-6):
        raise DegenerateTailError(
            f"tail parameter search hit its bound ({beta:.4g}); "
            "tail is not stretched-exponential on this window"
        )
    ln_c0 = np.log(c0_centered) - beta * lnx.mean()
    return beta, float(ln_c0), sw ** 2


def _sandwich_stderr(lnx, lny, n, beta, ln_c0, w):
    """Gauss-Newton sandwich s.e. of beta under the empirical-process covariance."""
    y = np.exp(lny)
    surv = np.exp(-y)
    z = lnx - lnx.mean()
    c0_centered = np.exp(ln_c0 + beta * lnx.mean())
    xb = np.exp(np.minimum(beta * z, 600.0))
    jac = np.column_stack([c0_centered * xb * z, xb, np.ones_like(z)])
    wj = jac * w[:, None]
    try:
        bread = np.linalg.inv(jac.T @ wj)
    except np.linalg.LinAlgError:
        return float("nan")
    # Cov(y_i, y_j) = (1 - S_a) / (n S_a), a the shallower of the two points
    v = (1.0 - surv) / (n * surv)
    sigma = np.minimum.outer(v, v)
    meat = wj.T @ sigma @ wj
    cov = bread @ meat @ bread
    var = cov[0, 0]
    return float(np.sqrt(var)) if var > 0 else 0.0


def estimate_tail_index(tail: EmpiricalTail, window: FitWindow = FitWindow()) -> TailEstimate:
    """Fit the tail index on the log-log grid of the fit window.

    Raises
    ------
    InsufficientDataError
        Too few informative grid points.
    DegenerateTailError
        The fit hit its search bounds or found a non-decaying exponent,
        signalling a bounded or power-law tail.
    """
    pts = loglog_points(tail, window)
    lnx, lny = pts[:, 0], pts[:, 1]
    beta, ln_c0, w = _fit_exponent_curve(lnx, lny)
    stderr = _sandwich_stderr(lnx, lny, tail.n, beta, ln_c0, w)
    return TailEstimate(
        beta_hat=beta,
        intercept=ln_c0,
        stderr_slope=stderr,
        fit_points=int(pts.shape[0]),
        x_range=(float(np.exp(lnx[0])), float(np.exp(lnx[-1]))),
    )


def estimate_with_points(tail: EmpiricalTail, window: FitWindow) -> tuple[TailEstimate, np.ndarray]:
    """``estimate_tail_index`` and the log-log points it was fitted on.

    The points are the grid ``estimate_tail_index`` already built, computed
    a second time only because the benchmark's traced check
    (``expected_counts`` in ``bench/run.py``) pins two grids per estimate.
    Once that pin goes, returning the first grid is an edit to this function.
    """
    return estimate_tail_index(tail, window), loglog_points(tail, window)


def refit_beta_from_points(points: np.ndarray) -> float:
    """Recompute beta_hat from recorded log-log points.

    The profile fit depends on the points only, so estimates serialized
    next to their curves can be verified by re-running this on the parsed
    CSV rows.
    """
    pts = np.asarray(points, dtype=np.float64)
    beta, _, _ = _fit_exponent_curve(pts[:, 0], pts[:, 1])
    return beta


def check_subweibull_envelope(
    tail: EmpiricalTail, theta: float, window: FitWindow = FitWindow()
) -> bool:
    """Whether an upper envelope a * exp(-b x**(1/theta)) holds on the fit grid.

    b and a are fitted by least squares on the envelope form
    ``-log S = b x**(1/theta) - log a``; the envelope holds when the
    fitted curve stays below the empirical exponent up to the
    multiplicative slack on -log S. A nonpositive fitted b fails outright.
    """
    if theta <= 0:
        raise ParameterError(f"theta must be > 0, got {theta}")
    pts = loglog_points(tail, window)
    lnx, lny = pts[:, 0], pts[:, 1]
    y = np.exp(lny)
    u = np.exp(lnx / theta)
    a_mat = np.column_stack([u, np.ones_like(u)])
    coef, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    b, neg_ln_a = float(coef[0]), float(coef[1])
    if b <= 0:
        return False
    fitted = b * u + neg_ln_a
    return bool(np.all(y >= fitted / ENVELOPE_SLACK))


def check_gwt_envelope(
    tail: EmpiricalTail,
    beta: float,
    l_lo: float,
    l_hi: float,
    window: FitWindow = FitWindow(),
) -> bool:
    """Whether exp(-x**beta l_lo) <= S(x) <= exp(-x**beta l_hi) holds pointwise.

    The lower bound uses the larger exponent coefficient, so l_lo >= l_hi
    is required. Comparison happens on -log S with the multiplicative
    slack, i.e. the empirical exponent must sit within
    [x**beta l_hi / slack, x**beta l_lo * slack] on the grid.
    """
    if beta <= 0 or l_hi <= 0 or l_lo <= 0:
        raise ParameterError("beta, l_lo, l_hi must all be > 0")
    if l_lo < l_hi:
        raise ParameterError("need l_lo >= l_hi (lower envelope decays faster)")
    pts = loglog_points(tail, window)
    lnx, lny = pts[:, 0], pts[:, 1]
    y = np.exp(lny)
    xb = np.exp(beta * lnx)
    ok = np.all(y <= ENVELOPE_SLACK * l_lo * xb) and np.all(y >= l_hi * xb / ENVELOPE_SLACK)
    return bool(ok)
