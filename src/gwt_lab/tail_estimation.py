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

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTailError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    require_choice,
    require_finite,
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

# the profile fit scans ln beta on this grid, then solves the derivative's
# root next to the best point to a bracket this narrow, in ln beta
_SCAN_LNB = np.linspace(np.log(BETA_MIN), np.log(BETA_MAX), 64)
_ROOT_XTOL = 1e-12


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
        require_integer("min_points", self.min_points, low=8)
        require_integer("grid_size", self.grid_size, low=self.min_points)
        require_finite("q_lo", self.q_lo)
        require_finite("q_hi", self.q_hi)
        if not 0.0 < self.q_lo < self.q_hi < 1.0:
            raise ParameterError(f"need 0 < q_lo < q_hi < 1, got ({self.q_lo}, {self.q_hi})")


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
        """Fold ``samples``; ``overwrite=True`` folds and reorders a float64 array in place, like scipy's ``overwrite_a``."""
        require_choice("side", side, _SIDES)
        require_finite("q_keep", q_keep)
        if not 0.0 <= q_keep < 1.0:
            raise ParameterError(f"need 0 <= q_keep < 1, got {q_keep}")
        x = np.asarray(samples, dtype=np.float64).ravel()
        if x.size == 0:
            raise DomainError("empty sample set")
        if not np.isfinite(x).all():
            raise DomainError("samples must be finite")
        n = x.size
        if side == SIDE_ABSOLUTE:
            x = np.abs(x, out=x if overwrite else None)
        elif not overwrite:
            x = x.copy()
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
            # + 0.0 writes a zero as 0, whichever signed zero the sort or the partition put there
            f"fit window starts at x = {x_lo + 0.0:g}; tail grid needs x > 0 after folding"
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


def _profile(lnb, z, y, w):
    """Weighted RSS of y ~ c0 exp(beta z) + c2 at beta = exp(lnb), its derivative in lnb, and c0.

    (c0, c2) is the closed-form weighted least-squares fit, centered. z is
    ln x less its largest value, so the column peaks at 1 and cannot
    overflow. lnb may be a vector; each output then has one entry per lnb.
    """
    # in place, so that a scan holds at most three arrays of its size: r is the
    # column, then the column centered, then the residual
    dcol = np.multiply.outer(np.exp(lnb), z)
    r = np.exp(dcol)
    dcol *= r
    r -= (r @ w / w.sum())[..., None]
    dy = y - w @ y / w.sum()
    c0 = r @ (w * dy) / ((r * r) @ w)
    r *= -c0[..., None]
    r += dy
    # (c0, c2) solve the normal equations, so only d col / d lnb = beta z col enters the derivative
    return (r * r) @ w, -2.0 * c0 * ((dcol * r) @ w), c0


def _stationary_lnb(z, y, w):
    """The ln beta where the profile RSS is stationary, next to the best of a scan.

    The best scan point and its two neighbours bracket the root of the
    derivative, found by Illinois regula falsi to a bracket narrower than
    ``_ROOT_XTOL``. Without a sign change across the bracket, the bound the
    derivative descends to is returned.
    """
    rss, drss, _ = _profile(_SCAN_LNB, z, y, w)
    i = int(np.argmin(rss))
    lo, hi = max(i - 1, 0), min(i + 1, _SCAN_LNB.size - 1)
    a, b, fa, fb = _SCAN_LNB[lo], _SCAN_LNB[hi], drss[lo], drss[hi]
    if np.sign(fa) == np.sign(fb) != 0:
        return _SCAN_LNB[0] if fa > 0 else _SCAN_LNB[-1]
    # (b, fb) is the newest point, (a, fa) the other end of the bracket
    while abs(b - a) >= _ROOT_XTOL:
        c = b - fb * (b - a) / (fb - fa)
        fc = float(_profile(c, z, y, w)[1])
        if fc == 0:
            return c
        if (fc > 0) != (fb > 0):
            a, fa = b, fb
        else:
            fa /= 2  # the Illinois rule: an end kept twice in a row has its value halved
        b, fb = c, fc
    return b


def _fit_exponent_curve(lnx, lny):
    """Profile fit of y = c0 x**beta + c2 to the log-log points.

    The profile RSS is scanned on ``_SCAN_LNB``, ln beta from ln BETA_MIN to
    ln BETA_MAX, and beta is the root of its derivative next to the best
    scan point. When the derivative keeps one sign there, beta is the bound
    it descends to, and the fit raises DegenerateTailError.

    Returns (beta, ln_c0, weights). ln_c0 is computed in log space so
    extreme sample scales cannot overflow.
    """
    y = np.exp(lny)
    surv = np.exp(-y)
    # inverse pointwise variance of y = -log(S_hat), up to the 1/n factor
    w = surv / (1.0 - surv)
    z = lnx - lnx.max()
    lnb = _stationary_lnb(z, y, w)
    beta = float(np.exp(lnb))
    c0 = float(_profile(lnb, z, y, w)[2])
    if not c0 > 0:
        raise DegenerateTailError("fitted tail exponent is not increasing")
    if beta <= BETA_MIN * (1 + 1e-6) or beta >= BETA_MAX * (1 - 1e-6):
        raise DegenerateTailError(
            f"tail parameter search hit its bound ({beta:.4g}); "
            "tail is not stretched-exponential on this window"
        )
    return beta, float(np.log(c0) - beta * lnx.max()), w


def _sandwich_stderr(lnx, lny, n, beta, ln_c0, w):
    """Gauss-Newton sandwich s.e. of beta under the empirical-process covariance."""
    y = np.exp(lny)
    surv = np.exp(-y)
    z = lnx - lnx.max()
    col = np.exp(beta * z)
    jac = np.column_stack([np.exp(ln_c0 + beta * lnx.max()) * col * z, col, np.ones_like(z)])
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


def estimate_with_points(samples, side, window: FitWindow, overwrite=False) -> tuple[TailEstimate, np.ndarray]:
    """Fold ``samples`` from ``window.q_lo`` up; ``estimate_tail_index`` and the points it was fitted on.

    ``overwrite`` is ``EmpiricalTail.from_samples``'s. The points are the grid
    ``estimate_tail_index`` already built, computed a second time only because
    the benchmark's traced check (``expected_counts`` in ``bench/run.py``) pins
    two grids per estimate. Once that pin goes, returning the first grid is an
    edit to this function.
    """
    tail = EmpiricalTail.from_samples(samples, side, q_keep=window.q_lo, overwrite=overwrite)
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
    require_finite("theta", theta, positive=True)
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
    for name, value in (("beta", beta), ("l_lo", l_lo), ("l_hi", l_hi)):
        require_finite(name, value, positive=True)
    if l_lo < l_hi:
        raise ParameterError("need l_lo >= l_hi (lower envelope decays faster)")
    pts = loglog_points(tail, window)
    lnx, lny = pts[:, 0], pts[:, 1]
    y = np.exp(lny)
    xb = np.exp(beta * lnx)
    ok = np.all(y <= ENVELOPE_SLACK * l_lo * xb) and np.all(y >= l_hi * xb / ENVELOPE_SLACK)
    return bool(ok)
