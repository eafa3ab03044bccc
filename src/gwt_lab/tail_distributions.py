"""Random variate generation for stretched-exponential tail families.

Each family comes with an exact survival function where a closed form (or
a high-accuracy special-function evaluation) exists, so samplers can be
validated against analytic tails. The shape parameter of every family is
its tail parameter: survival decays like ``exp(-x**beta * l(x))`` with
``l`` slowly varying. Heavier tails have smaller ``beta``.

Families
--------
gaussian              symmetric, beta = 2
laplace               symmetric, beta = 1
weibull               nonnegative, beta = shape (exact Weibull)
generalized_gaussian  symmetric, beta = shape; density ~ exp(-|x/s|**shape)
oscillating_gwt       nonnegative, survival exp(-x**b * (1 + cos(ln x)**2));
                      sandwiched between exp(-2 x**b) and exp(-x**b) but the
                      oscillating factor is not slowly varying
student_t             power tail; negative control, not Weibull-like
point_mass            degenerate at a single value
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import special, stats

from .errors import DomainError, ParameterError
from .rng import RngStream

# tail-class kinds
WT_REAL = "WT_real"
GWT_NONNEG = "GWT_nonneg"
POWER_TAIL = "power_tail"
BOUNDED = "bounded"
_KINDS_WITH_BETA = frozenset({WT_REAL, GWT_NONNEG})
_KINDS = frozenset({WT_REAL, GWT_NONNEG, POWER_TAIL, BOUNDED})

FAMILIES = frozenset(
    {
        "gaussian",
        "laplace",
        "weibull",
        "generalized_gaussian",
        "oscillating_gwt",
        "student_t",
        "point_mass",
    }
)

# parameters each family requires (all but point_mass strictly positive)
_FAMILY_PARAMS = {
    "gaussian": ("sigma",),
    "laplace": ("scale",),
    "weibull": ("shape", "scale"),
    "generalized_gaussian": ("shape", "scale"),
    "oscillating_gwt": ("shape",),
    "student_t": ("dof", "scale"),
    "point_mass": ("value",),
}

OSCILLATING_MIN_SHAPE = 2.0
_INVERSION_TOL = 1e-12


@dataclass(frozen=True)
class TailClass:
    """Theoretical tail descriptor of a distribution.

    ``beta`` is present exactly for the Weibull-like kinds; power tails and
    bounded distributions carry no tail parameter.
    """

    kind: str
    beta: float | None
    symmetric: bool

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown tail-class kind {self.kind!r}")
        if self.kind in _KINDS_WITH_BETA:
            if self.beta is None or not self.beta > 0:
                raise ParameterError(f"kind {self.kind!r} requires beta > 0")
        elif self.beta is not None:
            raise ParameterError(f"kind {self.kind!r} must not carry a beta")


@dataclass(frozen=True)
class DistributionSpec:
    """A named tail family with parameters.

    Use the classmethod constructors; they fill in defaults and catch
    invalid parameters early.
    """

    family: str
    params: Mapping[str, float]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        required = _FAMILY_PARAMS[self.family]
        given = set(self.params)
        if given != set(required):
            raise ParameterError(
                f"{self.family} requires params {sorted(required)}, got {sorted(given)}"
            )
        for name, value in self.params.items():
            if not np.isfinite(value):
                raise ParameterError(f"{self.family}.{name} must be finite")
            if name != "value" and value <= 0:
                raise ParameterError(f"{self.family}.{name} must be > 0, got {value}")
        if self.family == "oscillating_gwt" and self.params["shape"] < OSCILLATING_MIN_SHAPE:
            # the oscillating survival is only monotone for shape >= 2
            raise ParameterError(
                f"oscillating_gwt requires shape >= {OSCILLATING_MIN_SHAPE}, "
                f"got {self.params['shape']}"
            )
        object.__setattr__(self, "params", dict(self.params))

    # -- constructors ----------------------------------------------------

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "DistributionSpec":
        return cls("gaussian", {"sigma": sigma})

    @classmethod
    def laplace(cls, scale: float = 1.0) -> "DistributionSpec":
        return cls("laplace", {"scale": scale})

    @classmethod
    def weibull(cls, shape: float, scale: float = 1.0) -> "DistributionSpec":
        return cls("weibull", {"shape": shape, "scale": scale})

    @classmethod
    def generalized_gaussian(cls, shape: float, scale: float = 1.0) -> "DistributionSpec":
        return cls("generalized_gaussian", {"shape": shape, "scale": scale})

    @classmethod
    def oscillating_gwt(cls, shape: float) -> "DistributionSpec":
        return cls("oscillating_gwt", {"shape": shape})

    @classmethod
    def student_t(cls, dof: float, scale: float = 1.0) -> "DistributionSpec":
        return cls("student_t", {"dof": dof, "scale": scale})

    @classmethod
    def point_mass(cls, value: float = 0.0) -> "DistributionSpec":
        return cls("point_mass", {"value": value})

    # -- theory ----------------------------------------------------------

    def tail_class(self) -> TailClass:
        """The family's theoretical tail descriptor."""
        f, p = self.family, self.params
        if f == "gaussian":
            return TailClass(WT_REAL, 2.0, True)
        if f == "laplace":
            return TailClass(WT_REAL, 1.0, True)
        if f == "generalized_gaussian":
            return TailClass(WT_REAL, float(p["shape"]), True)
        if f == "weibull":
            return TailClass(GWT_NONNEG, float(p["shape"]), False)
        if f == "oscillating_gwt":
            return TailClass(GWT_NONNEG, float(p["shape"]), False)
        if f == "student_t":
            return TailClass(POWER_TAIL, None, True)
        return TailClass(BOUNDED, None, p["value"] == 0.0)


# -- sampling -------------------------------------------------------------


def sample_iid(spec: DistributionSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` independent variates from ``spec``.

    Deterministic given ``(rng.seed, rng.stream_id)``. Within a stream the
    draw order per family is fixed (magnitudes before signs), so results
    are stable across library versions of the same numpy generation code.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    g = rng.generator()
    p = spec.params
    if n == 0:
        return np.empty(0, dtype=np.float64)
    family = spec.family
    if family in ("gaussian", "laplace", "generalized_gaussian"):
        return _symmetric_draws(g, family, p.get("shape"), p.get("sigma", p.get("scale")), n)
    if family == "weibull":
        return p["scale"] * g.weibull(p["shape"], n)
    if family == "oscillating_gwt":
        # u in (0, 1]; u == 1 maps to x == 0
        u = 1.0 - g.random(n)
        return _invert_oscillating_survival(p["shape"], -np.log(u))
    if family == "student_t":
        return p["scale"] * g.standard_t(p["dof"], n)
    # point_mass
    return np.full(n, p["value"], dtype=np.float64)


def _symmetric_draws(gen: np.random.Generator, family: str, beta, scale: float, size) -> np.ndarray:
    """Gaussian, Laplace or generalized-Gaussian (shape ``beta``) variates of ``size``.

    Draw order is fixed, magnitudes before signs; network weight priors draw through here too.
    """
    if family == "gaussian":
        return scale * gen.standard_normal(size)
    if family == "laplace":
        return gen.laplace(0.0, scale, size)
    magnitude = scale * gen.gamma(1.0 / beta, 1.0, size) ** (1.0 / beta)
    sign = np.where(gen.random(size) < 0.5, -1.0, 1.0)
    return sign * magnitude


def symmetrize(samples: np.ndarray, rng: RngStream) -> np.ndarray:
    """Attach an independent fair sign to each nonnegative sample."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size and np.nanmin(samples) < 0:
        raise DomainError("symmetrize expects nonnegative samples")
    if np.isnan(samples).any():
        raise DomainError("symmetrize expects finite samples")
    g = rng.generator()
    sign = np.where(g.random(samples.size) < 0.5, -1.0, 1.0)
    return sign * samples


# -- survival functions ---------------------------------------------------


def exact_survival(spec: DistributionSpec, x):
    """P(X >= x) for the family, accurate to near float precision.

    Accepts a scalar or an array; returns the matching shape.
    """
    x = np.asarray(x, dtype=np.float64)
    p = spec.params
    family = spec.family
    if family == "gaussian":
        out = special.ndtr(-x / p["sigma"])
    elif family == "laplace":
        z = x / p["scale"]
        out = np.where(z >= 0, 0.5 * np.exp(-np.abs(z)), 1.0 - 0.5 * np.exp(-np.abs(z)))
    elif family == "weibull":
        z = np.maximum(x, 0.0) / p["scale"]
        out = np.exp(-(z ** p["shape"]))
    elif family == "generalized_gaussian":
        z = np.abs(x) / p["scale"]
        half = 0.5 * special.gammaincc(1.0 / p["shape"], z ** p["shape"])
        out = np.where(x >= 0, half, 1.0 - half)
    elif family == "oscillating_gwt":
        flat = np.atleast_1d(x).astype(np.float64).copy()
        pos = flat > 0
        res = np.ones_like(flat)
        res[pos] = np.exp(-_oscillating_exponent(p["shape"], flat[pos]))
        out = res.reshape(x.shape)
    elif family == "student_t":
        out = stats.t.sf(x / p["scale"], p["dof"])
    else:  # point_mass
        out = np.where(x <= p["value"], 1.0, 0.0)
    return out if out.ndim else float(out)


def _oscillating_exponent(beta: float, x: np.ndarray) -> np.ndarray:
    """x**beta * (1 + cos(ln x)**2) for x > 0."""
    return x ** beta * (1.0 + np.cos(np.log(x)) ** 2)


def _invert_oscillating_survival(beta: float, t: np.ndarray) -> np.ndarray:
    """Solve x**beta (1 + cos(ln x)**2) = t for x >= 0 by bisection.

    The exponent is strictly increasing for beta >= 2, and the oscillating
    factor is within [1, 2], so [ (t/2)**(1/beta), t**(1/beta) ] brackets
    the root. Bisection runs to an absolute tolerance of 1e-12 in x.
    """
    t = np.asarray(t, dtype=np.float64)
    lo = (t / 2.0) ** (1.0 / beta)
    hi = t ** (1.0 / beta)
    # zero exponent means x = 0 exactly; bracket already collapses there
    for _ in range(200):
        gap = hi - lo
        if not np.any(gap > _INVERSION_TOL):
            break
        mid = 0.5 * (lo + hi)
        safe_mid = np.where(mid > 0, mid, 1.0)
        high = _oscillating_exponent(beta, safe_mid) > t
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)
