"""Random variate generation for stretched-exponential tail families.

The tests hold each family's exact survival law and check the sampler
against it. The shape parameter of every family is its tail parameter:
survival decays like ``exp(-x**beta * l(x))`` with ``l`` slowly varying.
Heavier tails have smaller ``beta``.

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

import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ParameterError, require_integer
from .rng import RngStream

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
FAMILIES = frozenset(_FAMILY_PARAMS)
# the tail parameter of the families that have no shape; a shape is its family's tail parameter
FIXED_TAIL_BETA = {"gaussian": 2.0, "laplace": 1.0}
# the families _symmetric_draws samples; network weight priors must be one of them
SYMMETRIC_FAMILIES = frozenset({"gaussian", "laplace", "generalized_gaussian"})

OSCILLATING_MIN_SHAPE = 2.0
_INVERSION_TOL = 1e-12
# uniforms turned into Laplace variates per pass; the pass's scratch stays in cache
_LAPLACE_BLOCK = 2**14


def _finite_real(value) -> bool:
    """A real number, not a bool, that float64 holds as a finite value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


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
            if not _finite_real(value):
                raise ParameterError(f"{self.family}.{name} must be a finite number, got {value!r}")
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

    @property
    def tail_beta(self) -> float | None:
        """The family's tail parameter; None for a power tail or a point mass."""
        if self.family in FIXED_TAIL_BETA:
            return FIXED_TAIL_BETA[self.family]
        return float(self.params["shape"]) if "shape" in self.params else None


# -- sampling -------------------------------------------------------------


@np.errstate(over="ignore")
def sample_iid(spec: DistributionSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` independent variates from ``spec``.

    Deterministic given ``(rng.seed, rng.stream_id)``. Within a stream the
    draw order per family is fixed (Laplace inverts one uniform per variate;
    the generalized Gaussian draws magnitudes before signs), so results are
    stable across library versions of the same numpy generation code and,
    for Laplace, the same numpy float64 ``log``.
    A variate too large for float64 comes back as inf, without a warning;
    folding the samples refuses it.
    """
    require_integer("n", n)
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    g = rng.generator()
    p = spec.params
    if n == 0:
        return np.empty(0, dtype=np.float64)
    family = spec.family
    if family in SYMMETRIC_FAMILIES:
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

    Network weight priors draw through here too. Laplace inverts one
    uniform per variate; the generalized Gaussian draws all its magnitudes,
    then one uniform per sign.
    """
    if family == "gaussian":
        return scale * gen.standard_normal(size)
    if family == "laplace":
        return _laplace_draws(gen, scale, size)
    m = gen.gamma(1.0 / beta, 1.0, size)
    np.power(m, 1.0 / beta, out=m)
    m *= scale
    u = gen.random(size)
    u -= 0.5
    return np.copysign(m, u, out=m)


def _laplace_draws(gen: np.random.Generator, scale: float, size) -> np.ndarray:
    """Laplace(0, ``scale``) variates of ``size``, by the inverse CDF of one uniform each.

    With ``w = 2u - 1`` the draw is ``sign(w) * -scale * log(1 - |w|)``; both
    steps are exact on numpy's 2**-53 grid, so the law is exactly symmetric.
    The transform runs in place, a block at a time, to hold one array of
    ``size`` and one block.
    """
    out = gen.random(size)
    flat = out.reshape(-1)
    _redraw_zero_uniforms(gen, flat)
    t = np.empty(min(flat.size, _LAPLACE_BLOCK))
    for start in range(0, flat.size, _LAPLACE_BLOCK):
        w = flat[start:start + _LAPLACE_BLOCK]
        _laplace_from_uniforms(w, scale, t[:w.size])
    return out


def _redraw_zero_uniforms(gen: np.random.Generator, flat: np.ndarray) -> None:
    """Replace each exact 0.0 in the 1-D uniforms ``flat`` by the stream's next uniform."""
    # u == 0 would map to inf; numpy's own Laplace sampler rejects it too
    while flat.size and flat.min() == 0.0:
        zero = np.flatnonzero(flat == 0.0)
        flat[zero] = gen.random(zero.size)


def _laplace_from_uniforms(w: np.ndarray, scale: float, t: np.ndarray) -> None:
    """Turn the 1-D uniforms ``w`` into Laplace(0, ``scale``) variates in place; ``t`` is scratch of w's size.

    Each variate depends on its own uniform alone, so any split of an array
    into calls gives the same bits.
    """
    w *= 2.0
    w -= 1.0
    np.abs(w, out=t)
    np.subtract(1.0, t, out=t)
    np.log(t, out=t)
    t *= -scale
    np.copysign(t, w, out=w)


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
