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

The symmetric families draw in two phases, for ``sample_iid`` and for the
network weight priors alike: ``draw_unit`` takes every variate from the
stream at unit scale, and ``to_scale`` finishes them in place, drawing
nothing. This module alone decides each family's draw plan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ParameterError, require_choice, require_finite, require_integer
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
# the families draw_unit samples; network weight priors must be one of them
SYMMETRIC_FAMILIES = frozenset({"gaussian", "laplace", "generalized_gaussian"})

OSCILLATING_MIN_SHAPE = 2.0
_INVERSION_TOL = 1e-12
# uniforms turned into Laplace variates, or generalized-Gaussian signs, per pass; the pass's scratch stays in cache
_LAPLACE_BLOCK = 2**14


@dataclass(frozen=True)
class DistributionSpec:
    """A named tail family with parameters.

    Use the classmethod constructors; they fill in defaults and catch
    invalid parameters early.
    """

    family: str
    params: Mapping[str, float]

    def __post_init__(self):
        require_choice("family", self.family, FAMILIES)
        required = _FAMILY_PARAMS[self.family]
        given = set(self.params)
        if given != set(required):
            raise ParameterError(
                f"{self.family} requires params {sorted(required)}, got {sorted(given)}"
            )
        for name, value in self.params.items():
            require_finite(f"{self.family}.{name}", value, positive=name != "value")
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

    Deterministic given the stream's whole key ``(rng.seed, rng.stream_id,
    rng.path)``. Within a stream the draw order per family is fixed (Laplace
    inverts one uniform per variate; the generalized Gaussian draws magnitudes
    before signs), so results are stable across library versions of the same
    numpy generation code and, for Laplace, the same numpy float64 ``log``.
    A variate too large for float64 comes back as inf, without a warning;
    folding the samples refuses it.
    """
    require_integer("n", n, low=0)
    p = spec.params
    family = spec.family
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if family == "point_mass":
        return np.full(n, p["value"], dtype=np.float64)
    g = rng.generator()
    if family in SYMMETRIC_FAMILIES:
        # one n-length array and one Laplace block: a second array would raise the closure suite's peak RSS
        out = np.empty(n)
        draw_unit(g, family, p.get("shape"), out)
        to_scale(family, p.get("sigma", p.get("scale")), out, np.empty(min(n, _LAPLACE_BLOCK)))
        return out
    if family == "weibull":
        return p["scale"] * g.weibull(p["shape"], n)
    if family == "oscillating_gwt":
        # u in (0, 1]; u == 1 maps to x == 0
        u = 1.0 - g.random(n)
        return _invert_oscillating_survival(p["shape"], -np.log(u))
    # student_t
    return p["scale"] * g.standard_t(p["dof"], n)


def draw_unit(gen: np.random.Generator, family: str, beta, out: np.ndarray) -> None:
    """Fill the 1-D ``out`` with ``family``'s unit-scale draws from ``gen``, in stream order.

    Gaussian: standard normals. Laplace: uniforms in (0, 1), each exact 0.0
    redrawn. Generalized Gaussian (shape ``beta``): every magnitude
    ``gamma(1/beta) ** (1/beta)``, then one uniform per sign.
    """
    if family == "gaussian":
        gen.standard_normal(out=out)
    elif family == "laplace":
        gen.random(out=out)
        # u == 0 would map to inf; numpy's own Laplace sampler rejects it too
        while out.size and out.min() == 0.0:
            zero = np.flatnonzero(out == 0.0)
            out[zero] = gen.random(zero.size)
    else:
        gen.standard_gamma(1.0 / beta, out=out)
        np.power(out, 1.0 / beta, out=out)
        # the sign uniforms come a block at a time, in stream order, so no second n-array is held
        u = np.empty(min(out.size, _LAPLACE_BLOCK))
        for start in range(0, out.size, _LAPLACE_BLOCK):
            w = out[start:start + _LAPLACE_BLOCK]
            t = gen.random(out=u[:w.size])
            t -= 0.5
            np.copysign(w, t, out=w)


def to_scale(family: str, scale: float, w: np.ndarray, scratch: np.ndarray) -> None:
    """Finish ``draw_unit``'s draws in the 1-D ``w`` as variates of ``scale``, in place, drawing nothing.

    Laplace uniforms go through the inverse CDF ``sign(v) * -scale * log(1 - |v|)``,
    ``v = 2u - 1``; both steps are exact on numpy's 2**-53 grid, so the law is
    exactly symmetric. It runs one block of the nonempty ``scratch``'s size at a
    time; each variate depends on its own uniform alone, so no block size moves a bit.
    """
    if family != "laplace":
        w *= scale
        return
    for start in range(0, w.size, scratch.size):
        v = w[start:start + scratch.size]
        t = scratch[:v.size]
        v *= 2.0
        v -= 1.0
        np.abs(v, out=t)
        np.subtract(1.0, t, out=t)
        np.log(t, out=t)
        t *= -scale
        np.copysign(t, v, out=v)


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
