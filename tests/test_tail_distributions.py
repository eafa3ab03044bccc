"""Tests for the variate generators, against each family's exact survival law."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize, special

from gwt_lab import (
    DistributionSpec,
    ParameterError,
    RngStream,
    sample_iid,
)
from gwt_lab.tail_distributions import (
    _LAPLACE_BLOCK,
    FAMILIES,
    _invert_oscillating_survival,
    _oscillating_exponent,
    draw_unit,
    to_scale,
)

N_BIG = 10**6


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
        out = special.stdtr(p["dof"], -x / p["scale"])
    else:  # point_mass
        out = np.where(x <= p["value"], 1.0, 0.0)
    return out if out.ndim else float(out)


class TestDistributionSpec:
    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            DistributionSpec("cauchy", {"scale": 1.0})

    @pytest.mark.parametrize(
        "ctor,kwargs",
        [
            (DistributionSpec.gaussian, {"sigma": 0.0}),
            (DistributionSpec.gaussian, {"sigma": -1.0}),
            (DistributionSpec.laplace, {"scale": 0.0}),
            (DistributionSpec.weibull, {"shape": -2.0, "scale": 1.0}),
            (DistributionSpec.weibull, {"shape": 2.0, "scale": 0.0}),
            (DistributionSpec.student_t, {"dof": 0.0}),
            (DistributionSpec.gaussian, {"sigma": "1"}),
            (DistributionSpec.gaussian, {"sigma": True}),
            (DistributionSpec.laplace, {"scale": np.bool_(True)}),
            (DistributionSpec.weibull, {"shape": None, "scale": 1.0}),
            (DistributionSpec.gaussian, {"sigma": 10**400}),
        ],
    )
    def test_nonpositive_parameters_rejected(self, ctor, kwargs):
        with pytest.raises(ParameterError):
            ctor(**kwargs)

    def test_oscillating_needs_shape_at_least_two(self):
        with pytest.raises(ParameterError):
            DistributionSpec.oscillating_gwt(1.9)
        DistributionSpec.oscillating_gwt(2.0)  # boundary is valid

    def test_wrong_param_set_rejected(self):
        with pytest.raises(ParameterError):
            DistributionSpec("gaussian", {"scale": 1.0})

    @given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_generalized_gaussian_tail_beta_tracks_shape(self, shape):
        assert DistributionSpec.generalized_gaussian(shape).tail_beta == pytest.approx(shape)

    def test_tail_beta_mapping(self):
        cases = [
            (DistributionSpec.gaussian(3.0), 2.0),
            (DistributionSpec.laplace(0.5), 1.0),
            (DistributionSpec.generalized_gaussian(3), 3.0),
            (DistributionSpec.weibull(0.7), 0.7),
            (DistributionSpec.oscillating_gwt(2.5), 2.5),
            (DistributionSpec.student_t(3.0), None),
            (DistributionSpec.point_mass(1.0), None),
        ]
        assert {spec.family for spec, _ in cases} == FAMILIES
        for spec, beta in cases:
            assert spec.tail_beta == beta, spec.family
        # predicted_beta is serialized: an int shape must still print as 3.0
        assert repr(DistributionSpec.generalized_gaussian(3).tail_beta) == "3.0"


class TestSampleIid:
    def test_zero_count_gives_empty_vector(self):
        out = sample_iid(DistributionSpec.gaussian(), 0, RngStream(1))
        assert out.shape == (0,)

    def test_negative_count_rejected(self):
        for n in (-1, 2.5, True, "3"):
            with pytest.raises(ParameterError):
                sample_iid(DistributionSpec.gaussian(), n, RngStream(1))

    def test_same_stream_reproduces_bit_for_bit(self):
        spec = DistributionSpec.gaussian()
        a = sample_iid(spec, 1000, RngStream(42, 7))
        b = sample_iid(spec, 1000, RngStream(42, 7))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        spec = DistributionSpec.gaussian()
        a = sample_iid(spec, 1000, RngStream(42, 7))
        b = sample_iid(spec, 1000, RngStream(42, 8))
        assert not np.array_equal(a, b)

    def test_exponential_survival_at_one(self):
        # weibull(shape=1, scale=1) is the unit exponential
        x = sample_iid(DistributionSpec.weibull(1.0, 1.0), N_BIG, RngStream(3))
        assert abs((x >= 1.0).mean() - np.exp(-1)) < 0.005

    def test_builds_no_generator_it_does_not_use(self, monkeypatch):
        """A point mass and an empty draw return before the stream's generator is built."""

        def refuse(self):
            raise AssertionError("generator built for a draw that needs none")

        monkeypatch.setattr(RngStream, "generator", refuse)
        x = sample_iid(DistributionSpec.point_mass(2.5), 100, RngStream(0))
        np.testing.assert_array_equal(x, np.full(100, 2.5))
        assert sample_iid(DistributionSpec.gaussian(), 0, RngStream(1)).shape == (0,)

    def test_point_mass_is_constant(self):
        x = sample_iid(DistributionSpec.point_mass(2.5), 100, RngStream(0))
        np.testing.assert_array_equal(x, np.full(100, 2.5))

    @pytest.mark.parametrize(
        "spec",
        [
            DistributionSpec.gaussian(),
            DistributionSpec.laplace(),
            DistributionSpec.weibull(1.5, 2.0),
            DistributionSpec.generalized_gaussian(3.0, 0.5),
            DistributionSpec.oscillating_gwt(2.0),
            DistributionSpec.student_t(3.0),
        ],
        ids=lambda s: s.family,
    )
    def test_dkw_band_against_exact_survival(self, spec):
        """Empirical survival tracks the analytic one within the 99.9% DKW band."""
        n = N_BIG
        x = np.sort(sample_iid(spec, n, RngStream(11)))
        eps = np.sqrt(np.log(2 / 0.001) / (2 * n))
        s_exact = exact_survival(spec, x)
        # survival just left and right of each sample point
        s_hat_right = (n - np.arange(1, n + 1)) / n  # P(X > x_i) face value
        s_hat_left = (n - np.arange(n)) / n          # P(X >= x_i)
        sup = max(
            np.abs(s_exact - s_hat_left).max(),
            np.abs(s_exact - s_hat_right).max(),
        )
        assert sup <= eps + 1.0 / n


def laplace_by_math(u, scale):
    """The Laplace inverse CDF of each uniform, in Python floats."""
    return np.array([math.copysign(-scale * math.log(1 - abs(2 * v - 1)), 2 * v - 1) for v in np.ravel(u)])


class FirstUniformsZero:
    """A generator whose first two draws start with a uniform of exactly 0.0."""

    def __init__(self, seed):
        self._gen = np.random.default_rng(seed)
        self.drawn = []

    def random(self, size=None, out=None):
        u = self._gen.random(size, out=out)
        if len(self.drawn) < 2:
            u.flat[0] = 0.0
        self.drawn.append(np.array(u, copy=True))
        return u


class TestLaplaceDraws:
    def test_inverse_cdf_at_float_precision(self):
        scale = 0.7
        x = sample_iid(DistributionSpec.laplace(scale), N_BIG, RngStream(5))
        u = RngStream(5).generator().random(N_BIG)
        np.testing.assert_allclose(x, laplace_by_math(u, scale), rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "size",
        [0, 1, 7, (3, 5), _LAPLACE_BLOCK - 1, _LAPLACE_BLOCK, 3 * _LAPLACE_BLOCK + 5, (_LAPLACE_BLOCK + 3, 2)],
    )
    def test_sizes_and_stream_position(self, size):
        """One uniform per variate: the stream ends where gen.random(size) leaves it.

        to_scale runs in blocks of _LAPLACE_BLOCK, so the sizes straddle one and three blocks.
        A tuple size is a weight matrix, drawn as the sampler draws one: through its flat view.
        """
        gen, twin = np.random.default_rng(9), np.random.default_rng(9)
        x = np.empty(size)
        flat = x.reshape(-1)
        draw_unit(gen, "laplace", None, flat)
        to_scale("laplace", 2.0, flat, np.empty(_LAPLACE_BLOCK))
        u = twin.random(size)
        assert x.shape == u.shape
        np.testing.assert_allclose(x.ravel(), laplace_by_math(u, 2.0), rtol=1e-15, atol=0)
        assert gen.random() == twin.random()

    def test_zero_uniform_is_redrawn(self):
        gen = FirstUniformsZero(3)
        x = np.empty(1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw_unit(gen, "laplace", None, x)
            to_scale("laplace", 1.0, x, np.empty(_LAPLACE_BLOCK))
        assert np.isfinite(x).all()
        # the zero is replaced by the next uniform, which is itself zero once
        first, redraw, again = gen.drawn
        assert redraw.tolist() == [0.0] and again.size == 1
        np.testing.assert_allclose(x, laplace_by_math(np.concatenate([again, first[1:]]), 1.0), rtol=1e-15)

    @pytest.mark.parametrize("spec", [DistributionSpec.laplace(), DistributionSpec.generalized_gaussian(1.5)],
                             ids=["laplace", "generalized_gaussian"])
    def test_holds_one_array_and_one_block(self, spec):
        """A second array of the draw's size would lift the closure suite's peak RSS."""
        n = N_BIG
        tracemalloc.start()
        try:
            sample_iid(spec, n, RngStream(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 8 * _LAPLACE_BLOCK + 2**20


@pytest.mark.parametrize("shape,scale", [(3.0, 0.5), (2.0, 1.0), (0.5, 2.0), (1.5, 0.3)])
def test_generalized_gaussian_bits_match_sign_times_magnitude(shape, scale):
    """The in-place draw gives the bits of scale * gamma**(1/shape) times a -1/+1 sign."""
    n = 10**5
    g = RngStream(21).generator()
    magnitude = scale * g.gamma(1.0 / shape, 1.0, n) ** (1.0 / shape)
    want = np.where(g.random(n) < 0.5, -1.0, 1.0) * magnitude
    got = sample_iid(DistributionSpec.generalized_gaussian(shape, scale), n, RngStream(21))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family,beta", [("gaussian", None), ("laplace", None), ("generalized_gaussian", 0.7)])
@pytest.mark.parametrize("scratch_size", [1, 7, _LAPLACE_BLOCK, None])
def test_two_phases_give_the_one_shot_bytes_at_any_scratch_size(family, beta, scratch_size):
    """draw_unit then to_scale, at any scratch size, gives sample_iid's bytes.

    The stream then stands where the family's numpy draws leave it.
    None stands for a scratch as long as the weights.
    """
    n = _LAPLACE_BLOCK + 5
    spec = DistributionSpec.generalized_gaussian(beta, 0.6) if beta else getattr(DistributionSpec, family)(0.6)
    gen, twin = RngStream(13).generator(), RngStream(13).generator()
    w = np.empty(n)
    draw_unit(gen, family, beta, w)
    to_scale(family, 0.6, w, np.empty(scratch_size or n))
    assert w.tobytes() == sample_iid(spec, n, RngStream(13)).tobytes()
    if family == "gaussian":
        twin.standard_normal(n)
    elif family == "laplace":
        twin.random(n)
    else:
        twin.gamma(1.0 / beta, 1.0, n)
        twin.random(n)
    assert gen.random() == twin.random()


class TestExactSurvival:
    def test_weibull_definition(self):
        assert exact_survival(DistributionSpec.weibull(2.0, 1.0), 1.0) == pytest.approx(
            np.exp(-1), rel=1e-12
        )

    def test_gaussian_median(self):
        assert exact_survival(DistributionSpec.gaussian(), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_laplace_both_sides(self):
        spec = DistributionSpec.laplace(2.0)
        assert exact_survival(spec, 2.0) == pytest.approx(0.5 * np.exp(-1), rel=1e-12)
        assert exact_survival(spec, -2.0) == pytest.approx(1 - 0.5 * np.exp(-1), rel=1e-12)

    def test_generalized_gaussian_against_quadrature(self):
        """Survival matches direct numerical integration of the density."""
        shape, scale = 3.0, 1.3
        spec = DistributionSpec.generalized_gaussian(shape, scale)
        norm = shape / (2 * scale * special.gamma(1 / shape))

        def density(t):
            return norm * np.exp(-((abs(t) / scale) ** shape))

        for x in (0.5, 1.0, 2.0, 3.0):
            expected, _ = integrate.quad(density, x, np.inf)
            assert exact_survival(spec, x) == pytest.approx(expected, rel=1e-9)

    def test_oscillating_formula(self):
        spec = DistributionSpec.oscillating_gwt(2.0)
        x = 1.7
        want = np.exp(-(x**2) * (1 + np.cos(np.log(x)) ** 2))
        assert exact_survival(spec, x) == pytest.approx(want, rel=1e-14)
        assert exact_survival(spec, 0.0) == 1.0
        assert exact_survival(spec, -1.0) == 1.0

    def test_point_mass_step(self):
        spec = DistributionSpec.point_mass(1.0)
        assert exact_survival(spec, 0.99) == 1.0
        assert exact_survival(spec, 1.0) == 1.0
        assert exact_survival(spec, 1.01) == 0.0

    def test_vectorized(self):
        spec = DistributionSpec.gaussian()
        out = exact_survival(spec, np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] > 0.5 > out[2]


class TestOscillatingSampler:
    def test_shape_below_two_rejected(self):
        with pytest.raises(ParameterError):
            sample_iid(DistributionSpec.oscillating_gwt(1.5), 10, RngStream(0))

    def test_inversion_at_zero_exponent(self):
        # u = 1 corresponds to exponent t = 0 and x = 0
        assert _invert_oscillating_survival(2.0, np.array([0.0]))[0] == 0.0

    def test_quantile_against_brentq_oracle(self):
        """beta=3 at u=e^-1: x solves x**3 (1 + cos(ln x)**2) = 1."""
        oracle = optimize.brentq(
            lambda x: x**3 * (1 + np.cos(np.log(x)) ** 2) - 1.0, 0.5, 1.0, xtol=1e-14
        )
        got = _invert_oscillating_survival(3.0, np.array([1.0]))[0]
        assert got == pytest.approx(oracle, abs=1e-10)
        spec = DistributionSpec.oscillating_gwt(3.0)
        assert exact_survival(spec, oracle) == pytest.approx(np.exp(-1), rel=1e-10)

    def test_inversion_tolerance(self):
        t = np.geomspace(1e-6, 50.0, 64)
        x = _invert_oscillating_survival(2.0, t)
        back = x**2 * (1 + np.cos(np.log(np.where(x > 0, x, 1.0))) ** 2)
        # forward error scaled by derivative: local slope is a few t / x
        assert np.all(np.abs(back - t) < 1e-9 * (1 + t / np.where(x > 0, x, 1.0)))

    def test_draws_between_analytic_envelopes(self):
        """All mass respects exp(-2 x^2) <= S(x) <= exp(-x^2) on the tail."""
        x = sample_iid(DistributionSpec.oscillating_gwt(2.0), N_BIG, RngStream(5))
        tail = np.sort(x)
        grid = np.quantile(tail, [0.95, 0.99, 0.999, 0.9999])
        s_hat = np.array([(x >= g).mean() for g in grid])
        assert np.all(s_hat <= np.exp(-(grid**2)) * 1.1)
        assert np.all(s_hat >= np.exp(-2 * grid**2) / 1.1)

