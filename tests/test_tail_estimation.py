"""Tests for empirical survival, the tail-index fit and the envelope checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from gwt_lab import (
    DegenerateTailError,
    DistributionSpec,
    DomainError,
    EmpiricalTail,
    FitWindow,
    InsufficientDataError,
    ParameterError,
    RngStream,
    check_gwt_envelope,
    check_subweibull_envelope,
    empirical_survival,
    estimate_tail_index,
    loglog_points,
    refit_beta_from_points,
    sample_iid,
)
from gwt_lab.tail_estimation import (
    BETA_MAX,
    BETA_MIN,
    _bounded_minimum,
    _profile_objective,
    _sorted_quantiles,
)


def exact_weibull(beta, n, seed):
    """Inverse-transform draws from survival exp(-x**beta), oracle route."""
    u = np.random.default_rng(seed).random(n)
    return (-np.log1p(-u)) ** (1.0 / beta)


class TestEmpiricalSurvival:
    def test_count_rule(self):
        tail = EmpiricalTail.from_samples([1.0, 2.0, 3.0])
        assert empirical_survival(tail, 2.0) == pytest.approx(2 / 3)

    def test_below_minimum_is_one(self):
        tail = EmpiricalTail.from_samples([1.0, 2.0, 3.0])
        assert empirical_survival(tail, 0.5) == 1.0

    def test_above_maximum_is_zero(self):
        tail = EmpiricalTail.from_samples([1.0, 2.0, 3.0])
        assert empirical_survival(tail, 3.5) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            EmpiricalTail.from_samples([])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            EmpiricalTail.from_samples([1.0, np.nan])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, values):
        tail = EmpiricalTail.from_samples(values)
        probes = np.linspace(min(values) - 1, max(values) + 1, 41)
        s = empirical_survival(tail, probes)
        assert np.all(s >= 0) and np.all(s <= 1)
        assert np.all(np.diff(s) <= 0)


class TestFolding:
    def test_absolute_folds(self):
        tail = EmpiricalTail.from_samples([-3.0, -1.0, 2.0], side="absolute")
        np.testing.assert_array_equal(tail.sorted_samples, [1.0, 2.0, 3.0])

    def test_bad_side(self):
        with pytest.raises(ParameterError):
            EmpiricalTail.from_samples([1.0], side="up")


def fit_outcome(tail, window):
    """The bytes of a tail's log-log points and its estimate, or the error that refused them."""
    try:
        return loglog_points(tail, window).tobytes(), estimate_tail_index(tail, window)
    except (DomainError, InsufficientDataError, DegenerateTailError) as exc:
        return type(exc), str(exc)


class TestPartialFold:
    """A tail kept from q_keep up fits bit for bit as the full sort does."""

    @pytest.mark.parametrize("side", ["right", "absolute"])
    def test_ties_at_the_cut(self, side):
        x = np.round(np.random.default_rng(3).standard_normal(10**5) * 50) / 50
        window = FitWindow()
        full = EmpiricalTail.from_samples(x, side=side)
        part = EmpiricalTail.from_samples(x, side=side, q_keep=window.q_lo)
        k = int(np.floor((x.size - 1) * window.q_lo))
        assert part.n == full.n == x.size
        assert part.n_below < k  # values tied with the k-th order statistic are kept
        np.testing.assert_array_equal(part.sorted_samples, full.sorted_samples[part.n_below:])
        points, estimate = fit_outcome(part, window)
        assert (points, estimate) == fit_outcome(full, window)

    @pytest.mark.parametrize("values", [[2.5], [1.0, 3.0], [-1.0, -1.0]])
    def test_one_and_two_samples(self, values):
        window = FitWindow()
        part = EmpiricalTail.from_samples(values, q_keep=window.q_lo)
        assert part.n == len(values)
        assert fit_outcome(part, window) == fit_outcome(EmpiricalTail.from_samples(values), window)

    def test_q_keep_zero_is_the_full_sort(self):
        x = np.random.default_rng(4).standard_normal(1001)
        tail = EmpiricalTail.from_samples(x, q_keep=0.0)
        assert tail.n_below == 0
        assert tail.sorted_samples.tobytes() == np.sort(x).tobytes()

    @given(
        st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=300),
        st.floats(min_value=0.0, max_value=0.6),
        st.sampled_from(["right", "absolute"]),
        st.booleans(),
    )
    # the sort and the partition leave different signed zeros at the window's q_lo index
    @example(
        values=[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0],
        q_keep=0.5,
        side="right",
        rounded=False,
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, values, q_keep, side, rounded):
        x = np.round(np.asarray(values)) if rounded else np.asarray(values)
        window = FitWindow(q_lo=0.6, q_hi=0.99, grid_size=40, min_points=8)
        part = EmpiricalTail.from_samples(x, side=side, q_keep=q_keep)
        full = EmpiricalTail.from_samples(x, side=side)
        assert part.n == x.size
        assert fit_outcome(part, window) == fit_outcome(full, window)
        probes = part.sorted_samples[[0, -1]] + [0.0, 1.0]
        assert empirical_survival(part, probes).tobytes() == empirical_survival(full, probes).tobytes()

    def test_window_below_q_keep_refused(self):
        tail = EmpiricalTail.from_samples(exact_weibull(1.0, 10**4, 5), q_keep=0.95)
        with pytest.raises(ParameterError, match="q_keep"):
            loglog_points(tail, FitWindow(q_lo=0.9))
        with pytest.raises(ParameterError, match="q_keep"):
            estimate_tail_index(tail, FitWindow(q_lo=0.9))

    def test_survival_below_block_refused(self):
        x = np.arange(100.0)
        tail = EmpiricalTail.from_samples(x, q_keep=0.5)
        assert tail.sorted_samples[0] == 49.0
        assert empirical_survival(tail, 49.0) == 0.51
        with pytest.raises(DomainError, match="below the kept"):
            empirical_survival(tail, [60.0, 48.5])

    @pytest.mark.parametrize("q_keep", [-0.1, 1.0, np.nan])
    def test_q_keep_out_of_range(self, q_keep):
        with pytest.raises(ParameterError, match="q_keep"):
            EmpiricalTail.from_samples([1.0, 2.0], q_keep=q_keep)

    @pytest.mark.parametrize("q_keep", [0.0, 0.95])
    def test_caller_array_unchanged_without_overwrite(self, q_keep):
        x = np.random.default_rng(6).standard_normal(1000)
        before = x.tobytes()
        EmpiricalTail.from_samples(x, q_keep=q_keep)
        assert x.tobytes() == before

    def test_overwrite_partitions_in_place(self):
        x = np.random.default_rng(6).standard_normal(1000)
        kept = EmpiricalTail.from_samples(x.copy(), q_keep=0.95).sorted_samples
        EmpiricalTail.from_samples(x, q_keep=0.95, overwrite=True)
        np.testing.assert_array_equal(np.sort(x[-kept.size:]), kept)


class TestFitWindow:
    def test_bad_quantiles(self):
        with pytest.raises(ParameterError):
            FitWindow(q_lo=0.99, q_hi=0.95)
        with pytest.raises(ParameterError):
            FitWindow(q_lo=0.0, q_hi=0.5)

    def test_grid_must_cover_min_points(self):
        with pytest.raises(ParameterError):
            FitWindow(grid_size=20, min_points=50)


class TestLoglogPoints:
    def test_exact_weibull_line_slope(self):
        """log(-log S) for S = exp(-x^2) is a slope-2 line in log x."""
        tail = EmpiricalTail.from_samples(exact_weibull(2.0, 10**5, 1))
        pts = loglog_points(tail, FitWindow())
        slope = np.polyfit(pts[:, 0], pts[:, 1], 1)[0]
        assert 1.8 < slope < 2.2

    def test_tiny_sample_insufficient(self):
        tail = EmpiricalTail.from_samples(np.arange(1.0, 11.0))
        with pytest.raises(InsufficientDataError):
            loglog_points(tail, FitWindow(min_points=50))

    def test_nonpositive_window_rejected(self):
        samples = np.random.default_rng(0).normal(-10.0, 0.1, 1000)
        tail = EmpiricalTail.from_samples(samples)
        with pytest.raises(DomainError):
            loglog_points(tail, FitWindow())

    def test_shape(self):
        tail = EmpiricalTail.from_samples(exact_weibull(1.0, 10**4, 2))
        pts = loglog_points(tail, FitWindow())
        assert pts.ndim == 2 and pts.shape[1] == 2
        assert np.all(np.diff(pts[:, 0]) > 0)

    def test_window_quantiles_bitwise_equal_numpy(self):
        """The grid's window ends are np.quantile's, read from the sorted samples without a copy."""
        gen = np.random.default_rng(11)
        for trial in range(3000):
            n = int(gen.integers(1, 3000))
            if trial % 3 == 0:
                s = np.sort(gen.integers(-5, 6, n).astype(np.float64))  # ties and zeros
            else:
                s = np.sort(gen.standard_cauchy(n) * 10.0 ** gen.integers(-3, 4))
            qs = np.sort(gen.random(2))
            if trial % 5 == 0:
                qs = np.array([0.95, 0.9999])
            elif trial % 7 == 0:
                qs = np.array([qs[0], 1.0 - 1e-12])
            got = _sorted_quantiles(s, (qs[0], qs[1]))
            want = np.quantile(s, [qs[0], qs[1]])
            assert got.tobytes() == want.tobytes(), (trial, n, qs)


class TestEstimateTailIndex:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
    def test_exact_weibull_oracle(self, beta):
        tail = EmpiricalTail.from_samples(exact_weibull(beta, 2 * 10**5, 7))
        est = estimate_tail_index(tail)
        assert abs(est.beta_hat - beta) < 0.12 * beta

    def test_laplace_band(self):
        x = sample_iid(DistributionSpec.laplace(), 2 * 10**5, RngStream(8))
        est = estimate_tail_index(EmpiricalTail.from_samples(x, side="absolute"))
        assert 0.85 < est.beta_hat < 1.15

    def test_gaussian_is_near_two(self):
        x = sample_iid(DistributionSpec.gaussian(), 2 * 10**5, RngStream(9))
        est = estimate_tail_index(EmpiricalTail.from_samples(x, side="absolute"))
        assert 1.5 < est.beta_hat < 2.3

    def test_bounded_tail_degenerates(self):
        u = np.random.default_rng(3).random(10**5)
        tail = EmpiricalTail.from_samples(u)
        with pytest.raises(DegenerateTailError):
            estimate_tail_index(tail)

    def test_scale_invariance_is_exact(self):
        x = exact_weibull(1.5, 10**5, 11)
        a = estimate_tail_index(EmpiricalTail.from_samples(x))
        b = estimate_tail_index(EmpiricalTail.from_samples(123.0 * x))
        assert abs(a.beta_hat - b.beta_hat) < 1e-6
        assert abs(a.beta_hat - b.beta_hat) < 2 * np.hypot(a.stderr_slope, b.stderr_slope)

    def test_power_transform_divides_beta(self):
        x = sample_iid(DistributionSpec.gaussian(), 10**5, RngStream(12))
        base = estimate_tail_index(EmpiricalTail.from_samples(x, side="absolute"))
        powered = estimate_tail_index(EmpiricalTail.from_samples(np.abs(x) ** 2.0))
        assert powered.beta_hat == pytest.approx(base.beta_hat / 2.0, abs=1e-6)

    def test_symmetric_folding_agrees(self):
        x = sample_iid(DistributionSpec.generalized_gaussian(2.0), 10**5, RngStream(13))
        right = estimate_tail_index(EmpiricalTail.from_samples(x, side="right"))
        folded = estimate_tail_index(EmpiricalTail.from_samples(x, side="absolute"))
        joint = np.hypot(right.stderr_slope, folded.stderr_slope)
        assert abs(right.beta_hat - folded.beta_hat) <= 2 * joint

    def test_stderr_tracks_seed_spread(self):
        """Reported standard errors should match observed run-to-run spread."""
        betas, ses = [], []
        for seed in range(24):
            tail = EmpiricalTail.from_samples(exact_weibull(1.0, 5 * 10**4, 100 + seed))
            est = estimate_tail_index(tail)
            betas.append(est.beta_hat)
            ses.append(est.stderr_slope)
        ratio = np.std(betas) / np.mean(ses)
        assert 0.4 < ratio < 2.2

    def test_x_range_inside_support(self):
        x = exact_weibull(2.0, 10**5, 15)
        est = estimate_tail_index(EmpiricalTail.from_samples(x))
        lo, hi = est.x_range
        assert x.min() <= lo < hi <= x.max()

    def test_refit_from_points_matches(self):
        tail = EmpiricalTail.from_samples(exact_weibull(2.0, 10**5, 16))
        pts = loglog_points(tail, FitWindow())
        est = estimate_tail_index(tail)
        assert refit_beta_from_points(pts) == pytest.approx(est.beta_hat, abs=1e-12)


class TestSubWeibullEnvelope:
    def test_exact_weibull_is_its_own_envelope(self):
        tail = EmpiricalTail.from_samples(exact_weibull(1.0, 10**6, 21))
        assert check_subweibull_envelope(tail, theta=1.0)

    def test_gaussian_holds_at_heavier_envelope(self):
        # theta = 1 means envelope exp(-b x): heavier than the Gaussian tail
        x = sample_iid(DistributionSpec.gaussian(), 10**6, RngStream(22))
        tail = EmpiricalTail.from_samples(x, side="absolute")
        assert check_subweibull_envelope(tail, theta=1.0)

    def test_gaussian_fails_at_lighter_envelope(self):
        # theta = 0.25 demands exp(-b x^4) decay: lighter than Gaussian
        x = sample_iid(DistributionSpec.gaussian(), 10**6, RngStream(22))
        tail = EmpiricalTail.from_samples(x, side="absolute")
        assert not check_subweibull_envelope(tail, theta=0.25)

    def test_bad_theta(self):
        tail = EmpiricalTail.from_samples(exact_weibull(1.0, 10**4, 1))
        with pytest.raises(ParameterError):
            check_subweibull_envelope(tail, theta=0.0)


class TestGwtEnvelope:
    def test_exact_weibull_unit_band(self):
        tail = EmpiricalTail.from_samples(exact_weibull(2.0, 10**6, 23))
        assert check_gwt_envelope(tail, beta=2.0, l_lo=1.0, l_hi=1.0)

    def test_oscillating_band(self):
        x = sample_iid(DistributionSpec.oscillating_gwt(2.0), 10**6, RngStream(24))
        tail = EmpiricalTail.from_samples(x)
        assert check_gwt_envelope(tail, beta=2.0, l_lo=2.0, l_hi=1.0)
        assert not check_gwt_envelope(tail, beta=1.5, l_lo=2.0, l_hi=1.0)
        assert not check_gwt_envelope(tail, beta=2.5, l_lo=2.0, l_hi=1.0)

    def test_gaussian_fails_cubic_band(self):
        x = sample_iid(DistributionSpec.gaussian(), 10**6, RngStream(25))
        tail = EmpiricalTail.from_samples(x, side="absolute")
        assert not check_gwt_envelope(tail, beta=3.0, l_lo=2.0, l_hi=1.0)

    def test_band_ordering_enforced(self):
        tail = EmpiricalTail.from_samples(exact_weibull(2.0, 10**4, 1))
        with pytest.raises(ParameterError):
            check_gwt_envelope(tail, beta=2.0, l_lo=1.0, l_hi=2.0)


def _random_profile_objective(gen):
    """The profile objective of a random log-log grid, built as _fit_exponent_curve builds it.

    The grid's true beta spans 0.02..40, past both search bounds, so some
    minima sit on a bound and others inside.
    """
    k = int(gen.integers(50, 200))
    lnx = np.sort(gen.uniform(-1.0, 3.0, k))
    beta = np.exp(gen.uniform(np.log(0.02), np.log(40.0)))
    y = np.exp(gen.normal(0.0, 2.0)) * np.exp(np.minimum(beta * (lnx - lnx.mean()), 50.0))
    y = y + gen.uniform(-0.5, 2.0) * y.min() + 1e-3
    y = y * np.exp(gen.normal(0.0, 0.05, k))
    surv = np.exp(-y)
    sw = np.sqrt(surv / (1.0 - surv))
    z = lnx - lnx.mean()
    return lambda lnb: _profile_objective(lnb, z, y, sw)[0]


def test_bounded_minimum_matches_scipy_bitwise():
    """The in-module Brent search evaluates at scipy's points and returns scipy's bits.

    Both searches log every abscissa they evaluate, so a changed step shows
    as a different evaluation sequence even when the argmin survives it.
    """
    lo, hi = np.log(BETA_MIN), np.log(BETA_MAX)
    gen = np.random.default_rng(20)
    cases = [(_random_profile_objective(gen), lo, hi, 1e-12) for _ in range(300)]
    cases += [
        (lambda t: t, lo, hi, 1e-12),  # minimum at log(BETA_MIN)
        (lambda t: -t, lo, hi, 1e-12),  # minimum at log(BETA_MAX)
        (lambda t: 0.0, lo, hi, 1e-12),  # flat
        (lambda t: float(t > 0.3), lo, hi, 1e-12),  # a step: ties on both sides
        (lambda t: np.sin(5.0 * t) + 0.1 * t, lo, hi, 1e-12),  # several local minima
        (abs, -1.0, 2.0, 0.0),  # never converges: stops at 500 evaluations
        (lambda t: (t + 30.0 - 1e-10) ** 2, -30.0, 30.0, 1e-12),  # a parabola lands by a bound
        # just wide enough to take one step: b - a is 3.244 tolerances, the loop needs 3.236
        (lambda t: t * t, 1.0, 1.0 + 3.244 * np.sqrt(2.2e-16), 0.0),
    ]
    # smooth objectives on intervals off zero, some wholly negative, some too
    # narrow to search: the loop's entry test and first step depend on a and b
    for _ in range(200):
        a = gen.uniform(-20.0, 20.0)
        b = a + 10.0 ** gen.uniform(-9.0, 1.5)
        m = a + (b - a) * gen.uniform(-0.2, 1.2)
        cases.append((lambda t, m=m: (t - m) ** 2 + 0.1 * np.cos(7.0 * (t - m)), a, b, 10.0 ** gen.uniform(-12, -6)))
    evaluations = []
    for i, (f, a, b, xatol) in enumerate(cases):
        seen = {"port": [], "scipy": []}

        def logged(name):
            def g(t):
                seen[name].append(float(t))
                return f(t)

            return g

        got = _bounded_minimum(logged("port"), a, b, xatol)
        want = optimize.minimize_scalar(
            logged("scipy"), bounds=(a, b), method="bounded", options={"xatol": xatol}
        ).x
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), i
        assert np.array(seen["port"]).tobytes() == np.array(seen["scipy"]).tobytes(), i
        evaluations.append(len(seen["port"]))
    assert max(evaluations) == 500  # the evaluation cap is reached, never passed
