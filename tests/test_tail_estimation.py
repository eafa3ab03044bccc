"""Tests for empirical survival, the tail-index fit and the envelope checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from gwt_lab.tail_estimation import _sorted_quantiles


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
