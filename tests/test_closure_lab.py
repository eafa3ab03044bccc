"""Tests for closure rules, PD estimation and the truncation control."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gwt_lab import (
    DistributionSpec,
    FitWindow,
    InsufficientDataError,
    ParameterError,
    RngStream,
    check_power_rule,
    check_product_rule,
    check_sum_rule,
    closure_tolerance,
    estimate_pd_constant,
    negative_control_truncation,
    weight_unit_product_samples,
)
from gwt_lab.closure_lab import PRODUCT_NET_HIDDEN_WIDTH, PRODUCT_NET_INPUT_DIM, feasible_z_quantiles

N = 2 * 10**5
N_WIDE = 10**6  # gaussian-family checks at beta = 2 need the full-scale window
WINDOW = FitWindow()
SHALLOW_Z = (0.5, 0.9, 0.99)  # deep cells need n = 1e6; tests run smaller


class TestTolerance:
    def test_relative_band_dominates_when_stderr_small(self):
        assert closure_tolerance(2.0, 0.01) == pytest.approx(0.3)

    def test_stderr_floor(self):
        assert closure_tolerance(0.1, 0.5) == pytest.approx(1.0)


class TestEstimatePdConstant:
    def test_independent_pair_is_half(self):
        joint = RngStream(1).generator().standard_normal((N, 2))
        pd = estimate_pd_constant(joint, z_quantiles=SHALLOW_Z)
        assert abs(pd.c_hat - 0.5) <= 0.05

    def test_independent_triple_is_quarter(self):
        joint = RngStream(2).generator().standard_normal((N, 3))
        pd = estimate_pd_constant(joint, z_quantiles=SHALLOW_Z)
        assert abs(pd.c_hat - 0.25) <= 0.05

    def test_left_side_mirror(self):
        joint = RngStream(3).generator().standard_normal((N, 2))
        pd = estimate_pd_constant(joint, side="left", z_quantiles=SHALLOW_Z)
        assert abs(pd.c_hat - 0.5) <= 0.05

    def test_counter_monotone_pair_fails_pd(self):
        x = RngStream(4).generator().standard_normal(N)
        pd = estimate_pd_constant(np.column_stack([x, -x]), z_quantiles=SHALLOW_Z)
        assert pd.c_hat <= 0.05

    def test_independent_conditionals_flat_in_z(self):
        joint = RngStream(5).generator().standard_normal((N, 2))
        pd = estimate_pd_constant(joint, z_quantiles=SHALLOW_Z)
        for q, p in zip(SHALLOW_Z, pd.per_z_conditional):
            cell = N * (1 - q)
            assert abs(p - 0.5) <= 3 * np.sqrt(0.25 / cell)

    def test_small_sample_rejected(self):
        joint = np.zeros((1000, 2))
        with pytest.raises(InsufficientDataError):
            estimate_pd_constant(joint)

    def test_sparse_cell_rejected(self):
        # the 0.9999 cell of n = 1e5 has ~10 events, below the default 100
        joint = RngStream(6).generator().standard_normal((10**5, 2))
        with pytest.raises(InsufficientDataError):
            estimate_pd_constant(joint, z_quantiles=(0.5, 0.9999))

    def test_quantiles_validated(self):
        joint = RngStream(7).generator().standard_normal((N, 2))
        with pytest.raises(ParameterError):
            estimate_pd_constant(joint, z_quantiles=(0.2,))

    def test_lemma_products_respect_bound(self):
        for n_units in (2, 3, 4):
            joint = weight_unit_product_samples(N, n_units, RngStream(8 + n_units))
            floor = 1.0 / 2 ** (n_units - 1) - 0.05
            for side in ("right", "left"):
                pd = estimate_pd_constant(joint, side=side, z_quantiles=SHALLOW_Z)
                assert pd.c_hat >= floor


class TestSumRule:
    def test_gaussian_plus_laplace(self):
        report = check_sum_rule(
            [DistributionSpec.gaussian(), DistributionSpec.laplace()],
            N,
            WINDOW,
            RngStream(21),
        )
        assert report.predicted_beta == 1.0
        assert report.verdict == "pass"
        assert 0.8 < report.estimated.beta_hat < 1.2

    def test_point_mass_is_identity(self):
        report = check_sum_rule(
            [DistributionSpec.gaussian(), DistributionSpec.point_mass(0.0)],
            N_WIDE,
            WINDOW,
            RngStream(22),
        )
        assert report.predicted_beta == 2.0
        assert report.verdict == "pass"

    def test_min_rule_over_three(self):
        specs = [
            DistributionSpec.generalized_gaussian(2.0),
            DistributionSpec.generalized_gaussian(1.5),
            DistributionSpec.generalized_gaussian(3.0),
        ]
        report = check_sum_rule(specs, N, WINDOW, RngStream(23))
        assert report.predicted_beta == 1.5
        assert report.verdict == "pass"

    def test_verdict_invariant_under_permutation(self):
        specs = [DistributionSpec.gaussian(), DistributionSpec.laplace()]
        a = check_sum_rule(specs, N, WINDOW, RngStream(24))
        b = check_sum_rule(specs[::-1], N, WINDOW, RngStream(24))
        assert a.predicted_beta == b.predicted_beta
        assert a.verdict == b.verdict

    def test_requires_a_tail(self):
        with pytest.raises(ParameterError):
            check_sum_rule(
                [DistributionSpec.point_mass(1.0), DistributionSpec.point_mass(2.0)],
                N,
                WINDOW,
                RngStream(25),
            )


class TestProductRule:
    def test_two_gaussians(self):
        report = check_product_rule(
            DistributionSpec.gaussian(), DistributionSpec.gaussian(), N, WINDOW, RngStream(31)
        )
        assert report.predicted_beta == pytest.approx(1.0)
        assert report.verdict == "pass"

    def test_gaussian_laplace_harmonic(self):
        report = check_product_rule(
            DistributionSpec.gaussian(), DistributionSpec.laplace(), N, WINDOW, RngStream(32)
        )
        assert report.predicted_beta == pytest.approx(2.0 / 3.0)
        assert report.verdict == "pass"

    def test_commutativity(self):
        x, y = DistributionSpec.gaussian(), DistributionSpec.laplace()
        a = check_product_rule(x, y, N, WINDOW, RngStream(33))
        b = check_product_rule(y, x, N, WINDOW, RngStream(33))
        assert a.predicted_beta == b.predicted_beta
        joint = np.hypot(a.estimated.stderr_slope, b.estimated.stderr_slope)
        assert abs(a.estimated.beta_hat - b.estimated.beta_hat) <= 3 * joint

    def test_point_mass_identity(self):
        report = check_product_rule(
            DistributionSpec.gaussian(), DistributionSpec.point_mass(1.0), N_WIDE, WINDOW, RngStream(34)
        )
        assert report.predicted_beta == 2.0
        assert report.verdict == "pass"

    def test_zero_point_mass_rejected(self):
        with pytest.raises(ParameterError):
            check_product_rule(
                DistributionSpec.gaussian(), DistributionSpec.point_mass(0.0), N, WINDOW, RngStream(35)
            )

    def test_asymmetric_factor_rejected(self):
        with pytest.raises(ParameterError):
            check_product_rule(
                DistributionSpec.gaussian(), DistributionSpec.weibull(1.0), N, WINDOW, RngStream(36)
            )

    @given(
        st.floats(min_value=0.3, max_value=5.0),
        st.floats(min_value=0.3, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_harmonic_formula_symmetry(self, bx, by):
        f = 1.0 / (1.0 / bx + 1.0 / by)
        g = 1.0 / (1.0 / by + 1.0 / bx)
        assert f == pytest.approx(g)
        assert f <= min(bx, by)


class TestPowerRule:
    def test_squared_gaussian_is_chi_square_tail(self):
        report = check_power_rule(DistributionSpec.gaussian(), 1.0, 2.0, N, WINDOW, RngStream(41))
        assert report.predicted_beta == pytest.approx(1.0)
        assert report.verdict == "pass"

    def test_pure_rescaling_keeps_beta(self):
        report = check_power_rule(DistributionSpec.gaussian(), 3.0, 1.0, N_WIDE, WINDOW, RngStream(42))
        assert report.predicted_beta == pytest.approx(2.0)
        assert report.verdict == "pass"

    def test_sqrt_laplace_doubles_beta(self):
        report = check_power_rule(DistributionSpec.laplace(), 1.0, 0.5, N, WINDOW, RngStream(43))
        assert report.predicted_beta == pytest.approx(2.0)
        assert report.verdict == "pass"

    def test_invalid_exponent(self):
        with pytest.raises(ParameterError):
            check_power_rule(DistributionSpec.gaussian(), 1.0, 0.0, N, WINDOW, RngStream(44))


class TestTruncationControl:
    def test_sums_capped_exactly(self):
        report = negative_control_truncation(DistributionSpec.gaussian(), 1.0, N, RngStream(51))
        assert report.within_bound
        assert report.max_abs_sum <= 2.0
        assert report.survival_beyond_bound == 0.0
        assert report.pd.c_hat <= 0.05

    def test_loose_truncation_recovers_gaussian(self):
        # m = 10 never triggers at this n, so X + Y = 2X
        report = negative_control_truncation(DistributionSpec.gaussian(), 10.0, N, RngStream(52))
        assert report.within_bound
        assert report.tail_outcome == "estimate"
        est = report.tail_estimate
        assert abs(est.beta_hat - 2.0) <= closure_tolerance(2.0, est.stderr_slope)

    def test_nonpositive_cutoff_rejected(self):
        with pytest.raises(ParameterError):
            negative_control_truncation(DistributionSpec.gaussian(), 0.0, N, RngStream(53))


def weight_net_products(n, n_units, x, gen):
    """Reference sampler: the two-layer net on input ``x`` with every N(0, 1) weight drawn."""
    w1 = gen.standard_normal((n, PRODUCT_NET_INPUT_DIM, PRODUCT_NET_HIDDEN_WIDTH))
    h1 = np.maximum(np.einsum("d,mdk->mk", x, w1), 0.0)
    w2 = gen.standard_normal((n, PRODUCT_NET_HIDDEN_WIDTH, n_units))
    h2 = np.maximum(np.einsum("mk,mku->mu", h1, w2), 0.0)
    return gen.standard_normal((n, n_units)) * h2


class TestWeightUnitProducts:
    @pytest.mark.parametrize("n_units", [2, 3, 4])
    def test_collapse_has_the_weight_net_law(self, n_units):
        """The collapsed sampler draws the joint law of the full weight net.

        The reference net gets the sampler's fixed input (child stream 1)
        and draws its weights from an unrelated stream.
        """
        rng = RngStream(70)
        got = weight_unit_product_samples(N, n_units, rng)
        x = rng.child(1).generator().standard_normal(PRODUCT_NET_INPUT_DIM)
        ref = weight_net_products(N, n_units, x, RngStream(71).generator())
        for a, b in zip(got.T, ref.T):
            assert stats.ks_2samp(a, b).pvalue > 1e-3
        assert stats.ks_2samp(np.linalg.norm(got, axis=1), np.linalg.norm(ref, axis=1)).pvalue > 1e-3
        # an exact zero needs h2 = 0: P = 1/16 + (15/16)(1/2) = 17/32 per column
        zero_got, zero_ref = (got == 0).mean(axis=0), (ref == 0).mean(axis=0)
        se = np.sqrt((17 / 32) * (15 / 32) / N)
        assert np.all(np.abs(zero_got - zero_ref) <= 4 * np.sqrt(2) * se)
        assert np.all(np.abs(zero_got - 17 / 32) <= 4 * se)
        zq = feasible_z_quantiles(N)
        for side in ("right", "left"):
            p_got = estimate_pd_constant(got, side=side, z_quantiles=zq).per_z_conditional
            p_ref = estimate_pd_constant(ref, side=side, z_quantiles=zq).per_z_conditional
            cells = N * (1 - np.asarray(zq))
            p = (p_got + p_ref) / 2
            assert np.all(np.abs(p_got - p_ref) <= 4 * np.sqrt(2 * p * (1 - p) / cells))

    def test_same_stream_same_bits(self):
        a = weight_unit_product_samples(10**4, 3, RngStream(72))
        b = weight_unit_product_samples(10**4, 3, RngStream(72))
        assert a.tobytes() == b.tobytes()

    def test_shape_and_zero_mass(self):
        joint = weight_unit_product_samples(10**5, 3, RngStream(61))
        assert joint.shape == (10**5, 3)
        # relu units carry an atom at zero, so products do too
        assert (joint == 0).mean() > 0.1

    def test_needs_two_units(self):
        with pytest.raises(ParameterError):
            weight_unit_product_samples(10**5, 1, RngStream(62))
