"""Tests for closure rules, PD estimation and the truncation control."""

import itertools
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gwt_lab import (
    DegenerateTailError,
    DistributionSpec,
    DomainError,
    EmpiricalTail,
    FitWindow,
    InsufficientDataError,
    LayerPrior,
    ParameterError,
    RngStream,
    check_power_rule,
    check_product_rule,
    check_sum_rule,
    closure_tolerance,
    empirical_survival,
    estimate_pd_constant,
    estimate_tail_index,
    loglog_points,
    make_input,
    negative_control_truncation,
    predicted_tail_parameter,
    sample_iid,
    weight_unit_product_samples,
)
from gwt_lab import closure_lab
from gwt_lab.closure_lab import PRODUCT_NET_HIDDEN_WIDTH, PRODUCT_NET_INPUT_DIM, closure_suite

N = 2 * 10**5
N_WIDE = 10**6  # gaussian-family checks at beta = 2 need the full-scale window
WINDOW = FitWindow()
DEFAULT_Z = (0.5, 0.9, 0.99)  # the PD z-grid at N: the 0.999 cell would expect 200 events


class TestTolerance:
    def test_relative_band_dominates_when_stderr_small(self):
        assert closure_tolerance(2.0, 0.01) == pytest.approx(0.3)

    def test_stderr_floor(self):
        assert closure_tolerance(0.1, 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("predicted", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_a_nonfinite_or_nonpositive_prediction_is_refused(self, predicted):
        """A NaN prediction used to fail silently, and an infinite one to pass any fit."""
        with pytest.raises(ParameterError, match="predicted_beta"):
            closure_tolerance(predicted, 0.1)
        samples = sample_iid(GAUSS_SPEC, 10**4, RngStream(1))
        with pytest.raises(ParameterError, match="predicted_beta"):
            closure_lab.judge_tail("sum_min", predicted, samples, "right", FitWindow(0.9, 0.999))


class TestEstimatePdConstant:
    def test_independent_pair_is_half(self):
        joint = RngStream(1).generator().standard_normal((N, 2))
        pd = estimate_pd_constant(joint)
        assert abs(pd.c_hat - 0.5) <= 0.05

    def test_independent_triple_is_quarter(self):
        joint = RngStream(2).generator().standard_normal((N, 3))
        pd = estimate_pd_constant(joint)
        assert abs(pd.c_hat - 0.25) <= 0.05

    def test_left_side_mirror(self):
        joint = RngStream(3).generator().standard_normal((N, 2))
        pd = estimate_pd_constant(joint, side="left")
        assert abs(pd.c_hat - 0.5) <= 0.05

    def test_counter_monotone_pair_fails_pd(self):
        x = RngStream(4).generator().standard_normal(N)
        pd = estimate_pd_constant(np.column_stack([x, -x]))
        assert pd.c_hat <= 0.05

    def test_independent_conditionals_flat_in_z(self):
        joint = RngStream(5).generator().standard_normal((N, 2))
        pd = estimate_pd_constant(joint)
        assert pd.per_z_conditional.size == len(DEFAULT_Z)
        for q, p in zip(DEFAULT_Z, pd.per_z_conditional):
            cell = N * (1 - q)
            assert abs(p - 0.5) <= 3 * np.sqrt(0.25 / cell)

    def test_small_sample_rejected(self):
        joint = np.zeros((1000, 2))
        with pytest.raises(InsufficientDataError):
            estimate_pd_constant(joint)

    def test_million_rows_keep_the_deepest_quantile(self):
        """At n = 1e6 the 0.999 cell holds exactly 1000 events, the fewest the cell rule allows."""
        grids = {}
        for result in closure_suite("pd", 11, 10**6, WINDOW):
            for key in ("pd", "pd_left"):
                if key in result.fields:
                    record = result.fields[key]
                    assert len(record["cell_events"]) == len(record["z_grid"])
                    grids[(result.name, key)] = record["cell_events"]
        # every check asks for 1000 events per cell, which 0.9999 would hold at n = 1e7
        assert len(grids) == 9 and {len(events) for events in grids.values()} == {4}
        assert {events[-1] for events in grids.values()} == {1000}

    def test_lemma_products_respect_bound(self):
        for n_units in (2, 3, 4):
            joint = weight_unit_product_samples(N, n_units, RngStream(8 + n_units))
            floor = 1.0 / 2 ** (n_units - 1) - 0.05
            for side in ("right", "left"):
                pd = estimate_pd_constant(joint, side=side)
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
        assert report.passed
        assert 0.8 < report.estimated.beta_hat < 1.2

    def test_point_mass_is_identity(self):
        report = check_sum_rule(
            [DistributionSpec.gaussian(), DistributionSpec.point_mass(0.0)],
            N_WIDE,
            WINDOW,
            RngStream(22),
        )
        assert report.predicted_beta == 2.0
        assert report.passed

    def test_min_rule_over_three(self):
        specs = [
            DistributionSpec.generalized_gaussian(2.0),
            DistributionSpec.generalized_gaussian(1.5),
            DistributionSpec.generalized_gaussian(3.0),
        ]
        report = check_sum_rule(specs, N, WINDOW, RngStream(23))
        assert report.predicted_beta == 1.5
        assert report.passed

    def test_verdict_invariant_under_permutation(self):
        specs = [DistributionSpec.gaussian(), DistributionSpec.laplace()]
        a = check_sum_rule(specs, N, WINDOW, RngStream(24))
        b = check_sum_rule(specs[::-1], N, WINDOW, RngStream(24))
        assert a.predicted_beta == b.predicted_beta
        assert a.passed == b.passed

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
        assert report.passed

    def test_gaussian_laplace_harmonic(self):
        report = check_product_rule(
            DistributionSpec.gaussian(), DistributionSpec.laplace(), N, WINDOW, RngStream(32)
        )
        assert report.predicted_beta == pytest.approx(2.0 / 3.0)
        assert report.passed

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
        assert report.passed

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
        assert report.passed

    def test_pure_rescaling_keeps_beta(self):
        report = check_power_rule(DistributionSpec.gaussian(), 3.0, 1.0, N_WIDE, WINDOW, RngStream(42))
        assert report.predicted_beta == pytest.approx(2.0)
        assert report.passed

    def test_sqrt_laplace_doubles_beta(self):
        report = check_power_rule(DistributionSpec.laplace(), 1.0, 0.5, N, WINDOW, RngStream(43))
        assert report.predicted_beta == pytest.approx(2.0)
        assert report.passed

    def test_invalid_exponent(self):
        with pytest.raises(ParameterError):
            check_power_rule(DistributionSpec.gaussian(), 1.0, 0.0, N, WINDOW, RngStream(44))


# each rule's refusal of a family outside its precondition, with the start of its message
NOT_SYMMETRIC = (DistributionSpec.weibull(1.5), DistributionSpec.oscillating_gwt(2.0), DistributionSpec.student_t(3.0))
REFUSED = [
    ("sum", DistributionSpec.student_t(3.0)),
    *[(rule, spec) for rule in ("product", "power") for spec in NOT_SYMMETRIC],
    ("power", DistributionSpec.point_mass(1.0)),
]
REFUSAL_MESSAGES = {
    "sum": "sum rule applies to Weibull-like",
    "product": "product rule requires a symmetric real-line",
    "power": "power rule requires a symmetric real-line",
}


@pytest.mark.parametrize("rule, spec", REFUSED, ids=[f"{rule}_{spec.family}" for rule, spec in REFUSED])
def test_rule_refuses_a_family_outside_its_precondition(rule, spec):
    gauss = DistributionSpec.gaussian()
    checks = {
        "sum": lambda: check_sum_rule([gauss, spec], N, WINDOW, RngStream(1)),
        "product": lambda: check_product_rule(gauss, spec, N, WINDOW, RngStream(1)),
        "power": lambda: check_power_rule(spec, 1.0, 2.0, N, WINDOW, RngStream(1)),
    }
    with pytest.raises(ParameterError, match=REFUSAL_MESSAGES[rule]):
        checks[rule]()


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

    @pytest.mark.parametrize("seed", [55, 56])
    @pytest.mark.parametrize("m", [1.0, 10.0])
    def test_report_matches_full_sort(self, m, seed):
        """The bound facts and the fit read as they do off a full sort of the sums."""
        spec = DistributionSpec.gaussian()
        x = sample_iid(spec, N, RngStream(seed).child(0))
        sums = x + np.where(np.abs(x) > m, -x, x)
        full = EmpiricalTail.from_samples(sums)
        try:
            outcome, estimate, points = "estimate", estimate_tail_index(full, WINDOW), loglog_points(full, WINDOW)
        except DegenerateTailError:
            outcome, estimate, points = "degenerate", None, None
        except InsufficientDataError:
            outcome, estimate, points = "insufficient_data", None, None
        report = negative_control_truncation(spec, m, N, RngStream(seed), WINDOW)
        assert report.max_abs_sum == float(np.abs(full.sorted_samples[[0, -1]]).max())
        assert report.survival_beyond_bound == empirical_survival(full, 2.0 * m * (1.0 + 1e-12))
        assert report.within_bound == (report.max_abs_sum <= 2.0 * m)
        assert (report.tail_outcome, report.tail_estimate) == (outcome, estimate)
        assert (report.points is None) == (points is None)
        if points is not None:
            assert report.points.tobytes() == points.tobytes()

    @pytest.mark.parametrize("m", [1.0, 10.0])
    def test_holds_few_sample_arrays(self, m):
        """X and Y share one (n, 2) matrix, and it is gone before the fold partitions the sums in place."""
        # a first call at the smallest PD size loads the modules numpy imports lazily
        negative_control_truncation(DistributionSpec.gaussian(), m, 10**5, RngStream(54))
        _, peak = traced_peak_bytes(lambda: negative_control_truncation(DistributionSpec.gaussian(), m, N, RngStream(54)))
        assert peak < 3.5 * 8 * N


def weight_net_products(n, n_units, x, gen):
    """Reference sampler: the two-layer net on input ``x`` with every N(0, 1) weight drawn."""
    w1 = gen.standard_normal((n, PRODUCT_NET_INPUT_DIM, PRODUCT_NET_HIDDEN_WIDTH))
    h1 = np.maximum(np.einsum("d,mdk->mk", x, w1), 0.0)
    w2 = gen.standard_normal((n, PRODUCT_NET_HIDDEN_WIDTH, n_units))
    h2 = np.maximum(np.einsum("mk,mku->mu", h1, w2), 0.0)
    return gen.standard_normal((n, n_units)) * h2


GAUSS_SPEC = DistributionSpec.gaussian()


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: make_input(2.5, 1),
        lambda rng: weight_unit_product_samples(2.5, 2, rng),
        lambda rng: weight_unit_product_samples(-1, 2, rng),
        lambda rng: weight_unit_product_samples(10, 2.0, rng),
        lambda rng: check_sum_rule([GAUSS_SPEC, GAUSS_SPEC], -1, WINDOW, rng),
        lambda rng: check_sum_rule([GAUSS_SPEC, GAUSS_SPEC], 2.5, WINDOW, rng),
        lambda rng: predicted_tail_parameter([LayerPrior("gaussian", 2.0)], True),
    ],
    ids=["input_dim-float", "products-n-float", "products-n-negative", "products-units-float",
         "sum-n-negative", "sum-n-float", "layer-bool"],
)
def test_public_functions_refuse_ill_typed_counts(call):
    with pytest.raises(ParameterError):
        call(RngStream(1))


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
        for side in ("right", "left"):
            p_got = estimate_pd_constant(got, side=side).per_z_conditional
            p_ref = estimate_pd_constant(ref, side=side).per_z_conditional
            assert p_got.size == p_ref.size == len(DEFAULT_Z)
            cells = N * (1 - np.asarray(DEFAULT_Z))
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


def pd_reference(joint_samples, side="right", min_cell_count=1000):
    """The quantile-and-mask PD estimate that ``estimate_pd_constant`` replaced: its bitwise reference.

    Returns ``(c_hat, z_grid, per_z_conditional, cell_events)``.
    """
    x = np.asarray(joint_samples, dtype=np.float64)
    n = x.shape[0]
    if n < 10**5:
        raise InsufficientDataError(f"PD estimation needs n >= {10**5}, got {n}")
    qs = np.array([1.0 - 1.0 / d for d in (2, 10, 100, 1000, 10000) if n >= min_cell_count * d])
    if qs.size == 0:
        raise InsufficientDataError(f"no usable z quantile at n={n} with min_cell_count={min_cell_count}")
    cond, others = x[:, -1], x[:, :-1]
    if side == "right":
        z_grid = np.quantile(cond, qs)
        all_ok = (others >= 0).all(axis=1)
    else:
        z_grid = np.quantile(cond, 1.0 - qs)
        all_ok = (others <= 0).all(axis=1)
    per_z, counts = np.empty(z_grid.size), []
    for k, z in enumerate(z_grid):
        cell = cond >= z if side == "right" else cond <= z
        count = int(cell.sum())
        if count < min_cell_count:
            raise InsufficientDataError(f"conditioning cell at z={z:g} has {count} events, need {min_cell_count}")
        per_z[k] = all_ok[cell].mean()
        counts.append(count)
    return float(per_z.min()), z_grid, per_z, counts


def tied_joint(n, n_coords, seed):
    """Normals rounded to one decimal, a third of them signed zeros, and a few NaNs off the last column."""
    gen = RngStream(seed).generator()
    x = np.round(gen.standard_normal((n, n_coords)), 1)
    zero = gen.random((n, n_coords)) < 0.35
    x[zero] = np.copysign(0.0, gen.standard_normal(int(zero.sum())))
    x[gen.integers(0, n, 50), gen.integers(0, n_coords - 1, 50)] = np.nan
    return x


class TestPdMatchesReference:
    @pytest.mark.parametrize("n", [123_457, 10**6 + 3])
    @pytest.mark.parametrize("n_coords", [2, 3, 4, 5])
    def test_same_bits_as_the_quantile_reference(self, n_coords, n):
        samples = {
            "tied": tied_joint(n, n_coords, 80 + n_coords),
            "lemma": weight_unit_product_samples(n, n_coords, RngStream(90 + n_coords)),
        }
        for (kind, joint), side in itertools.product(samples.items(), ("right", "left")):
            got = estimate_pd_constant(joint, side=side)
            c_hat, z_grid, per_z, counts = pd_reference(joint, side)
            where = (kind, side)
            assert np.float64(got.c_hat).tobytes() == np.float64(c_hat).tobytes(), where
            assert got.per_z_conditional.tobytes() == per_z.tobytes(), where
            assert np.array_equal(got.z_grid, z_grid), where
            assert not np.signbit(got.z_grid[got.z_grid == 0]).any(), where
            assert got.cell_events.tolist() == counts, where
            if kind == "lemma":
                # more than half the products are a signed zero, so the median is one
                assert got.z_grid[0] == 0, where

    # below the sample floor the message does not depend on the reference's cell count
    @pytest.mark.parametrize("n, min_cell_count", [(99_999, 100)])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_same_insufficient_data_messages(self, n, min_cell_count, side):
        joint = tied_joint(n, 3, 7)
        with pytest.raises(InsufficientDataError) as want:
            pd_reference(joint, side, min_cell_count)
        with pytest.raises(InsufficientDataError) as got:
            estimate_pd_constant(joint, side=side)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_conditioning_value_rejected(self, bad):
        joint = RngStream(9).generator().standard_normal((N, 3))
        joint[17, -1] = bad
        with pytest.raises(DomainError):
            estimate_pd_constant(joint)


def products_one_shot(n, n_units, rng):
    """``weight_unit_product_samples`` with each layer drawn in one call from its own stream: its bitwise reference."""
    x_norm = np.linalg.norm(rng.child(1).generator().standard_normal(PRODUCT_NET_INPUT_DIM))
    h1 = np.maximum(x_norm * rng.generator().standard_normal((n, PRODUCT_NET_HIDDEN_WIDTH)), 0.0)
    h1_norm = np.sqrt((h1 * h1).sum(axis=1, keepdims=True))
    h2 = np.maximum(h1_norm * rng.child(2).generator().standard_normal((n, n_units)), 0.0)
    return rng.child(3).generator().standard_normal((n, n_units)) * h2


def traced_peak_bytes(fn):
    """``fn()`` and the peak bytes ``tracemalloc`` saw above the memory in use when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestProductRowBlocks:
    @pytest.mark.parametrize("block", [None, 1000, 7])
    @pytest.mark.parametrize("n_units", [2, 3, 4])
    def test_blocks_keep_the_one_shot_bits(self, monkeypatch, n_units, block):
        if block is not None:
            monkeypatch.setattr(closure_lab, "_PRODUCT_ROW_BLOCK", block)
        n = 3 * closure_lab._PRODUCT_ROW_BLOCK + 17
        got = weight_unit_product_samples(n, n_units, RngStream(73, n_units))
        want = products_one_shot(n, n_units, RngStream(73, n_units))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_units", [2, 4])
    def test_working_memory_near_the_output(self, n_units):
        out, peak = traced_peak_bytes(lambda: weight_unit_product_samples(2 * 10**5, n_units, RngStream(74)))
        assert peak < 2.5 * out.nbytes

    def test_closure_checks_hold_few_sample_arrays(self):
        """No check of the full suite holds 5 float64 arrays of its sample size at once."""
        n = 2 * 10**5
        checks = closure_suite("all", 7, n, WINDOW)
        peaks = {}
        tracemalloc.start()
        try:
            while True:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = next(checks, None)
                if result is None:
                    break
                peaks[result.name] = (tracemalloc.get_traced_memory()[1] - base) / (8 * n)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 18
        assert max(peaks.values()) < 5, peaks


def assert_same_pd(got: dict, want: dict, where=None):
    """Two PD records, field for field and bit for bit."""
    assert got.keys() == want.keys(), where
    for key, value in want.items():
        assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), (where, key)


class TestPdPair:
    """The PD checks estimate on two columns what ``estimate_pd_constant`` gives on the whole joint."""

    @pytest.mark.parametrize("n_coords", [2, 3, 4])
    def test_pair_gives_the_joint_estimate_on_both_sides(self, n_coords):
        n = 123_457
        samples = {
            "tied": tied_joint(n, n_coords, 60 + n_coords),
            "lemma": weight_unit_product_samples(n, n_coords, RngStream(65 + n_coords)),
        }
        for kind, joint in samples.items():
            blocks = (joint[lo:hi] for lo, hi in closure_lab._row_blocks(n))
            pair, row_max = closure_lab._pd_pair(blocks, n, with_max=True)
            right = estimate_pd_constant(pair, side="right")
            assert_same_pd(asdict(right), asdict(estimate_pd_constant(joint, side="right")), (kind, "right"))
            pair[:, 0] = row_max
            left = estimate_pd_constant(pair, side="left")
            assert_same_pd(asdict(left), asdict(estimate_pd_constant(joint, side="left")), (kind, "left"))

    @pytest.mark.parametrize("n_units", [2, 3, 4])
    def test_lemma_records_are_the_joint_estimates(self, n_units):
        n = 10**5 + 17
        result = closure_lab._pd_lemma_result(n_units, n, RngStream(76))
        joint = weight_unit_product_samples(n, n_units, RngStream(76))
        for key, side in (("pd", "right"), ("pd_left", "left")):
            assert_same_pd(result.fields[key], asdict(estimate_pd_constant(joint, side=side)), key)

    @pytest.mark.parametrize("n_coords", [2, 3])
    def test_independent_check_estimates_one_joint_draw(self, n_coords):
        """Row blocks of one generator draw what one (n, N) call draws."""
        n = 10**5 + 17
        result = closure_lab._pd_independent_result("x", n_coords, 0.5, n, RngStream(77))
        joint = RngStream(77).generator().standard_normal((n, n_coords))
        assert_same_pd(result.fields["pd"], asdict(estimate_pd_constant(joint)))

    def test_counter_monotone_control_estimates_x_and_minus_x(self):
        n = 10**5 + 17
        result = closure_lab._pd_counter_monotone_result(n, RngStream(78))
        x = RngStream(78).generator().standard_normal(n)
        assert_same_pd(result.fields["pd"], asdict(estimate_pd_constant(np.column_stack([x, -x]))))
