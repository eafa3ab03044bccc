"""Tests for the Monte Carlo prior-propagation engine."""

import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from gwt_lab import (
    DegenerateTailError,
    EmpiricalTail,
    LayerPrior,
    NetworkConfig,
    NumericalOverflowError,
    OverflowAbortError,
    ParameterError,
    RngStream,
    estimate_tail_index,
    forward_sample,
    make_input,
    predicted_tail_parameter,
    run_prior_monte_carlo,
)
from gwt_lab import bnn_sampler

GAUSS = LayerPrior("gaussian", 2.0)
GAUSS_UNIT = LayerPrior("gaussian", 2.0, scale_policy="unit")
HEAVY_UNIT = LayerPrior("generalized_gaussian", 0.05, scale_policy="unit")


def heavy_identity_net(depth, n_samples):
    """A net of width-1 identity layers whose replicates often overflow."""
    return NetworkConfig(
        input_dim=4,
        widths=(1,) * depth,
        layer_priors=(HEAVY_UNIT,) * depth,
        activation="identity",
        n_samples=n_samples,
        seed=1,
    )


def small_config(**overrides):
    base = dict(
        input_dim=100,
        widths=(4, 4),
        layer_priors=(GAUSS, GAUSS),
        activation="relu",
        n_samples=2000,
        seed=5,
    )
    base.update(overrides)
    return NetworkConfig(**base)


class TestLayerPrior:
    def test_gaussian_beta_must_be_two(self):
        with pytest.raises(ParameterError):
            LayerPrior("gaussian", 1.5)

    def test_laplace_beta_must_be_one(self):
        with pytest.raises(ParameterError):
            LayerPrior("laplace", 2.0)

    def test_generalized_gaussian_any_positive_shape(self):
        LayerPrior("generalized_gaussian", 0.7)
        with pytest.raises(ParameterError):
            LayerPrior("generalized_gaussian", 0.0)

    def test_asymmetric_families_rejected(self):
        with pytest.raises(ParameterError):
            LayerPrior("weibull", 1.0)


class TestNetworkConfig:
    def test_priors_must_match_depth(self):
        with pytest.raises(ParameterError):
            small_config(widths=(4, 4, 4))

    def test_bad_activation(self):
        with pytest.raises(ParameterError):
            small_config(activation="gelu")

    def test_zero_samples_rejected(self):
        with pytest.raises(ParameterError):
            small_config(n_samples=0)


class TestPredictedTailParameter:
    def test_all_gaussian_gives_two_over_depth(self):
        priors = [GAUSS] * 6
        for layer in range(1, 7):
            assert predicted_tail_parameter(priors, layer) == pytest.approx(2.0 / layer)

    def test_single_layer_identity(self):
        assert predicted_tail_parameter([LayerPrior("generalized_gaussian", 1.5)], 1) == 1.5

    def test_mixed_harmonic(self):
        priors = [GAUSS, LayerPrior("laplace", 1.0)]
        assert predicted_tail_parameter(priors, 2) == pytest.approx(1.0 / (0.5 + 1.0))

    def test_layer_out_of_range(self):
        with pytest.raises(ParameterError):
            predicted_tail_parameter([GAUSS], 2)

    @given(st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_matches_reciprocal_sum(self, betas):
        priors = [LayerPrior("generalized_gaussian", b) for b in betas]
        want = 1.0 / sum(1.0 / b for b in betas)
        assert predicted_tail_parameter(priors, len(betas)) == pytest.approx(want)


class TestMakeInput:
    def test_deterministic(self):
        np.testing.assert_array_equal(make_input(64, 3), make_input(64, 3))

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(make_input(64, 3), make_input(64, 4))

    def test_norm_concentrates(self):
        x = make_input(10**4, 17)
        assert abs((x**2).sum() - 10**4) < 0.05 * 10**4

    def test_zero_dim_rejected(self):
        with pytest.raises(ParameterError):
            make_input(0, 1)


class TestForwardSample:
    def test_zero_input_gives_zero_units(self):
        cfg = small_config()
        g, h = forward_sample(cfg, np.zeros(cfg.input_dim), RngStream(1))
        np.testing.assert_array_equal(g, 0.0)
        np.testing.assert_array_equal(h, 0.0)

    def test_input_length_checked(self):
        cfg = small_config()
        with pytest.raises(ParameterError):
            forward_sample(cfg, np.zeros(7), RngStream(1))

    def test_depth_one_variance_matches_input_norm(self):
        """Unit-scale Gaussian weights: g1 ~ N(0, ||x||^2)."""
        dim, n = 300, 5 * 10**4
        cfg = NetworkConfig(
            input_dim=dim,
            widths=(1,),
            layer_priors=(GAUSS_UNIT,),
            activation="relu",
            n_samples=n,
            seed=2,
        )
        x = make_input(dim, 2)
        trace = run_prior_monte_carlo(cfg)
        want = (x**2).sum()
        assert abs(np.var(trace.g[0]) - want) < 0.03 * want

    def test_identity_depth_two_is_gaussian_product(self):
        """Width-1 identity chain reproduces the two-Gaussian product tail."""
        dim, n = 20, 10**5
        cfg = NetworkConfig(
            input_dim=dim,
            widths=(1, 1),
            layer_priors=(GAUSS_UNIT, GAUSS_UNIT),
            activation="identity",
            n_samples=n,
            seed=3,
        )
        x = make_input(dim, 3)
        trace = run_prior_monte_carlo(cfg)
        z = trace.g[1] / np.linalg.norm(x)  # product of two standard gaussians
        # oracle: survival of |N*N| at z0, from quadrature of the K0 density
        # (density of the signed product is k0(|z|)/pi, so |Z| doubles it)
        for z0 in (1.0, 2.0):
            one_sided, _ = integrate.quad(lambda t: special.k0(t) / np.pi, z0, np.inf)
            expected = 2.0 * one_sided
            p_hat = (np.abs(z) >= z0).mean()
            sigma = np.sqrt(expected * (1 - expected) / n)
            assert abs(p_hat - expected) < 5 * sigma
        # harmonic rule: 1/(1/2 + 1/2) = 1
        est = estimate_tail_index(EmpiricalTail.from_samples(z, side="absolute"))
        assert 0.75 < est.beta_hat < 1.25

    def test_overflow_carries_layer_index(self):
        heavy = LayerPrior("generalized_gaussian", 0.05, scale_policy="unit")
        cfg = NetworkConfig(
            input_dim=4,
            widths=(1,) * 40,
            layer_priors=(heavy,) * 40,
            activation="identity",
            n_samples=1,
            seed=1,
        )
        with pytest.raises(NumericalOverflowError, match=r"at layer (\d+)$") as err:
            forward_sample(cfg, make_input(4, 1), RngStream(1, 0))
        assert 1 <= int(str(err.value).rsplit(" ", 1)[1]) <= 40

    def test_overflow_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflowError):
                forward_sample(heavy_identity_net(40, 1), make_input(4, 1), RngStream(1, 0))


class TestRunPriorMonteCarlo:
    def test_single_replicate(self):
        trace = run_prior_monte_carlo(small_config(n_samples=1))
        assert all(len(v) == 1 for v in trace.g)
        assert all(len(v) == 1 for v in trace.h)

    def test_relu_trace_invariant(self):
        trace = run_prior_monte_carlo(small_config())
        for g, h in zip(trace.g, trace.h):
            np.testing.assert_array_equal(h, np.maximum(g, 0.0))
            assert h.min() >= 0.0

    def test_replicate_slots_match_forward_sample(self):
        cfg = small_config(n_samples=50)
        x = make_input(cfg.input_dim, cfg.seed)
        trace = run_prior_monte_carlo(cfg)
        for i in (0, 17, 49):
            g, h = forward_sample(cfg, x, RngStream(cfg.seed, i))
            for l in range(cfg.depth):
                assert trace.g[l][i] == g[l]
                assert trace.h[l][i] == h[l]

    def test_worker_count_does_not_change_results(self):
        cfg = small_config(n_samples=3000)
        solo = run_prior_monte_carlo(cfg, workers=1)
        duo = run_prior_monte_carlo(cfg, workers=2)
        five = run_prior_monte_carlo(cfg, workers=5)
        for l in range(cfg.depth):
            np.testing.assert_array_equal(solo.g[l], duo.g[l])
            np.testing.assert_array_equal(solo.g[l], five.g[l])

    def test_thread_env_var_caps_workers(self, monkeypatch):
        monkeypatch.setenv("GWT_LAB_THREADS", "2")
        cfg = small_config(n_samples=500)
        capped = run_prior_monte_carlo(cfg, workers=64)
        default = run_prior_monte_carlo(cfg)
        for l in range(cfg.depth):
            np.testing.assert_array_equal(capped.g[l], default.g[l])

    def test_huge_thread_count_capped_by_cpus(self, monkeypatch):
        """A pool never asks for more threads than CPUs; the stub runs chunks inline, starting none."""
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                result = fn(*args)
                return SimpleNamespace(result=lambda: result)

        monkeypatch.setattr(bnn_sampler, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setenv("GWT_LAB_THREADS", "1000000")
        cfg = small_config(n_samples=500)
        capped = run_prior_monte_carlo(cfg)
        solo = run_prior_monte_carlo(cfg, workers=1)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert len(requested) == 2
        assert all(1 <= m <= cpus for m in requested)
        assert requested[1] == 1
        for a, b in zip(capped.g + capped.h, solo.g + solo.h):
            np.testing.assert_array_equal(a, b)

    def test_every_stream_drawn_in_process(self, monkeypatch):
        """At two workers each replicate stream and the input stream is drawn once, in this process."""
        drawn = []
        generator = RngStream.generator

        def recording_generator(stream):
            drawn.append(stream.stream_id)
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", recording_generator)
        cfg = small_config(n_samples=400)
        run_prior_monte_carlo(cfg, workers=2)
        assert sorted(drawn) == list(range(cfg.n_samples)) + [bnn_sampler._INPUT_STREAM_ID]

    def test_zero_input_flagged_degenerate(self, monkeypatch):
        cfg = small_config(n_samples=10)
        monkeypatch.setattr(bnn_sampler, "make_input", lambda dim, seed: np.zeros(dim))
        trace = run_prior_monte_carlo(cfg)
        assert trace.degenerate_input

    def test_sign_law_at_every_layer(self):
        """Symmetric weights make pre-activations sign-balanced.

        Deep layers carry an atom at zero (all ReLU parents dead), which
        lands on the >= side, so the balanced target is 1/2 plus half the
        zero mass.
        """
        cfg = small_config(n_samples=20000, widths=(4, 4, 4), layer_priors=(GAUSS,) * 3)
        trace = run_prior_monte_carlo(cfg)
        n = cfg.n_samples
        for g in trace.g:
            frac = (g >= 0).mean()
            target = 0.5 + 0.5 * (g == 0).mean()
            assert abs(frac - target) < 3 * np.sqrt(0.25 / n)

    def test_weight_scale_leaves_tail_index_unchanged(self):
        """unit vs inv_sqrt_fan_in rescales layers but not their beta-hat."""
        base = small_config(n_samples=30000, seed=9)
        scaled = small_config(
            n_samples=30000,
            seed=9,
            layer_priors=(GAUSS_UNIT, GAUSS_UNIT),
        )
        t1 = run_prior_monte_carlo(base)
        t2 = run_prior_monte_carlo(scaled)
        for l in range(base.depth):
            e1 = estimate_tail_index(EmpiricalTail.from_samples(t1.g[l]))
            e2 = estimate_tail_index(EmpiricalTail.from_samples(t2.g[l]))
            assert e1.beta_hat == pytest.approx(e2.beta_hat, abs=1e-5)

    def test_overflow_abort(self):
        heavy = LayerPrior("generalized_gaussian", 0.05, scale_policy="unit")
        cfg = NetworkConfig(
            input_dim=4,
            widths=(1,) * 40,
            layer_priors=(heavy,) * 40,
            activation="identity",
            n_samples=50,
            seed=1,
        )
        with pytest.raises(OverflowAbortError):
            run_prior_monte_carlo(cfg)

    def test_overflow_replicates_are_the_nan_slots(self, monkeypatch):
        """Overflowed replicates are read from their NaN slots, the same at any worker count."""
        monkeypatch.setattr(bnn_sampler, "OVERFLOW_ABORT_FRACTION", 1.0)
        cfg = heavy_identity_net(12, 200)
        solo = run_prior_monte_carlo(cfg, workers=1)
        duo = run_prior_monte_carlo(cfg, workers=2)
        assert solo.overflow_replicates.size == 129
        np.testing.assert_array_equal(solo.overflow_replicates, duo.overflow_replicates)
        for a in solo.g + solo.h + duo.g + duo.h:
            np.testing.assert_array_equal(np.flatnonzero(np.isnan(a)), solo.overflow_replicates)
        first = int(np.flatnonzero(~np.isnan(solo.g[0]))[0])
        g, h = forward_sample(cfg, make_input(cfg.input_dim, cfg.seed), RngStream(cfg.seed, first))
        for l in range(cfg.depth):
            assert solo.g[l][first] == g[l]
            assert solo.h[l][first] == h[l]

    def test_handled_overflow_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowAbortError):
                run_prior_monte_carlo(heavy_identity_net(40, 50), workers=1)

    def test_tanh_post_activations_are_degenerate(self):
        cfg = small_config(n_samples=10**5, widths=(4, 4), activation="tanh")
        trace = run_prior_monte_carlo(cfg)
        tail = EmpiricalTail.from_samples(trace.h[1], side="right")
        try:
            est = estimate_tail_index(tail)
        except DegenerateTailError:
            return
        assert not (0.1 <= est.beta_hat <= 10.0 and est.stderr_slope < 0.5)
