"""Tests for the Monte Carlo prior-propagation engine."""

import os
import sys
import tracemalloc
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
    OverflowAbortError,
    ParameterError,
    RngStream,
    estimate_tail_index,
    make_input,
    predicted_tail_parameter,
    run_prior_monte_carlo,
)
from gwt_lab import bnn_sampler
from gwt_lab.bnn_sampler import _activate, _weight_scale
from gwt_lab.tail_distributions import draw_unit, to_scale

GAUSS = LayerPrior("gaussian", 2.0)
LAPLACE = LayerPrior("laplace", 1.0)
GG07 = LayerPrior("generalized_gaussian", 0.7)
GAUSS_UNIT = LayerPrior("gaussian", 2.0, scale_policy="unit")
HEAVY_UNIT = LayerPrior("generalized_gaussian", 0.05, scale_policy="unit")


class NumericalOverflowError(Exception):
    """A forward pass produced a non-finite value; the message names the 1-based layer."""


def forward_sample(config: NetworkConfig, input_vec: np.ndarray, rng: RngStream):
    """One prior draw of all layers' (g, h) values of unit 0.

    All hidden units of each layer are computed; unit 0's values are
    returned as two arrays of length ``depth``. Raises
    NumericalOverflowError on a non-finite pre-activation.
    """
    h = np.asarray(input_vec, dtype=np.float64)
    if h.size != config.input_dim:
        raise ParameterError(f"input has length {h.size}, config expects {config.input_dim}")
    gen = rng.generator()
    g_out = np.empty(config.depth)
    h_out = np.empty(config.depth)
    # an overflow is raised below, so numpy's warning for it only adds noise
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (prior, width) in enumerate(zip(config.layer_priors, config.widths)):
            scale = _weight_scale(prior.scale_policy, h.size)
            w = np.empty((h.size, width))
            flat = w.reshape(-1)
            draw_unit(gen, prior.family, prior.tail_beta_w, flat)
            to_scale(prior.family, scale, flat, np.empty(flat.size))
            g = h @ w
            if not np.isfinite(g).all():
                raise NumericalOverflowError(f"non-finite pre-activation at layer {idx + 1}")
            h = _activate(config.activation, g)
            g_out[idx] = g[0]
            h_out[idx] = h[0]
    return g_out, h_out


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


def assert_trace_is_reference(trace, cfg):
    """Each replicate's (g, h) bits equal forward_sample's on its stream, NaN where it raises."""
    x = make_input(cfg.input_dim, cfg.seed)
    want = np.full((2, cfg.depth, cfg.n_samples), np.nan)
    for i in range(cfg.n_samples):
        try:
            want[:, :, i] = forward_sample(cfg, x, RngStream(cfg.seed, i))
        except NumericalOverflowError:
            pass
    assert np.array([trace.g, trace.h]).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize(
        "beta", ["2", True, float("inf"), float("nan"), 10**400], ids=["str", "bool", "inf", "nan", "huge-int"]
    )
    def test_tail_parameter_must_be_a_finite_real(self, beta):
        """An infinite shape would draw exactly +-scale, a Rademacher law, not a tail."""
        with pytest.raises(ParameterError):
            LayerPrior("generalized_gaussian", beta)

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
        for n_samples in (0, 2.5, True, "10"):
            with pytest.raises(ParameterError):
                small_config(n_samples=n_samples)


def test_a_layer_prior_that_is_no_layer_prior_is_refused_by_name():
    """A family name in place of a LayerPrior used to end in AttributeError, from a worker thread in a run."""
    with pytest.raises(ParameterError, match="'gaussian'"):
        small_config(widths=(2,), layer_priors=("gaussian",))
    with pytest.raises(ParameterError, match="'gaussian'"):
        predicted_tail_parameter(["gaussian"], 1)
    with pytest.raises(ParameterError, match="layer_priors"):
        small_config(widths=(2,), layer_priors=3)
    with pytest.raises(ParameterError, match="layer_priors"):
        predicted_tail_parameter(None, 1)


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
    def test_zero_input_gives_zero_units(self, monkeypatch):
        monkeypatch.setattr(bnn_sampler, "make_input", lambda dim, seed: np.zeros(dim))
        trace = run_prior_monte_carlo(small_config(n_samples=50))
        for a in trace.g + trace.h:
            np.testing.assert_array_equal(a, 0.0)

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

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_h_is_derived_afresh_from_the_one_stored_trace(self, activation):
        """g's rows view one (depth, n) array; each read of h gives new arrays, so writing h leaves g as it was."""
        cfg = small_config(activation=activation, widths=(4, 4, 4), layer_priors=(GAUSS,) * 3)
        trace = run_prior_monte_carlo(cfg)
        assert isinstance(trace.g, list) and isinstance(trace.h, list)
        assert all(g.base is trace.g[0].base for g in trace.g)
        assert trace.g[0].base.shape == (cfg.depth, cfg.n_samples)
        before = [g.copy() for g in trace.g]
        for layer in range(cfg.depth):
            trace.h[layer][:] = 7.0
            np.testing.assert_array_equal(trace.g[layer], before[layer])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("prior", [GAUSS, LAPLACE, GG07], ids=["gaussian", "laplace", "gg0.7"])
    @pytest.mark.parametrize("input_dim,widths", [(10, (4, 3, 5, 4)), (7, (3, 5))], ids=["4-3-5-4", "odd"])
    def test_every_replicate_matches_forward_sample(self, monkeypatch, input_dim, widths, prior, activation, workers):
        """Every replicate is bit-equal to the one-replicate reference, across blocks and a partial last block.

        The block is shrunk to 2 replicates on the 4-3-5-4 net and 5 on the odd
        one (7 x 3 and 3 x 5 weights), so each chunk of 51 (1 worker) or 26
        (2 workers) replicates holds several blocks, and the last chunk ends
        in a partial one.
        """
        monkeypatch.setattr(bnn_sampler, "_BLOCK_ELEMENTS", 128)
        cfg = small_config(
            input_dim=input_dim, widths=widths, layer_priors=(prior,) * len(widths),
            activation=activation, n_samples=203,
        )
        assert bnn_sampler._block_size(cfg) == {4: 2, 2: 5}[len(widths)]
        assert_trace_is_reference(run_prior_monte_carlo(cfg, workers), cfg)

    def test_default_block_matches_forward_sample(self):
        """At the module's own block size, a chunk of 275 replicates is one full block and a partial one."""
        cfg = small_config(input_dim=8, widths=(4,) * 4, layer_priors=(LAPLACE,) * 4, n_samples=1100)
        assert bnn_sampler._block_size(cfg) == 256
        assert_trace_is_reference(run_prior_monte_carlo(cfg, workers=1), cfg)

    @pytest.mark.parametrize("block_elements", [bnn_sampler._BLOCK_ELEMENTS, 16])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowed_replicates_match_forward_sample(self, monkeypatch, workers, block_elements):
        """A replicate that overflows anywhere is NaN in every slot, exactly where the reference raises."""
        monkeypatch.setattr(bnn_sampler, "OVERFLOW_ABORT_FRACTION", 1.0)
        monkeypatch.setattr(bnn_sampler, "_BLOCK_ELEMENTS", block_elements)
        cfg = heavy_identity_net(12, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run_prior_monte_carlo(cfg, workers)
            assert_trace_is_reference(trace, cfg)
        assert 0 < trace.overflow_replicates.size < cfg.n_samples

    def test_worker_count_does_not_change_results(self):
        cfg = small_config(n_samples=3000)
        solo = run_prior_monte_carlo(cfg, workers=1)
        duo = run_prior_monte_carlo(cfg, workers=2)
        five = run_prior_monte_carlo(cfg, workers=5)
        for l in range(cfg.depth):
            np.testing.assert_array_equal(solo.g[l], duo.g[l])
            np.testing.assert_array_equal(solo.g[l], five.g[l])

    def test_more_threads_than_cpus_fill_every_column(self, monkeypatch):
        """Eight threads switching every microsecond write their disjoint slices as one thread does."""
        cfg = small_config(n_samples=3000)
        solo = run_prior_monte_carlo(cfg, workers=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = run_prior_monte_carlo(cfg, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert not np.isnan(many.g[-1]).any()
        for a, b in zip(solo.g + solo.h, many.g + many.h):
            np.testing.assert_array_equal(a, b)

    def test_library_ignores_thread_env_var(self, monkeypatch):
        """Only the CLI reads GWT_LAB_THREADS; the sampler takes its worker count as an argument."""
        monkeypatch.setenv("GWT_LAB_THREADS", "abc")
        cfg = small_config(n_samples=500)
        default = run_prior_monte_carlo(cfg)
        duo = run_prior_monte_carlo(cfg, workers=2)
        for a, b in zip(default.g + default.h, duo.g + duo.h):
            np.testing.assert_array_equal(a, b)

    def test_trace_is_filled_in_place(self):
        """Chunks write into one trace array of unit 0's g: the peak holds it and block buffers, under 512 KiB."""
        cfg = small_config(input_dim=8, widths=(4,) * 4, layer_priors=(GAUSS,) * 4, n_samples=20_000)
        run_prior_monte_carlo(small_config(n_samples=10), workers=2)  # first-call imports stay out of the peak
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_prior_monte_carlo(cfg, workers=2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        trace_bytes = cfg.depth * cfg.n_samples * 8
        assert peak - trace_bytes < 2**19

    def test_block_is_sized_in_elements(self):
        """Wide layers shrink the block: at widths 64 the working memory stays under 1 MiB.

        One replicate's layers 2 and 3 hold 2 x 64 x 64 weights (64 KiB), so a
        block as long as a 300-replicate chunk would hold about 19.7 MB.
        """
        cfg = small_config(input_dim=8, widths=(64,) * 3, layer_priors=(GAUSS,) * 3, n_samples=2400)
        run_prior_monte_carlo(small_config(n_samples=10), workers=2)  # first-call imports stay out of the peak
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_prior_monte_carlo(cfg, workers=2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        trace_bytes = cfg.depth * cfg.n_samples * 8
        assert peak - trace_bytes < 2**20

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
        cfg = small_config(n_samples=500)
        capped = run_prior_monte_carlo(cfg, workers=10**6)
        solo = run_prior_monte_carlo(cfg, workers=1)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert len(requested) == 2
        assert all(1 <= m <= cpus for m in requested)
        assert requested[1] == 1
        for a, b in zip(capped.g + capped.h, solo.g + solo.h):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "net",
        [
            dict(),
            dict(input_dim=10, widths=(4, 3, 5, 4), layer_priors=(LAPLACE,) * 4, activation="tanh"),
            dict(input_dim=7, widths=(3, 5), layer_priors=(GG07, LAPLACE), activation="identity"),
        ],
        ids=["gaussian", "laplace", "gg0.7-laplace"],
    )
    def test_every_stream_drawn_in_process(self, monkeypatch, net):
        """At two workers each stream is drawn once, in this process, and each replicate draws its plan.

        A replicate draws one variate per Gaussian or Laplace weight and two per
        generalized-Gaussian weight (a magnitude and a sign), and the input
        stream draws ``input_dim``.
        """
        streams = []
        generator = RngStream.generator

        class CountingGenerator:
            def __init__(self, stream):
                self._gen = generator(stream)
                self.stream_id, self.variates = stream.stream_id, 0

            def __getattr__(self, name):
                draw = getattr(self._gen, name)

                def counted(*args, **kwargs):
                    out = draw(*args, **kwargs)
                    self.variates += int(np.size(out))
                    return out

                return counted

        def counting_generator(stream):
            counted = CountingGenerator(stream)
            streams.append(counted)
            return counted

        monkeypatch.setattr(RngStream, "generator", counting_generator)
        cfg = small_config(n_samples=400, **net)
        run_prior_monte_carlo(cfg, workers=2)
        fan_ins = (cfg.input_dim, *cfg.widths[:-1])
        per_replicate = sum(
            (2 if p.family == "generalized_gaussian" else 1) * f * w
            for p, f, w in zip(cfg.layer_priors, fan_ins, cfg.widths)
        )
        assert sorted(s.stream_id for s in streams) == list(range(cfg.n_samples)) + [bnn_sampler._INPUT_STREAM_ID]
        for s in streams:
            want = cfg.input_dim if s.stream_id == bnn_sampler._INPUT_STREAM_ID else per_replicate
            assert s.variates == want

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
