"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one PASS/FAIL line per criterion (plus per-item detail)
and then asserts. The random seed is fixed once for the whole suite; all
numbers below are exactly reproducible.

Known honest failures at this sample size (n = 1e6), kept red on purpose
rather than loosened: the depth-4 layer of the width-4 ReLU network and
the generalized-Gaussian shape-3 family both sit ~1-2% outside their
+-15% bands. Both are the same phenomenon: the slowly-varying factor of
their survival functions still drifts across the deepest reachable fit
window, and no estimator with sub-band sampling noise can remove that
drift (removing it requires a second-order term whose fitted variance
exceeds the band itself; see the bias study in the repo notes).
"""

import json
import time

import numpy as np
import pytest

from gwt_lab import (
    DegenerateTailError,
    DistributionSpec,
    EmpiricalTail,
    FitWindow,
    LayerPrior,
    NetworkConfig,
    RngStream,
    check_gwt_envelope,
    check_power_rule,
    check_product_rule,
    check_subweibull_envelope,
    check_sum_rule,
    estimate_pd_constant,
    estimate_tail_index,
    negative_control_truncation,
    run_prior_monte_carlo,
    sample_iid,
    weight_unit_product_samples,
)
from gwt_lab.cli import main

SEED = 20260811
N_FULL = 10**6
WINDOW = FitWindow()
WORKERS = 2


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def estimate(samples, side="right", window=WINDOW):
    return estimate_tail_index(EmpiricalTail.from_samples(samples, side=side), window)


@pytest.fixture(scope="module")
def fig1_trace():
    config = NetworkConfig(
        input_dim=10**4,
        widths=(4, 4, 4, 4),
        layer_priors=tuple(LayerPrior("gaussian", 2.0) for _ in range(4)),
        activation="relu",
        n_samples=N_FULL,
        seed=SEED,
    )
    t0 = time.time()
    trace = run_prior_monte_carlo(config, workers=WORKERS)
    print(f"[fig1 simulation: n={N_FULL}, {time.time() - t0:.0f}s, "
          f"overflows={trace.overflow_replicates.size}]")
    return trace


def test_criterion_01_network_replication(fig1_trace):
    """Depth-4 width-4 ReLU net: per-layer estimates vs 2/depth."""
    failures = []
    for l in range(4):
        predicted = 2.0 / (l + 1)
        est = estimate(fig1_trace.g[l], side="right")
        tol = max(0.15 * predicted, 2.0 * est.stderr_slope)
        ok = report(
            "1",
            abs(est.beta_hat - predicted) <= tol,
            f"layer {l + 1}: predicted {predicted:.4f}, estimated {est.beta_hat:.4f} "
            f"(stderr {est.stderr_slope:.4f}, tolerance {tol:.4f})",
        )
        if not ok:
            failures.append(f"layer {l + 1}: {est.beta_hat:.4f} vs {predicted:.4f} +- {tol:.4f}")
    assert not failures, "; ".join(failures)


def test_criterion_02_estimator_oracle():
    """Inverse-transform exact-Weibull draws recovered within 5 percent."""
    failures = []
    for k, beta in enumerate((0.5, 1.0, 2.0, 4.0)):
        u = RngStream(SEED, 1000 + k).generator().random(N_FULL)
        x = (-np.log1p(-u)) ** (1.0 / beta)
        est = estimate(x)
        ok = report(
            "2",
            abs(est.beta_hat - beta) <= 0.05 * beta,
            f"exact beta={beta}: estimated {est.beta_hat:.4f}",
        )
        if not ok:
            failures.append(f"beta={beta}: {est.beta_hat:.4f}")
    assert not failures, "; ".join(failures)


def test_criterion_03_direct_families():
    """Gaussian, Laplace and generalized-Gaussian(3) at their bands."""
    cases = [
        ("gaussian", DistributionSpec.gaussian(), 2000, 1.7, 2.3),
        ("laplace", DistributionSpec.laplace(), 2001, 0.85, 1.15),
        ("generalized_gaussian(3)", DistributionSpec.generalized_gaussian(3.0), 2002, 2.55, 3.45),
    ]
    failures = []
    for name, spec, stream, lo, hi in cases:
        x = sample_iid(spec, N_FULL, RngStream(SEED, stream))
        est = estimate(x, side="absolute")
        ok = report(
            "3",
            lo <= est.beta_hat <= hi,
            f"{name}: estimated {est.beta_hat:.4f}, band [{lo}, {hi}]",
        )
        if not ok:
            failures.append(f"{name}: {est.beta_hat:.4f} outside [{lo}, {hi}]")
    assert not failures, "; ".join(failures)


def test_criterion_04_sum_rule():
    """Gaussian + Laplace sums to the smaller tail parameter."""
    a = check_sum_rule(
        [DistributionSpec.gaussian(), DistributionSpec.laplace()], N_FULL, WINDOW,
        RngStream(SEED, 3000),
    )
    b = check_sum_rule(
        [DistributionSpec.laplace(), DistributionSpec.gaussian()], N_FULL, WINDOW,
        RngStream(SEED, 3000),
    )
    ok_band = report(
        "4", 0.85 <= a.estimated.beta_hat <= 1.15,
        f"gauss+laplace estimated {a.estimated.beta_hat:.4f}, band [0.85, 1.15]",
    )
    joint = np.hypot(a.estimated.stderr_slope, b.estimated.stderr_slope)
    diff = abs(a.estimated.beta_hat - b.estimated.beta_hat)
    ok_perm = report(
        "4", diff < 2 * joint,
        f"permuted addends differ by {diff:.4f} < 2 x joint stderr {2 * joint:.4f}",
    )
    assert ok_band and ok_perm


def test_criterion_05_product_rule():
    """Products compose harmonically."""
    gg = check_product_rule(
        DistributionSpec.gaussian(), DistributionSpec.gaussian(), N_FULL, WINDOW,
        RngStream(SEED, 4000),
    )
    ok_gg = report(
        "5", 0.85 <= gg.estimated.beta_hat <= 1.15,
        f"gauss x gauss estimated {gg.estimated.beta_hat:.4f}, band [0.85, 1.15]",
    )
    gl = check_product_rule(
        DistributionSpec.gaussian(), DistributionSpec.laplace(), N_FULL, WINDOW,
        RngStream(SEED, 4001),
    )
    want = 2.0 / 3.0
    ok_gl = report(
        "5", abs(gl.estimated.beta_hat - want) <= 0.15 * want,
        f"gauss x laplace estimated {gl.estimated.beta_hat:.4f}, "
        f"within 15% of {want:.4f}",
    )
    assert ok_gg and ok_gl


def test_criterion_06_power_rule():
    """Squaring halves the tail parameter; rescaling changes nothing."""
    sq = check_power_rule(DistributionSpec.gaussian(), 1.0, 2.0, N_FULL, WINDOW, RngStream(SEED, 5000))
    ok_sq = report(
        "6", 0.85 <= sq.estimated.beta_hat <= 1.15,
        f"squared gaussian estimated {sq.estimated.beta_hat:.4f}, band [0.85, 1.15]",
    )
    scaled = check_power_rule(DistributionSpec.gaussian(), 3.0, 2.0, N_FULL, WINDOW, RngStream(SEED, 5000))
    joint = np.hypot(sq.estimated.stderr_slope, scaled.estimated.stderr_slope)
    diff = abs(sq.estimated.beta_hat - scaled.estimated.beta_hat)
    ok_scale = report(
        "6", diff < 2 * joint,
        f"x3 rescaling changes estimate by {diff:.2e} < {2 * joint:.4f}",
    )
    assert ok_sq and ok_scale


def test_criterion_07_positive_dependence():
    """PD constants: independent triple, network products, counter-monotone."""
    failures = []
    joint3 = RngStream(SEED, 6000).generator().standard_normal((N_FULL, 3))
    pd3 = estimate_pd_constant(joint3)
    if not report("7", abs(pd3.c_hat - 0.25) <= 0.05,
                  f"independent triple c_hat {pd3.c_hat:.4f} vs 1/4 +- 0.05"):
        failures.append("independent triple")
    for n_units in (2, 3, 4):
        joint = weight_unit_product_samples(N_FULL, n_units, RngStream(SEED, 6100 + n_units))
        floor = 1.0 / 2 ** (n_units - 1) - 0.05
        right = estimate_pd_constant(joint, side="right")
        left = estimate_pd_constant(joint, side="left")
        ok = report(
            "7", right.c_hat >= floor and left.c_hat >= floor,
            f"weight-unit products N={n_units}: right {right.c_hat:.4f}, "
            f"left {left.c_hat:.4f}, floor {floor:.4f}",
        )
        if not ok:
            failures.append(f"products N={n_units}")
    x = RngStream(SEED, 6200).generator().standard_normal(N_FULL)
    cm = estimate_pd_constant(np.column_stack([x, -x]))
    if not report("7", cm.c_hat <= 0.05, f"counter-monotone c_hat {cm.c_hat:.4f} <= 0.05"):
        failures.append("counter-monotone")
    assert not failures, "; ".join(failures)


def test_criterion_08_negative_controls():
    """Truncation cap, tanh saturation, power-tail envelope failures."""
    failures = []
    trunc = negative_control_truncation(
        DistributionSpec.gaussian(), 1.0, N_FULL, RngStream(SEED, 7000)
    )
    ok_tr = report(
        "8",
        trunc.within_bound and trunc.survival_beyond_bound == 0.0 and trunc.pd.c_hat <= 0.05,
        f"truncation m=1: max |sum| {trunc.max_abs_sum:.4f} <= 2, "
        f"pd c_hat {trunc.pd.c_hat:.4f}",
    )
    if not ok_tr:
        failures.append("truncation")

    # unit-scale weights saturate tanh units hard, the literal convention
    tanh_cfg = NetworkConfig(
        input_dim=100,
        widths=(4, 4),
        layer_priors=tuple(LayerPrior("gaussian", 2.0, scale_policy="unit") for _ in range(2)),
        activation="tanh",
        n_samples=2 * 10**5,
        seed=SEED,
    )
    trace = run_prior_monte_carlo(tanh_cfg, workers=WORKERS)
    tail = EmpiricalTail.from_samples(trace.h[1], side="right")
    try:
        est = estimate_tail_index(tail)
        tanh_ok = not (0.1 <= est.beta_hat <= 10.0 and est.stderr_slope < 0.5)
        detail = f"tanh layer-2 estimate {est.beta_hat:.3f} (stderr {est.stderr_slope:.3f})"
    except DegenerateTailError:
        tanh_ok, detail = True, "tanh layer-2 post-activations: degenerate-tail error"
    if not report("8", tanh_ok, detail):
        failures.append("tanh")

    t3 = sample_iid(DistributionSpec.student_t(3.0), N_FULL, RngStream(SEED, 7100))
    t_tail = EmpiricalTail.from_samples(t3, side="right")
    for beta in (0.5, 1.0, 2.0):
        sub = check_subweibull_envelope(t_tail, 1.0 / beta)
        gwt = check_gwt_envelope(t_tail, beta, 2.0, 1.0)
        ok = report(
            "8", not sub.holds and not gwt.holds,
            f"student-t envelopes at beta={beta}: "
            f"upper holds={sub.holds}, band holds={gwt.holds} (both must fail)",
        )
        if not ok:
            failures.append(f"student-t beta={beta}")
    assert not failures, "; ".join(failures)


def test_criterion_09_oscillating_band():
    """Oscillating tail passes its own band and fails shifted ones."""
    x = sample_iid(DistributionSpec.oscillating_gwt(2.0), N_FULL, RngStream(SEED, 8000))
    tail = EmpiricalTail.from_samples(x)
    own = check_gwt_envelope(tail, 2.0, 2.0, 1.0).holds
    low = check_gwt_envelope(tail, 1.5, 2.0, 1.0).holds
    high = check_gwt_envelope(tail, 2.5, 2.0, 1.0).holds
    ok = report(
        "9", own and not low and not high,
        f"band at beta=2 holds={own}; beta=1.5 holds={low}, beta=2.5 holds={high}",
    )
    assert ok


def test_criterion_10_reproducibility(tmp_path, monkeypatch):
    """Identical config and seed: byte-identical bundles at 1, 4, 16 workers."""
    cfg = {
        "command": "bnn",
        "seed": SEED,
        "n_samples": 20000,
        "network": {
            "input_dim": 300,
            "widths": [4, 4],
            "activation": "relu",
            "priors": [{"family": "gaussian", "beta_w": 2.0}] * 2,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    bundles = []
    for workers in (1, 4, 16):
        monkeypatch.setenv("GWT_LAB_THREADS", str(workers))
        out = tmp_path / f"out{workers}"
        assert main(["bnn", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "summary.json", "rb") as fh:
            summary = fh.read()
        with open(out / "curves.csv", "rb") as fh:
            curves = fh.read()
        bundles.append((summary, curves))
    ok = bundles[0] == bundles[1] == bundles[2]
    report("10", ok, "worker counts 1, 4, 16 produce byte-identical summary.json and curves.csv")
    assert ok
