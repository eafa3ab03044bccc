"""Every public scalar that is not a usable value is refused with a ParameterError naming it.

Each case is a non-finite, mistyped or unhashable value. None may return a
verdict, write to stderr, or end in a TypeError, LinAlgError or DomainError.
"""

import math

import pytest

from gwt_lab import (
    DistributionSpec,
    EmpiricalTail,
    FitWindow,
    LayerPrior,
    NetworkConfig,
    ParameterError,
    RngStream,
    check_gwt_envelope,
    check_power_rule,
    check_subweibull_envelope,
    negative_control_truncation,
    run_prior_monte_carlo,
    sample_iid,
)
from gwt_lab.closure_lab import closure_suite

N = 10**5
W = FitWindow(0.9, 0.999)
GAUSS = DistributionSpec.gaussian()
NAN, INF = math.nan, math.inf


def _samples():
    return sample_iid(GAUSS, N, RngStream(3))


def _tail():
    return EmpiricalTail.from_samples(_samples(), q_keep=W.q_lo)


def _config(**overrides):
    fields = dict(
        input_dim=2, widths=(2,), layer_priors=(LayerPrior("gaussian", 2.0),), activation="relu", n_samples=4, seed=0
    )
    return NetworkConfig(**{**fields, **overrides})


# (id, the parameter the message must name, the refused call)
REFUSALS = [
    ("truncation_m_inf", "m", lambda: negative_control_truncation(GAUSS, INF, N, RngStream(1), W)),
    ("truncation_m_nan", "m", lambda: negative_control_truncation(GAUSS, NAN, N, RngStream(1), W)),
    ("truncation_m_str", "m", lambda: negative_control_truncation(GAUSS, "1", N, RngStream(1), W)),
    ("power_a_str", "a", lambda: check_power_rule(GAUSS, "1", 2.0, N, W, RngStream(1))),
    ("power_b_inf", "b", lambda: check_power_rule(GAUSS, 1.0, INF, N, W, RngStream(1))),
    ("power_a_nan", "a", lambda: check_power_rule(GAUSS, NAN, 2.0, N, W, RngStream(1))),
    ("gwt_envelope_beta_nan", "beta", lambda: check_gwt_envelope(_tail(), NAN, 2, 1)),
    ("gwt_envelope_l_lo_inf", "l_lo", lambda: check_gwt_envelope(_tail(), 2, INF, 1)),
    ("subweibull_theta_nan", "theta", lambda: check_subweibull_envelope(_tail(), NAN)),
    ("subweibull_theta_inf", "theta", lambda: check_subweibull_envelope(_tail(), INF)),
    ("fit_window_q_lo_str", "q_lo", lambda: FitWindow(q_lo="0.5")),
    ("from_samples_q_keep_str", "q_keep", lambda: EmpiricalTail.from_samples(_samples(), q_keep="0.5")),
    ("layer_prior_family_list", "prior family", lambda: LayerPrior(["gaussian"], 2.0)),
    ("spec_family_list", "family", lambda: DistributionSpec(["gaussian"], {})),
    ("from_samples_side_list", "side", lambda: EmpiricalTail.from_samples(_samples(), side=["right"])),
    ("network_activation_list", "activation", lambda: _config(activation=["relu"])),
    ("network_widths_int", "widths", lambda: _config(widths=5)),
    ("network_widths_none", "widths", lambda: _config(widths=None)),
    ("network_widths_float", "widths", lambda: _config(widths=2.5)),
    ("closure_suite_n_str", "n", lambda: next(closure_suite("sum", 1, "x", W))),
    ("monte_carlo_workers_str", "workers", lambda: run_prior_monte_carlo(_config(), "2")),
    ("monte_carlo_workers_float", "workers", lambda: run_prior_monte_carlo(_config(), 2.5)),
]


@pytest.mark.parametrize("name, call", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_unusable_scalar_is_refused_by_name(capfd, name, call):
    with pytest.raises(ParameterError) as refused:
        call()
    assert str(refused.value).startswith(f"{name} must be ")
    assert capfd.readouterr().err == ""  # nor a LAPACK message, as a NaN theta would give
