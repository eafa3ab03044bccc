"""End-to-end tests of the gwt-lab command-line interface."""

import io
import json
import os

import numpy as np
import pytest

from gwt_lab import refit_beta_from_points
from gwt_lab.cli import main


def write_config(tmp_path, name="cfg.json", **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def bnn_config(tmp_path, **overrides):
    cfg = {
        "command": "bnn",
        "seed": 11,
        "n_samples": 20000,
        "network": {
            "input_dim": 300,
            "widths": [3, 3],
            "activation": "relu",
            "priors": [
                {"family": "gaussian", "beta_w": 2.0},
                {"family": "gaussian", "beta_w": 2.0},
            ],
        },
    }
    cfg.update(overrides)
    return write_config(tmp_path, **cfg)


def curve_points(curves: bytes) -> dict:
    """curves.csv bytes -> {label: (k, 2) array of its log-log points}."""
    by_label = {}
    for row in curves.decode().strip().split("\n")[1:]:
        label, lx, ly = row.split(",")
        by_label.setdefault(label, []).append((float(lx), float(ly)))
    return {label: np.asarray(pts) for label, pts in by_label.items()}


def read_bundle(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "curves.csv"), "rb") as fh:
        curves = fh.read()
    return summary, curves


SMALL_NETWORK = {"input_dim": 10, "widths": [2], "priors": [{"family": "gaussian"}]}

# (command, config sections, expected message fragment); each must exit 2, not crash
MISTYPED_CONFIGS = {
    "widths_not_numbers": ("bnn", {"network": {**SMALL_NETWORK, "widths": ["a"]}}, "bad network"),
    "widths_fractional": ("bnn", {"network": {**SMALL_NETWORK, "widths": [2.7]}}, "bad network"),
    "widths_bool": ("bnn", {"network": {**SMALL_NETWORK, "widths": [True]}}, "bad network"),
    "input_dim_fractional": ("bnn", {"network": {**SMALL_NETWORK, "input_dim": 8.5}}, "bad network"),
    "activation_list": ("bnn", {"network": {**SMALL_NETWORK, "activation": ["relu"]}}, "bad network"),
    "prior_family_list": (
        "bnn", {"network": {**SMALL_NETWORK, "priors": [{"family": ["gaussian"]}]}}, "bad prior [0]"
    ),
    "prior_beta_w_text": (
        "bnn", {"network": {**SMALL_NETWORK, "priors": [{"family": "gaussian", "beta_w": "x"}]}}, "bad prior [0]"
    ),
    "prior_not_object": ("bnn", {"network": {**SMALL_NETWORK, "priors": ["x"]}}, "must be an object"),
    "network_not_object": ("bnn", {"network": ["x"]}, "must be an object"),
    "q_lo_text": ("bnn", {"network": SMALL_NETWORK, "fit_window": {"q_lo": "0.9"}}, "bad fit_window"),
    "grid_size_fractional": ("bnn", {"network": SMALL_NETWORK, "fit_window": {"grid_size": 60.5}}, "bad fit_window"),
    "min_points_text": ("bnn", {"network": SMALL_NETWORK, "fit_window": {"min_points": "9"}}, "bad fit_window"),
    "distribution_not_object": ("estimate", {"distribution": "gaussian"}, "must be an object"),
}


class TestConfigValidation:
    @pytest.mark.parametrize("case", sorted(MISTYPED_CONFIGS))
    def test_mistyped_field_is_a_config_error(self, tmp_path, capsys, case):
        command, sections, message = MISTYPED_CONFIGS[case]
        path = write_config(tmp_path, command=command, seed=1, n_samples=20000, **sections)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_config(tmp_path, command="bnn", seed=1, network={}, typo=1)
        assert main(["bnn", "--config", path]) == 2

    def test_missing_seed(self, tmp_path):
        path = bnn_config(tmp_path)
        with open(path) as fh:
            cfg = json.load(fh)
        del cfg["seed"]
        path2 = write_config(tmp_path, name="noseed.json", **cfg)
        assert main(["bnn", "--config", path2]) == 2

    def test_command_mismatch(self, tmp_path):
        path = bnn_config(tmp_path)
        assert main(["closure", "--config", path]) == 2

    def test_invalid_suite(self, tmp_path):
        path = write_config(tmp_path, command="closure", seed=1, suite="everything")
        assert main(["closure", "--config", path]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bnn", "--config", str(path)]) == 2

    def test_unknown_network_key(self, tmp_path):
        path = write_config(
            tmp_path,
            command="bnn",
            seed=1,
            network={"input_dim": 10, "widths": [2], "priors": [{"family": "gaussian"}], "depth": 3},
        )
        assert main(["bnn", "--config", path]) == 2


class TestBnnCommand:
    def test_small_run_writes_bundle(self, tmp_path):
        path = bnn_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["bnn", "--config", path, "--out", out]) == 0
        summary, curves = read_bundle(out)
        assert len(summary["layers"]) == 2
        assert summary["seed"] == 11
        assert curves.startswith(b"label,log_x,log_neg_log_survival\n")
        assert b"\r" not in curves

    def test_reruns_are_byte_identical(self, tmp_path):
        path = bnn_config(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["bnn", "--config", path, "--out", out1]) == 0
        assert main(["bnn", "--config", path, "--out", out2]) == 0
        assert read_bundle(out1) == read_bundle(out2)

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        path = bnn_config(tmp_path)
        bundles = []
        for workers in ("1", "4"):
            monkeypatch.setenv("GWT_LAB_THREADS", workers)
            out = str(tmp_path / f"w{workers}")
            assert main(["bnn", "--config", path, "--out", out]) == 0
            bundles.append(read_bundle(out))
        assert bundles[0] == bundles[1]

    def test_seed_override_changes_results(self, tmp_path):
        path = bnn_config(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["bnn", "--config", path, "--out", out1]) == 0
        assert main(["bnn", "--config", path, "--out", out2, "--seed", "99"]) == 0
        s1, _ = read_bundle(out1)
        s2, _ = read_bundle(out2)
        assert s1["layers"][0]["beta_hat"] != s2["layers"][0]["beta_hat"]

    def test_tiny_run_insufficient_data(self, tmp_path):
        path = bnn_config(tmp_path, n_samples=100)
        assert main(["bnn", "--config", path, "--out", str(tmp_path / "o")]) == 4

    def test_overflow_abort_status(self, tmp_path):
        path = write_config(
            tmp_path,
            command="bnn",
            seed=1,
            n_samples=50,
            network={
                "input_dim": 4,
                "widths": [1] * 40,
                "activation": "identity",
                "priors": [
                    {"family": "generalized_gaussian", "beta_w": 0.05, "scale_policy": "unit"}
                ]
                * 40,
            },
        )
        assert main(["bnn", "--config", path, "--out", str(tmp_path / "o")]) == 3

    def test_estimates_reproducible_from_curves(self, tmp_path):
        path = bnn_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["bnn", "--config", path, "--out", out]) == 0
        summary, curves = read_bundle(out)
        by_label = curve_points(curves)
        for rec in summary["layers"]:
            pts = by_label[f"layer{rec['layer']}"]
            assert abs(refit_beta_from_points(pts) - rec["beta_hat"]) < 1e-9


class TestEstimateCommand:
    def test_stdin_exact_weibull(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        samples = (-np.log1p(-rng.random(50000))) ** 2.0  # beta = 0.5
        text = "\n".join(format(v, ".17g") for v in samples) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out = str(tmp_path / "o")
        assert main(["estimate", "--out", out]) == 0
        summary, _ = read_bundle(out)
        assert 0.4 < summary["beta_hat"] < 0.6
        assert summary["label"] == "samples"

    def test_stdin_bad_line_number_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("1.0\n2.0\noops\n"))
        assert main(["estimate", "--out", str(tmp_path / "o")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_empty_stdin(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["estimate", "--out", str(tmp_path / "o")]) == 4

    def test_distribution_config_mode(self, tmp_path):
        path = write_config(
            tmp_path,
            command="estimate",
            seed=3,
            n_samples=50000,
            distribution={"family": "weibull", "params": {"shape": 1.0, "scale": 1.0}},
        )
        out = str(tmp_path / "o")
        assert main(["estimate", "--config", path, "--out", out]) == 0
        summary, curves = read_bundle(out)
        assert 0.85 < summary["beta_hat"] < 1.15
        assert summary["label"] == "weibull"
        pts = curve_points(curves)["weibull"]
        assert abs(refit_beta_from_points(pts) - summary["beta_hat"]) < 1e-9

    def test_bad_distribution(self, tmp_path):
        path = write_config(
            tmp_path,
            command="estimate",
            seed=3,
            distribution={"family": "gaussian", "params": {"sigma": -1.0}},
        )
        assert main(["estimate", "--config", path, "--out", str(tmp_path / "o")]) == 2


class TestClosureCommand:
    def test_sum_suite_passes_at_desk_scale(self, tmp_path):
        path = write_config(tmp_path, command="closure", seed=2, suite="sum", n_samples=200000)
        out = str(tmp_path / "o")
        assert main(["closure", "--config", path, "--out", out]) == 0
        summary, curves = read_bundle(out)
        names = [r["name"] for r in summary["reports"]]
        assert "sum_gauss_laplace" in names
        assert all(r["verdict"] == "pass" for r in summary["reports"])
        assert b"sum_gauss_laplace" in curves
        # every reported estimate must be reproducible from its curve rows
        by_label = curve_points(curves)
        for rec in summary["reports"]:
            assert abs(refit_beta_from_points(by_label[rec["name"]]) - rec["beta_hat"]) < 1e-9

    def test_pd_suite_with_counter_monotone_control(self, tmp_path):
        path = write_config(tmp_path, command="closure", seed=2, suite="pd", n_samples=100000)
        out = str(tmp_path / "o")
        assert main(["closure", "--config", path, "--out", out]) == 0
        summary, _ = read_bundle(out)
        control = next(r for r in summary["reports"] if "counter" in r["name"])
        assert control["expected_fail_of_pd"]
        assert control["pd"]["c_hat"] <= 0.05
        assert control["verdict"] == "pass"

    def test_all_suite_reports_in_order_and_refits(self, tmp_path):
        path = write_config(tmp_path, command="closure", seed=7, suite="all", n_samples=100000)
        out = str(tmp_path / "o")
        status = main(["closure", "--config", path, "--out", out])
        summary, curves = read_bundle(out)
        reports = summary["reports"]
        assert [(r["name"], r["kind"]) for r in reports] == [
            ("sum_gauss_laplace", "closure"),
            ("sum_identity_point_mass", "closure"),
            ("sum_three_generalized_gaussians", "closure"),
            ("product_gauss_gauss", "closure"),
            ("product_gauss_laplace", "closure"),
            ("product_identity_point_mass", "closure"),
            ("power_gauss_squared", "closure"),
            ("power_gauss_rescaled", "closure"),
            ("power_laplace_sqrt", "closure"),
            ("pd_independent_pair", "pd"),
            ("pd_independent_triple", "pd"),
            ("pd_counter_monotone_control", "pd"),
            ("pd_lemma_products_2", "pd"),
            ("pd_lemma_products_3", "pd"),
            ("pd_lemma_products_4", "pd"),
            ("truncation_gaussian_m1", "negative"),
            ("truncation_gaussian_m10", "negative"),
            ("student_t_weibull_envelopes", "negative"),
        ]
        assert status == (1 if any(r["verdict"] == "fail" for r in reports) else 0)
        assert all(r["verdict"] in ("pass", "fail") for r in reports)
        fitted = {
            r["name"]: r["beta_hat"] if "beta_hat" in r else r["tail_estimate"]["beta_hat"]
            for r in reports
            if "beta_hat" in r or "tail_estimate" in r
        }
        by_label = curve_points(curves)
        assert set(by_label) == set(fitted)
        assert {"truncation_gaussian_m1", "truncation_gaussian_m10"} <= set(fitted)
        for name, beta_hat in fitted.items():
            assert abs(refit_beta_from_points(by_label[name]) - beta_hat) < 1e-9
