"""End-to-end tests of the gwt-lab command-line interface."""

import ast
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwt_lab import EmpiricalTail, cli, closure_tolerance, refit_beta_from_points
from gwt_lab.cli import SCHEMA, _read_stdin_samples, main


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
GAUSSIAN = {"family": "gaussian", "params": {"sigma": 1.0}}
HUGE = 10**30


def small_prior(**prior):
    return {"network": {**SMALL_NETWORK, "priors": [prior]}}


# (command, config sections, expected message fragment); each must exit 2, not crash
MISTYPED_CONFIGS = {
    "widths_not_numbers": ("bnn", {"network": {**SMALL_NETWORK, "widths": ["a"]}}, "config.network.widths[0]"),
    "widths_fractional": ("bnn", {"network": {**SMALL_NETWORK, "widths": [2.7]}}, "config.network.widths[0]"),
    "widths_bool": ("bnn", {"network": {**SMALL_NETWORK, "widths": [True]}}, "config.network.widths[0]"),
    "widths_huge": ("bnn", {"network": {**SMALL_NETWORK, "widths": [HUGE]}}, "config.network.widths[0]"),
    "input_dim_fractional": ("bnn", {"network": {**SMALL_NETWORK, "input_dim": 8.5}}, "config.network.input_dim"),
    "activation_list": ("bnn", {"network": {**SMALL_NETWORK, "activation": ["relu"]}}, "config.network.activation"),
    "prior_family_list": ("bnn", small_prior(family=["gaussian"]), "config.network.priors[0].family"),
    "prior_beta_w_text": ("bnn", small_prior(family="gaussian", beta_w="x"), "config.network.priors[0].beta_w"),
    "prior_beta_w_numeric_text": ("bnn", small_prior(family="gaussian", beta_w="2"), "config.network.priors[0].beta_w"),
    "prior_beta_w_bool": ("bnn", small_prior(family="laplace", beta_w=True), "config.network.priors[0].beta_w"),
    "prior_not_object": ("bnn", {"network": {**SMALL_NETWORK, "priors": ["x"]}}, "must be an object"),
    "network_not_object": ("bnn", {"network": ["x"]}, "must be an object"),
    "q_lo_text": ("bnn", {"network": SMALL_NETWORK, "fit_window": {"q_lo": "0.9"}}, "config.fit_window.q_lo"),
    "grid_size_fractional": (
        "bnn", {"network": SMALL_NETWORK, "fit_window": {"grid_size": 60.5}}, "config.fit_window.grid_size"
    ),
    "grid_size_huge": (
        "estimate", {"distribution": GAUSSIAN, "fit_window": {"grid_size": HUGE}}, "config.fit_window.grid_size"
    ),
    "min_points_text": (
        "bnn", {"network": SMALL_NETWORK, "fit_window": {"min_points": "9"}}, "config.fit_window.min_points"
    ),
    "n_samples_huge": ("estimate", {"distribution": GAUSSIAN, "n_samples": HUGE}, "config.n_samples"),
    "distribution_not_object": ("estimate", {"distribution": "gaussian"}, "must be an object"),
    "params_bool": (
        "estimate", {"distribution": {**GAUSSIAN, "params": {"sigma": True}}}, "config.distribution.params.sigma"
    ),
    # refused even when --out overrides it: the whole config is checked before any work
    "out_dir_int": ("estimate", {"distribution": GAUSSIAN, "out_dir": 5}, "config.out_dir"),
}

# Leaves of the fuzzed config trees, and, by key, values that pass the schema. Suite
# "pd" is left out: its checks sample at least 1e5 values whatever n_samples is. The
# truncation controls of "negatives" do too, but a tiny n ends its last check early.
LEAVES = [None, True, "x", "0.9", "a\x00b", "\ud800", -1, 0, 2, 2.5, HUGE, [], {}, ["a"]]
SMALL_LEAVES = [v for v in LEAVES if v is not HUGE]
VALID = {
    "command": ["bnn", "estimate", "closure"],
    "seed": [1],
    "n_samples": [2],
    "suite": ["sum", "negatives", "all"],
    "out_dir": ["out"],
    "q_lo": [0.5],
    "q_hi": [0.9],
    "grid_size": [60],
    "min_points": [10],
    "input_dim": [2],
    "widths": [2],
    "activation": ["relu", "identity", "tanh"],
    "family": ["gaussian", "laplace", "generalized_gaussian", "weibull"],
    "beta_w": [2.0],
    "scale_policy": ["unit"],
    "params": [{"sigma": 1.0}, {"scale": 1.0}, {"shape": 2.5, "scale": 1.0}, {"shape": 2}],
}
KEYS = ["config", "fit_window", "network", "priors", "priors[]", "widths[]", "distribution", *VALID]
OPTIONAL_KEYS = [k for k in KEYS if k not in ("config", "n_samples")]


def config_trees(kind, key, bad, missing):
    """Strategy for a JSON tree over SCHEMA's keys, shaped like ``kind``.

    A key in ``bad`` gets a value from LEAVES (``key[]`` for each entry of a list) and a key
    in ``missing`` is left out; every other leaf passes the schema, so that most trees
    reach the commands' own checks.
    """
    if key in bad:
        return st.sampled_from(LEAVES)
    if isinstance(kind, dict):
        fields = {k: config_trees(v, k, bad, missing) for k, v in kind.items() if k not in missing}
        return st.fixed_dictionaries(fields)
    if isinstance(kind, list):
        return st.lists(config_trees(kind[0], f"{key}[]", bad, missing), min_size=1, max_size=2)
    return st.sampled_from(VALID[key.removesuffix("[]")])


class TestConfigValidation:
    @pytest.mark.parametrize("case", sorted(MISTYPED_CONFIGS))
    def test_mistyped_field_is_a_config_error(self, tmp_path, capsys, case):
        command, sections, message = MISTYPED_CONFIGS[case]
        path = write_config(tmp_path, **{"command": command, "seed": 1, "n_samples": 20000, **sections})
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(VALID["command"]),
        bad=st.sets(st.sampled_from(KEYS), max_size=2),
        missing=st.sets(st.sampled_from(OPTIONAL_KEYS), max_size=2),
        data=st.data(),
    )
    def test_no_config_tree_raises(self, command, bad, missing, data):
        """Any tree over the schema's keys ends in an exit status; a refused one writes nothing."""
        tree = data.draw(config_trees(SCHEMA, "config", bad, missing))
        if "n_samples" in bad and isinstance(tree, dict):  # small: each run must stay cheap
            tree["n_samples"] = data.draw(st.sampled_from(SMALL_LEAVES))
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"GWT_LAB_THREADS": "1"}):
            (Path(tmp) / "cfg.json").write_text(json.dumps(tree))
            os.chdir(tmp)
            try:
                with mock.patch("sys.stdin", io.StringIO("1.0\n2.0\n")):
                    status = main([command, "--config", "cfg.json"])
            finally:
                os.chdir(cwd)
            assert status in (0, 1, 2, 3, 4)
            if status == 2:
                assert not list(Path(tmp).rglob("summary.json"))
                assert not list(Path(tmp).rglob("curves.csv"))

    def test_refused_allocation_exits_2(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise MemoryError("Unable to allocate 3.73 GiB")

        monkeypatch.setattr("gwt_lab.cli.sample_iid", refuse)
        path = write_config(tmp_path, command="estimate", seed=1, n_samples=10**6, distribution=GAUSSIAN)
        assert main(["estimate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "out of memory" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, sections",
        [("bnn", {"network": SMALL_NETWORK}), ("estimate", {"distribution": GAUSSIAN}), ("closure", {"suite": "sum"})],
        ids=["bnn", "estimate", "closure"],
    )
    def test_bad_thread_count_is_a_config_error(self, tmp_path, monkeypatch, capsys, command, sections):
        """Every command reads GWT_LAB_THREADS before any work, whether or not it runs threads."""
        monkeypatch.setenv("GWT_LAB_THREADS", "abc")
        path = write_config(tmp_path, command=command, seed=1, n_samples=2000, **sections)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "GWT_LAB_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("via", ["config", "--out"])
    @pytest.mark.parametrize("out_dir", ["a\x00b", "x\ud800y"], ids=["nul", "lone_surrogate"])
    def test_unusable_out_dir_is_a_config_error(self, tmp_path, monkeypatch, capsys, out_dir, via):
        """A path os.fsencode or the OS refuses exits 2 before any sampling, not in a traceback after it."""
        in_config = {"out_dir": out_dir} if via == "config" else {}
        path = write_config(tmp_path, command="estimate", seed=1, n_samples=20000, distribution=GAUSSIAN, **in_config)
        monkeypatch.chdir(tmp_path)
        assert main(["estimate", "--config", path, *([] if in_config else ["--out", out_dir])]) == 2
        assert ("config.out_dir" if in_config else "--out") in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_deeply_nested_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 10**5 + "]" * 10**5)
        assert main(["bnn", "--config", str(path)]) == 2
        assert "config" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfe{}", b'{"seed": ' + b"9" * 5000 + b"}"], ids=["directory", "not_utf8", "long_int"]
    )
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["bnn", "--config", str(path)]) == 2
        assert "config" in capsys.readouterr().err

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

    def test_prior_tail_parameter_defaults_to_its_family(self, tmp_path, capsys):
        for family, beta_w in (("gaussian", 2.0), ("laplace", 1.0), ("generalized_gaussian", 2.0)):
            bundles = []
            for prior in ({"family": family}, {"family": family, "beta_w": beta_w}):
                net = {"input_dim": 300, "widths": [3, 3], "priors": [{"family": "gaussian"}, prior]}
                path = bnn_config(tmp_path, network=net)
                out = str(tmp_path / f"{family}{len(bundles)}")
                assert main(["bnn", "--config", path, "--out", out]) == 0
                bundles.append(read_bundle(out))
            assert bundles[0] == bundles[1], family
        # a stated value that does not match the family is still refused
        net = {"input_dim": 300, "widths": [3], "priors": [{"family": "laplace", "beta_w": 2.0}]}
        assert main(["bnn", "--config", bnn_config(tmp_path, network=net), "--out", str(tmp_path / "x")]) == 2
        assert "laplace prior has tail parameter 1.0, got 2.0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_tanh_is_refused_before_sampling(self, tmp_path, capsys):
        """tanh is bounded, so the depth rule each layer's verdict compares with does not hold for it."""
        net = {"input_dim": 300, "widths": [3, 3], "activation": "tanh", "priors": [{"family": "gaussian"}] * 2}
        path = bnn_config(tmp_path, network=net)
        with mock.patch("gwt_lab.cli.run_prior_monte_carlo", wraps=cli.run_prior_monte_carlo) as sampler:
            assert main(["bnn", "--config", path, "--out", str(tmp_path / "o")]) == 2
        sampler.assert_not_called()
        assert "config.network.activation" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
            # the layer verdict is the closure rules' verdict
            assert rec["tolerance"] == closure_tolerance(rec["predicted_beta"], rec["stderr_slope"])
            assert rec["within_tolerance"] == (abs(rec["beta_hat"] - rec["predicted_beta"]) <= rec["tolerance"])


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
        # blank and whitespace-only lines are skipped but still counted
        for text, line in (
            ("1.0\n2.0\noops\n", "line 3"),
            ("1.0\n\n  \n2.0\noops\n", "line 5"),
            ("1.0\n1.0 2.0\n", "line 2"),
            ("1.0\n\t\r\n\u00a0\n\u2003\u2003\n\x1c\n1_0x\n", "line 6"),
        ):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["estimate", "--out", str(tmp_path / "o")]) == 2
            assert line in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_stdin_whitespace_around_values(self):
        """Values wrapped in any whitespace str.strip() removes parse to float(value)'s bits."""
        values = np.random.default_rng(8).standard_normal(6)
        pads = ["\t", "\r", "\u00a0", "\u2003", " \t\r", "\x1c"]  # U+001C: strip() removes it, float() does not
        text = "".join(f"{pad}{float(v)!r}{pad}\n{pad}\n" for pad, v in zip(pads, values))
        samples = _read_stdin_samples(io.StringIO(text))
        assert samples.tobytes() == values.tobytes()

    def test_stdin_reader_keeps_no_float_per_line(self):
        values = np.random.default_rng(6).standard_normal(200_000)
        stream = io.StringIO("".join(format(v, ".17g") + "\n" for v in values))
        tracemalloc.start()
        try:
            samples = _read_stdin_samples(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(samples, values)
        assert peak < 3 * samples.nbytes

    def test_estimate_holds_one_sample_array(self, tmp_path, monkeypatch):
        """Past parsing, the command holds its parsed array and little else.

        The fold partitions that array in place and keeps the window's top
        block, where a full sort held a second n-length copy (2.30 arrays).
        The peak is taken from the end of parsing: ``np.fromiter`` reserves
        up to 1.5 n while it grows, which ``test_stdin_reader_keeps_no_float_per_line``
        bounds.
        """
        values = np.random.default_rng(7).standard_normal(200_000)
        stream = io.StringIO("".join(format(v, ".17g") + "\n" for v in values))

        def parse_then_reset_peak(stream):
            samples = _read_stdin_samples(stream)
            tracemalloc.reset_peak()
            return samples

        monkeypatch.setattr(cli, "_read_stdin_samples", parse_then_reset_peak)
        tracemalloc.start()
        try:
            assert cli.cmd_estimate_tail({}, str(tmp_path / "o"), 1, 0, stdin=stream) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["n"] == values.size
        assert peak < 1.5 * values.nbytes

    def test_stdin_not_utf8(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1.0\n\xff\xfe\n"), encoding="utf-8"))
        assert main(["estimate", "--out", str(tmp_path / "o")]) == 2
        assert "stdin is not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = write_config(tmp_path, command="estimate", seed=3, n_samples=20000, distribution=GAUSSIAN)
        assert main(["estimate", "--config", path, "--out", str(blocker / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_distribution(self, tmp_path):
        path = write_config(
            tmp_path,
            command="estimate",
            seed=3,
            distribution={"family": "gaussian", "params": {"sigma": -1.0}},
        )
        assert main(["estimate", "--config", path, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "family,params",
        [
            ("gaussian", {"sigma": 1e308}),
            ("weibull", {"shape": 1.0, "scale": 1e308}),
            ("student_t", {"dof": 3.0, "scale": 1e308}),
            ("generalized_gaussian", {"shape": 2.0, "scale": 1e308}),
            ("generalized_gaussian", {"shape": 0.006, "scale": 1.0}),
        ],
    )
    def test_sampled_overflow_exits_4_without_warning(self, tmp_path, capsys, family, params):
        """Draws too large for float64 are refused as non-finite samples, with no numpy warning."""
        path = write_config(
            tmp_path, command="estimate", seed=3, n_samples=100000,
            distribution={"family": family, "params": params},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", path, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "samples must be finite" in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "o").exists()


class TestBundleFiles:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
    def test_files_take_the_umask(self, tmp_path, umask, mode):
        """Bundle files get the mode open() would give them: 0o666 less the umask."""
        path = write_config(tmp_path, command="estimate", seed=3, n_samples=20000, distribution=GAUSSIAN)
        out = tmp_path / "o"
        previous = os.umask(umask)
        try:
            assert main(["estimate", "--config", path, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert {name: (out / name).stat().st_mode & 0o777 for name in ("summary.json", "curves.csv")} == {
            "summary.json": mode,
            "curves.csv": mode,
        }

    def test_failed_staging_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        """A write that fails while staging the second file exits 2 and leaves no file behind."""
        staged = []

        def open_failing_curves(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            name = os.path.basename(file)
            if name.startswith((".summary.json.", ".curves.csv.")):
                staged.append(name)
            if name.startswith(".curves.csv."):
                def write(_text):
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

                fh.write = write
            return fh

        path = write_config(tmp_path, command="estimate", seed=3, n_samples=20000, distribution=GAUSSIAN)
        out = tmp_path / "o"
        monkeypatch.setattr(cli, "open", open_failing_curves, raising=False)
        assert main(["estimate", "--config", path, "--out", str(out)]) == 2
        assert [name.split(".")[1] for name in staged] == ["summary", "curves"]
        assert "No space left on device" in capsys.readouterr().err
        # neither bundle file, nor a staged .summary.json.* or .curves.csv.*
        assert list(out.iterdir()) == []

    def test_write_bundle_encodes_numpy_values(self, tmp_path):
        """numpy values reach summary.json as json writes lists, ints and bools, and points as .17g rows."""
        summary = {
            "z_grid": np.array([0.5, -1.25e-300, 3.0]),
            "cell_events": np.array([1000, 2, 3], dtype=np.int64),
            "count": np.int64(7),
            "within": np.bool_(True),
            "x_range": (1.5, 2.5),
            "nested": [{"c_hat": np.float64(0.25)}],
        }
        plain = {
            "z_grid": [0.5, -1.25e-300, 3.0],
            "cell_events": [1000, 2, 3],
            "count": 7,
            "within": True,
            "x_range": [1.5, 2.5],
            "nested": [{"c_hat": 0.25}],
        }
        points = np.array([[0.1, -2.0], [1.0 / 3.0, 5e-324]])
        out = tmp_path / "o"
        cli.write_bundle(str(out), summary, {"layer1": points, "layer2": points[:1]})
        assert (out / "summary.json").read_text() == json.dumps(plain, indent=2) + "\n"
        assert (out / "curves.csv").read_text() == (
            "label,log_x,log_neg_log_survival\n"
            "layer1,0.10000000000000001,-2\n"
            "layer1,0.33333333333333331,4.9406564584124654e-324\n"
            "layer2,0.10000000000000001,-2\n"
        )
        # a value json cannot write is refused before anything is staged
        with pytest.raises(TypeError, match="object"):
            cli.write_bundle(str(out), {"bad": object()}, {"layer1": points})
        assert sorted(p.name for p in out.iterdir()) == ["curves.csv", "summary.json"]
        assert (out / "summary.json").read_text() == json.dumps(plain, indent=2) + "\n"
        fresh = tmp_path / "fresh"
        with pytest.raises(TypeError):
            cli.write_bundle(str(fresh), {"bad": object()}, {})
        assert not fresh.exists()


def per_line_reference(stream) -> np.ndarray:
    """The stdin rules one line at a time: float(), retried after strip(), blank lines skipped."""
    values = []
    for line in stream:
        try:
            values.append(float(line))
        except ValueError:
            if line.strip():
                values.append(float(line.strip()))
    return np.array(values, dtype=np.float64)


class BatchSpy(io.StringIO):
    """A StringIO that keeps every batch of lines the reader asked for."""

    def __init__(self, text):
        super().__init__(text)
        self.batches = []

    def readlines(self, hint=-1):
        lines = super().readlines(hint)
        self.batches.append(lines)
        return lines


@pytest.fixture
def batch_chars(request, monkeypatch):
    """The reader's batch size in characters: patched to ``request.param``, or as shipped for None."""
    if request.param is not None:
        monkeypatch.setattr(cli, "_STDIN_BATCH_CHARS", request.param)
    return cli._STDIN_BATCH_CHARS


class TestStdinReader:
    @pytest.mark.parametrize("batch_chars", [7, None], indirect=True)
    @pytest.mark.parametrize("with_blanks", [False, True])
    def test_same_bits_as_per_line_float(self, batch_chars, with_blanks):
        """Every value is float() of its line, for every form float() accepts."""
        rng = np.random.default_rng(12)
        forms = [
            *(repr(float(v)) for v in rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)),
            "-0.0", "0.0", "1e-320", "-4.9e-324", "1_000.5", "+3.5", "\t+3.5\t", "\t1_000.5 ",
            "nan", "-nan", "inf", "-Infinity", " 1E+308 ", "10",
        ]
        lines = [f"{forms[i]}\n" for i in rng.integers(0, len(forms), 200_000)]
        if with_blanks:  # blank, whitespace-only and U+001C-padded lines take the per-line rules
            for i in rng.choice(len(lines), 2_000, replace=False):
                lines[i] = ["\n", " \t\n", f"\x1c{lines[i].strip()}\x1c\n"][i % 3]
        text = "".join(lines)
        got = _read_stdin_samples(io.StringIO(text))
        want = per_line_reference(io.StringIO(text))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert np.isnan(got).any() and np.isinf(got).any()

    @pytest.mark.parametrize("batch_chars", [7, None], indirect=True)
    def test_bad_line_in_third_batch_named_by_absolute_number(self, batch_chars):
        lines = ["1.0\n"] * (3 * batch_chars)
        probe = io.StringIO("".join(lines))
        bad = len(probe.readlines(batch_chars)) + len(probe.readlines(batch_chars)) + 2  # third batch, second line
        lines[bad - 1] = "1.0.0\n"
        stream = BatchSpy("".join(lines))
        with pytest.raises(cli.ConfigError, match=f"on line {bad}: '1.0.0'$"):
            _read_stdin_samples(stream)
        assert len(stream.batches) == 3

    @pytest.mark.parametrize("batch_chars", [7, None], indirect=True)
    def test_blank_lines_on_batch_edges(self, batch_chars):
        # a value line of exactly batch_chars characters fills a batch, and readlines() adds
        # the next line before it stops, so some batch edges have blank lines on both sides
        text = "".join(f"{i}.5".rjust(batch_chars - 1) + "\n\n\n \t\n" for i in range(12))
        stream = BatchSpy(text)
        got = _read_stdin_samples(stream)
        assert got.tolist() == [i + 0.5 for i in range(12)]
        batches = stream.batches[:-1]  # the last call finds the end of the stream
        assert any(not left[-1].strip() and not right[0].strip() for left, right in zip(batches, batches[1:]))
        with pytest.raises(cli.ConfigError, match="on line 49: 'x'$"):
            _read_stdin_samples(io.StringIO(text + "x\n"))

    @pytest.mark.parametrize("batch_chars", [7, None], indirect=True)
    def test_line_longer_than_a_batch(self, batch_chars):
        long_line = " " * (2 * batch_chars) + "2.5" + "\t" * batch_chars + "\n"
        got = _read_stdin_samples(io.StringIO("1.0\n" + long_line + "3.0\n"))
        assert got.tolist() == [1.0, 2.5, 3.0]
        with pytest.raises(cli.ConfigError, match="on line 2: "):
            _read_stdin_samples(io.StringIO("1.0\n" + long_line.replace("2.5", "2,5") + "3.0\n"))

    @pytest.mark.parametrize("batch_chars", [7, None], indirect=True)
    def test_no_trailing_newline(self, batch_chars):
        assert _read_stdin_samples(io.StringIO("1.0\n\n2.25")).tolist() == [1.0, 2.25]
        with pytest.raises(cli.ConfigError, match="on line 3: 'x'$"):
            _read_stdin_samples(io.StringIO("1.0\n\nx"))

    @pytest.mark.parametrize("batch_chars", [7, None], indirect=True)
    def test_crlf_and_lone_cr_through_a_text_wrapper(self, batch_chars):
        def wrapped(data: bytes):
            return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")

        data = b"1.0\r\n2.0\r3.0\n\r\n-4.5\r\r0.125"
        got = _read_stdin_samples(wrapped(data))
        assert got.tobytes() == per_line_reference(wrapped(data)).tobytes()
        assert got.tolist() == [1.0, 2.0, 3.0, -4.5, 0.125]
        with pytest.raises(cli.ConfigError, match="on line 5: 'bad'$"):
            _read_stdin_samples(wrapped(b"1.0\r\n2.0\r\r\n\rbad\r\n"))

    def test_long_bad_line_is_quoted_short(self, tmp_path, monkeypatch, capsys):
        """Space-separated values on one line are refused without echoing the line back."""
        monkeypatch.setattr("sys.stdin", io.StringIO("1.0 " * 262_144 + "\n"))
        assert main(["estimate", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "1048575 characters" in err
        assert len(err) < 300
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_bad_utf8_and_bad_line_together(self, tmp_path, monkeypatch, capsys, bad_first):
        """Either fault may be named, but the run exits 2 and writes no bundle."""
        faults = [b"oops\n", b"1.0\xff\n"]
        data = b"1.0\n" + (b"1.0\n" * 5_000).join(faults if bad_first else faults[::-1])
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["estimate", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "stdin is not valid UTF-8" in err or "unparseable sample on line 2: 'oops'" in err
        assert not (tmp_path / "o").exists()

    def test_clean_lines_run_no_python_frame_per_line(self):
        """Without timing: the reader's Python calls grow with batches, not with lines."""
        values = np.random.default_rng(13).standard_normal(200_000)
        stream = io.StringIO("".join(repr(v) + "\n" for v in values.tolist()))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            samples = _read_stdin_samples(stream)
        finally:
            sys.setprofile(None)
        assert samples.tobytes() == values.tobytes()
        assert calls < 1_000


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
        for r in reports:
            if r["kind"] == "closure":
                tolerance = closure_tolerance(r["predicted_beta"], r["stderr_slope"])
                within = abs(r["beta_hat"] - r["predicted_beta"]) <= tolerance
                assert r["verdict"] == ("pass" if within else "fail")
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

    @pytest.mark.parametrize("seed, n_samples", [(7, 10**5), (11, 10**6)])
    def test_every_pd_record_counts_1000_events_per_cell(self, tmp_path, seed, n_samples):
        path = write_config(tmp_path, command="closure", seed=seed, suite="all", n_samples=n_samples)
        out = str(tmp_path / "o")
        assert main(["closure", "--config", path, "--out", out]) in (0, 1)
        summary, _ = read_bundle(out)
        records = {
            (r["name"], key): value
            for r in summary["reports"]
            for key, value in r.items()
            if isinstance(value, dict) and "c_hat" in value
        }
        # pair, triple, counter-monotone, three lemma checks on two sides, two truncations
        assert len(records) == 11
        assert {("truncation_gaussian_m1", "pd"), ("truncation_gaussian_m10", "pd")} <= set(records)
        for where, record in records.items():
            assert len(record["cell_events"]) == len(record["z_grid"]) == len(record["per_z_conditional"]), where
            assert min(record["cell_events"]) >= 1000, where

    def test_negatives_below_the_pd_floor_write_a_bundle(self, tmp_path):
        """The truncation controls sample at least 1e5 values, like the PD checks."""
        path = write_config(tmp_path, command="closure", seed=3, suite="negatives", n_samples=50000)
        out = str(tmp_path / "o")
        assert main(["closure", "--config", path, "--out", out]) in (0, 1)
        summary, _ = read_bundle(out)
        assert summary["n_samples"] == 50000
        assert [r["name"] for r in summary["reports"]] == [
            "truncation_gaussian_m1", "truncation_gaussian_m10", "student_t_weibull_envelopes"
        ]
        assert all(len(r["pd"]["cell_events"]) == 3 for r in summary["reports"] if "pd" in r)


# command -> (config, exit status, sha256 of each bundle file)
GOLDEN_BUNDLES = {
    "closure": (
        {"command": "closure", "seed": 7, "suite": "all", "n_samples": 100000},
        1,
        {
            "summary.json": "9495823203f3e6766b99e8cdcf376bdff4576e5bb557f0bdc6b2451b3f4cb1bc",
            "curves.csv": "7650665ebbe0c9cc2a0e7497aef6538e867e9807e4886329b5661c1a8df55d93",
        },
    ),
    "bnn": (
        {
            "command": "bnn",
            "seed": 11,
            "n_samples": 20000,
            "fit_window": {"q_lo": 0.9, "q_hi": 0.999},
            "network": {
                "input_dim": 300,
                "widths": [3, 3],
                "priors": [{"family": "gaussian", "beta_w": 2.0}, {"family": "laplace", "beta_w": 1.0}],
            },
        },
        0,
        {
            "summary.json": "30ac9948c1136ea9464bb1abe9be0ce7bddea3516967bdfb19b7e3852123c283",
            "curves.csv": "02c0ade16d66ac59057dbab6fb194735f4d9436e8db19cdc7db1ea927dbf4af3",
        },
    ),
    "estimate": (
        {
            "command": "estimate",
            "seed": 3,
            "n_samples": 200000,
            "distribution": {"family": "weibull", "params": {"shape": 1.0, "scale": 1.0}},
        },
        0,
        {
            "summary.json": "0cdebc565c9bd55b0f8695e07e1d2c2af4e56ae78b50be43aeab2357764a0c4b",
            "curves.csv": "16d55e6d329635e74f03cc4b4902de0e3b65c574558e048d0e406a9698923059",
        },
    ),
    # read from TIE_HEAVY_STDIN: hundreds of values tie at the window's q_lo quantile
    "estimate_stdin": (
        {"command": "estimate", "seed": 3},
        0,
        {
            "summary.json": "c8b0622d03ebc8a90761653df6862c1123bdbe080cb0b777318579419ca85b9a",
            "curves.csv": "c3b1efd8a702096f20a8b8250e34b7cdcca3d4a673c8387483ede816b36c67c7",
        },
    ),
}
# 1e5 standard normals rounded to 1/50, one per line
TIE_HEAVY_VALUES = np.round(np.random.default_rng(9).standard_normal(10**5) * 50) / 50
TIE_HEAVY_STDIN = "".join(f"{v!r}\n" for v in TIE_HEAVY_VALUES.tolist())


class TestGoldenBundles:
    @pytest.mark.parametrize("command", sorted(GOLDEN_BUNDLES))
    def test_fixed_seed_bundle_digests(self, tmp_path, monkeypatch, command):
        """A refactor that leaves results unchanged leaves these bundles byte-identical.

        The digests were taken with numpy 2.4.6 on x86-64 Linux. The commands compute
        with numpy alone, so another numpy release may draw or compute different bits,
        and then they need re-recording from a commit known to be correct.
        """
        cfg, status, digests = GOLDEN_BUNDLES[command]
        monkeypatch.setenv("GWT_LAB_THREADS", "2")
        monkeypatch.setattr("sys.stdin", io.StringIO(TIE_HEAVY_STDIN))
        out = tmp_path / "o"
        assert main([cfg["command"], "--config", write_config(tmp_path, **cfg), "--out", str(out)]) == status
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests} == digests


def test_every_estimate_folds_at_its_window(tmp_path, monkeypatch):
    """Every fit folds from its config's fit_window.q_lo; only arrays a command owns are folded in place."""
    folds = []
    fold = EmpiricalTail.from_samples.__func__

    def spy(cls, samples, side="right", q_keep=0.0, overwrite=False):
        folds.append((q_keep, overwrite))
        return fold(cls, samples, side, q_keep, overwrite)

    monkeypatch.setattr(EmpiricalTail, "from_samples", classmethod(spy))
    monkeypatch.setattr("sys.stdin", io.StringIO(TIE_HEAVY_STDIN))
    window = {"q_lo": 0.9, "q_hi": 0.999}
    closure = {"command": "closure", "seed": 2, "n_samples": 20000, "fit_window": window}
    runs = [
        # bnn (q_lo 0.9): one fold per layer, of a view into the Monte Carlo trace
        (GOLDEN_BUNDLES["bnn"][0], {0}, [(0.9, False)] * 2),
        # estimate on stdin (default q_lo 0.95): the parsed array is the command's own
        ({"command": "estimate", "seed": 3}, {0}, [(0.95, True)]),
        (dict(closure, suite="sum"), {0, 1}, [(0.9, False)] * 3),
        # the two truncation controls own their sums; the student-t envelope check does not
        (dict(closure, suite="negatives"), {0, 1}, [(0.9, True), (0.9, True), (0.9, False)]),
    ]
    for i, (cfg, statuses, expected) in enumerate(runs):
        folds.clear()
        path = write_config(tmp_path, f"cfg{i}.json", **cfg)
        assert main([cfg["command"], "--config", path, "--out", str(tmp_path / f"o{i}")]) in statuses
        assert folds == expected, cfg


SRC = Path(__file__).resolve().parents[1] / "src"


def test_commands_load_no_scipy(tmp_path):
    """The package runs on numpy alone: no command imports scipy, even lazily.

    scipy is a test dependency only. The subprocess blocks its import before
    loading the CLI, so any scipy import on a command's path raises.
    """
    configs = {
        "estimate": write_config(
            tmp_path, "estimate.json", command="estimate", seed=3, n_samples=50000,
            distribution={"family": "weibull", "params": {"shape": 1.0, "scale": 1.0}},
        ),
        "bnn": bnn_config(tmp_path),
        "closure": write_config(tmp_path, "closure.json", command="closure", seed=2, suite="sum", n_samples=200000),
    }
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "import gwt_lab.cli\n"
        "seen = {}\n"
        "for command, path in json.loads(sys.argv[1]).items():\n"
        "    seen[command] = gwt_lab.cli.main([command, '--config', path, '--out', path + '.out'])\n"
        "print(json.dumps(seen))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(configs)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"estimate": 0, "bnn": 0, "closure": 0}

    scipy_imports = []
    for path in sorted((SRC / "gwt_lab").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            scipy_imports += [
                f"{path.name}:{node.lineno}" for m in modules if m == "scipy" or m.startswith("scipy.")
            ]
    assert scipy_imports == []
