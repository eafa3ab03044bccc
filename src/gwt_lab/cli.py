"""Command-line front end: gwt-lab bnn | estimate | closure.

Experiments are described by a JSON config (one schema for all commands,
unknown keys rejected) and emit a result bundle: a machine-readable
summary.json plus a plot-ready curves.csv holding the log-log points
every reported estimate was fitted on. Files are written atomically
(write-then-rename); nothing is left behind on failure.

Exit codes: 0 ok, 1 closure verdict failed, 2 config/parse error,
3 overflow abort, 4 insufficient data or empty input.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from .bnn_sampler import (
    LayerPrior,
    NetworkConfig,
    predicted_tail_parameter,
    run_prior_monte_carlo,
)
from .closure_lab import closure_suite, closure_tolerance
from .errors import (
    ConfigError,
    DegenerateTailError,
    DomainError,
    InsufficientDataError,
    OverflowAbortError,
    ParameterError,
)
from .rng import RngStream
from .tail_distributions import DistributionSpec, sample_iid
from .tail_estimation import (
    EmpiricalTail,
    FitWindow,
    estimate_tail_index,
    loglog_points,
)

DESK_SCALE_N = 10**5
FULL_SCALE_N = 10**6
DEFAULT_OUT_DIR = "gwt-lab-out"

_TOP_KEYS = {"command", "seed", "n_samples", "network", "fit_window", "suite", "out_dir", "distribution"}
_NETWORK_KEYS = {"input_dim", "widths", "activation", "priors"}
_PRIOR_KEYS = {"family", "beta_w", "scale_policy"}
_WINDOW_KEYS = {"q_lo", "q_hi", "grid_size", "min_points"}
_DISTRIBUTION_KEYS = {"family", "params"}


# ----------------------------- config ---------------------------------


def _check_object(obj, allowed: set, where: str) -> dict:
    """Return obj if it is a JSON object with only allowed keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"'{where}' must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    return obj


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _check_object(cfg, _TOP_KEYS, "config")


def resolve_seed(cfg: dict, override) -> int:
    seed = override if override is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def resolve_n_samples(cfg: dict, full: bool) -> int:
    if full:
        return FULL_SCALE_N
    n = cfg.get("n_samples")
    if n is None:
        return DESK_SCALE_N
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ConfigError(f"'n_samples' must be a positive integer, got {n!r}")
    return n


def parse_fit_window(cfg: dict) -> FitWindow:
    raw = _check_object(cfg.get("fit_window", {}), _WINDOW_KEYS, "fit_window")
    try:
        return FitWindow(
            q_lo=raw.get("q_lo", FitWindow.q_lo),
            q_hi=raw.get("q_hi", FitWindow.q_hi),
            grid_size=raw.get("grid_size", FitWindow.grid_size),
            min_points=raw.get("min_points", FitWindow.min_points),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fit_window: {exc}") from exc


def parse_network(cfg: dict, seed: int, n_samples: int) -> NetworkConfig:
    raw = cfg.get("network")
    if raw is None:
        raise ConfigError("bnn command needs a 'network' section")
    _check_object(raw, _NETWORK_KEYS, "network")
    priors_raw = raw.get("priors")
    if not isinstance(priors_raw, list) or not priors_raw:
        raise ConfigError("'network.priors' must be a nonempty list")
    priors = []
    for i, p in enumerate(priors_raw):
        _check_object(p, _PRIOR_KEYS, f"network.priors[{i}]")
        try:
            priors.append(
                LayerPrior(
                    family=p.get("family", "gaussian"),
                    tail_beta_w=float(p.get("beta_w", 2.0)),
                    scale_policy=p.get("scale_policy", "inv_sqrt_fan_in"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad prior [{i}]: {exc}") from exc
    try:
        return NetworkConfig(
            input_dim=raw.get("input_dim", 0),
            widths=tuple(raw.get("widths", ())),
            layer_priors=tuple(priors),
            activation=raw.get("activation", "relu"),
            n_samples=n_samples,
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad network: {exc}") from exc


def parse_distribution(cfg: dict) -> DistributionSpec | None:
    raw = cfg.get("distribution")
    if raw is None:
        return None
    _check_object(raw, _DISTRIBUTION_KEYS, "distribution")
    family = raw.get("family")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'distribution.params' must be an object")
    try:
        return DistributionSpec(family, {k: float(v) for k, v in params.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad distribution: {exc}") from exc


# ----------------------------- output ---------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_bundle(out_dir: str, summary: dict, curve_rows) -> None:
    """Atomically write summary.json and curves.csv into out_dir.

    curve_rows is an iterable of (label, log_x, log_neg_log_survival).
    """
    os.makedirs(out_dir, exist_ok=True)
    payloads = {
        "summary.json": json.dumps(summary, indent=2) + "\n",
        "curves.csv": "label,log_x,log_neg_log_survival\n"
        + "".join(f"{label},{_fmt(lx)},{_fmt(ly)}\n" for label, lx, ly in curve_rows),
    }
    staged = []
    try:
        for name, text in payloads.items():
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            staged.append((tmp, os.path.join(out_dir, name)))
        # rename only after every payload is staged: no partial bundles
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _points_rows(label: str, points: np.ndarray):
    return [(label, float(p[0]), float(p[1])) for p in points]


# ----------------------------- commands --------------------------------


def cmd_bnn_experiment(cfg: dict, out_dir: str, seed: int, n_samples: int) -> int:
    window = parse_fit_window(cfg)
    netcfg = parse_network(cfg, seed, n_samples)
    trace = run_prior_monte_carlo(netcfg)
    layers = []
    rows = []
    for l in range(netcfg.depth):
        predicted = predicted_tail_parameter(netcfg.layer_priors, l + 1)
        samples = trace.g[l]
        if trace.overflow_replicates.size:
            samples = samples[np.isfinite(samples)]
        tail = EmpiricalTail.from_samples(samples, side="right")
        pts = loglog_points(tail, window)
        est = estimate_tail_index(tail, window)
        tol = closure_tolerance(predicted, est.stderr_slope)
        layers.append(
            {
                "layer": l + 1,
                "predicted_beta": predicted,
                **est.to_dict(),
                "tolerance": tol,
                "within_tolerance": bool(abs(est.beta_hat - predicted) <= tol),
            }
        )
        rows.extend(_points_rows(f"layer{l + 1}", pts))
    summary = {
        "command": "bnn",
        "seed": seed,
        "n_samples": n_samples,
        "network": {
            "input_dim": netcfg.input_dim,
            "widths": list(netcfg.widths),
            "activation": netcfg.activation,
            "priors": [
                {"family": p.family, "beta_w": p.tail_beta_w, "scale_policy": p.scale_policy}
                for p in netcfg.layer_priors
            ],
        },
        "fit_window": asdict(window),
        "degenerate_input": trace.degenerate_input,
        "overflow_count": int(trace.overflow_replicates.size),
        "layers": layers,
    }
    write_bundle(out_dir, summary, rows)
    print(f"{'layer':>5} {'predicted':>10} {'estimated':>10} {'stderr':>8}  in-band")
    for rec in layers:
        print(
            f"{rec['layer']:>5} {rec['predicted_beta']:>10.4f} {rec['beta_hat']:>10.4f} "
            f"{rec['stderr_slope']:>8.4f}  {'yes' if rec['within_tolerance'] else 'NO'}"
        )
    return 0


def _read_stdin_samples(stream) -> np.ndarray:
    values = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise ConfigError(f"unparseable sample on line {lineno}: {text!r}")
    return np.asarray(values, dtype=np.float64)


def cmd_estimate_tail(cfg: dict, out_dir: str, seed: int, n_samples: int, stdin=None) -> int:
    window = parse_fit_window(cfg)
    spec = parse_distribution(cfg)
    if spec is not None:
        samples = sample_iid(spec, n_samples, RngStream(seed))
        label = spec.family
    else:
        samples = _read_stdin_samples(stdin if stdin is not None else sys.stdin)
        label = "samples"
    if samples.size == 0:
        raise InsufficientDataError("no samples supplied")
    tail = EmpiricalTail.from_samples(samples, side="right")
    pts = loglog_points(tail, window)
    est = estimate_tail_index(tail, window)
    summary = {
        "command": "estimate",
        "seed": seed,
        "n": int(samples.size),
        "label": label,
        **est.to_dict(),
    }
    write_bundle(out_dir, summary, _points_rows(label, pts))
    print(f"beta_hat = {est.beta_hat:.4f} (stderr {est.stderr_slope:.4f}, {est.fit_points} points)")
    return 0


def cmd_closure_suite(cfg: dict, out_dir: str, seed: int, n_samples: int) -> int:
    suite = cfg.get("suite", "all")
    window = parse_fit_window(cfg)
    reports = []
    rows = []
    for result in closure_suite(suite, seed, n_samples, window):
        reports.append(result.to_dict())
        if result.points is not None:
            rows.extend(_points_rows(result.name, result.points))
        print(f"{result.name:<34} {reports[-1]['verdict']}")
    summary = {
        "command": "closure",
        "suite": suite,
        "seed": seed,
        "n_samples": n_samples,
        "reports": reports,
    }
    write_bundle(out_dir, summary, rows)
    return 0 if all(rec["verdict"] == "pass" for rec in reports) else 1


# ----------------------------- entry point -----------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gwt-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("bnn", True), ("estimate", False), ("closure", True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="JSON experiment config")
        p.add_argument("--out", help="output directory for the result bundle")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--full", action="store_true", help="run at full scale (n = 1e6)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(f"config declares command {declared!r}, invoked {args.command!r}")
        stdin_mode = args.command == "estimate" and "distribution" not in cfg
        if stdin_mode and args.seed is None and "seed" not in cfg:
            seed = 0  # no randomness consumed when samples come from stdin
        else:
            seed = resolve_seed(cfg, args.seed)
        n_samples = resolve_n_samples(cfg, args.full)
        out_dir = args.out or cfg.get("out_dir") or DEFAULT_OUT_DIR
        if args.command == "bnn":
            return cmd_bnn_experiment(cfg, out_dir, seed, n_samples)
        if args.command == "estimate":
            return cmd_estimate_tail(cfg, out_dir, seed, n_samples)
        return cmd_closure_suite(cfg, out_dir, seed, n_samples)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InsufficientDataError, DegenerateTailError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
