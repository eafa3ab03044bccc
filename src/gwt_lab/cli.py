"""Command-line front end: gwt-lab bnn | estimate | closure.

Experiments are described by a JSON config (one SCHEMA for all commands,
checked before any work starts) and emit a result bundle: a machine-readable
summary.json plus a plot-ready curves.csv holding the log-log points
every reported estimate was fitted on. Files are written atomically
(write-then-rename); nothing is left behind on failure. GWT_LAB_THREADS
(an integer, 1 if unset) sets the threads of the bnn Monte Carlo.

Exit codes: 0 ok, 1 closure verdict failed, 2 bad config, I/O error or
refused allocation, 3 overflow abort, 4 insufficient data or empty input.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .bnn_sampler import (
    LayerPrior,
    NetworkConfig,
    predicted_tail_parameter,
    run_prior_monte_carlo,
)
from .closure_lab import RULE_PRODUCT_HARMONIC, closure_suite, judge_tail
from .errors import (
    ConfigError,
    DegenerateTailError,
    DomainError,
    InsufficientDataError,
    OverflowAbortError,
    ParameterError,
)
from .rng import RngStream
from .tail_distributions import FIXED_TAIL_BETA, DistributionSpec, sample_iid
from .tail_estimation import FitWindow, estimate_with_points

DESK_SCALE_N = 10**5
DEFAULT_OUT_DIR = "gwt-lab-out"


# ----------------------------- config ---------------------------------

MAX_COUNT = 10**9

# Leaf kinds of SCHEMA, each named by the phrase its error message uses; in
# SCHEMA a dict is a section with those keys, a one-item list a list of that kind.
STRING = "a string"
PATH = "a string without NUL or unencodable characters"
INTEGER = "an integer"
COUNT = f"an integer in 1..{MAX_COUNT}"
NUMBER = "a finite number"
NUMBER_MAP = "an object of finite numbers"


def _is_path(v) -> bool:
    try:  # os.fsencode refuses a lone surrogate; the OS refuses NUL
        return type(v) is str and b"\0" not in os.fsencode(v)
    except UnicodeEncodeError:
        return False


# json.load yields exact int and float, so type() also refuses bools; comparing
# exactly with float_info.max refuses NaN, infinities and ints too big for a float
_LEAF_TESTS = {
    STRING: lambda v: type(v) is str,
    PATH: _is_path,
    INTEGER: lambda v: type(v) is int,
    COUNT: lambda v: type(v) is int and 1 <= v <= MAX_COUNT,
    NUMBER: lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
}

SCHEMA = {
    "command": STRING,
    "seed": INTEGER,
    "n_samples": COUNT,
    "suite": STRING,
    "out_dir": PATH,
    "fit_window": {"q_lo": NUMBER, "q_hi": NUMBER, "grid_size": COUNT, "min_points": COUNT},
    "network": {
        "input_dim": COUNT,
        "widths": [COUNT],
        "activation": STRING,
        "priors": [{"family": STRING, "beta_w": NUMBER, "scale_policy": STRING}],
    },
    "distribution": {"family": STRING, "params": NUMBER_MAP},
}


def validate(value, kind=SCHEMA, path: str = "config") -> None:
    """Raise ConfigError naming the dotted path where ``value`` does not match ``kind``.

    Value ranges other than the count bound are checked by the objects built from the config.
    """
    if isinstance(kind, dict) or kind == NUMBER_MAP:
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be an object")
        fields = dict.fromkeys(value, NUMBER) if kind == NUMBER_MAP else kind
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise ConfigError(f"unknown key(s) in {path}: {unknown}")
        for key, item in value.items():
            validate(item, fields[key], f"{path}.{key}")
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{path}' must be a list")
        for i, item in enumerate(value):
            validate(item, kind[0], f"{path}[{i}]")
    elif not _LEAF_TESTS[kind](value):
        raise ConfigError(f"{path} must be {kind}, got {value!r}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an integer too long, nesting too deep
        raise ConfigError(f"cannot parse config as JSON: {exc}") from exc
    validate(cfg)
    return cfg


def parse_fit_window(cfg: dict) -> FitWindow:
    return FitWindow(**cfg.get("fit_window", {}))


def parse_network(cfg: dict, seed: int, n_samples: int) -> NetworkConfig:
    raw = cfg.get("network")
    if raw is None:
        raise ConfigError("bnn command needs a 'network' section")
    priors = []
    for p in raw.get("priors", []):
        family = p.get("family", "gaussian")
        beta_w = p.get("beta_w", FIXED_TAIL_BETA.get(family, 2.0))  # LayerPrior refuses an unknown family
        priors.append(LayerPrior(family, float(beta_w), p.get("scale_policy", "inv_sqrt_fan_in")))
    activation = raw.get("activation", "relu")
    if activation == "tanh":  # bounded: the depth rule assumes ReLU-like linear growth
        raise ConfigError("config.network.activation 'tanh' is refused: the depth rule holds for relu and identity")
    return NetworkConfig(
        input_dim=raw.get("input_dim", 0),
        widths=tuple(raw.get("widths", ())),
        layer_priors=tuple(priors),
        activation=activation,
        n_samples=n_samples,
        seed=seed,
    )


def parse_distribution(cfg: dict) -> DistributionSpec | None:
    raw = cfg.get("distribution")
    if raw is None:
        return None
    params = {k: float(v) for k, v in raw.get("params", {}).items()}
    return DistributionSpec(raw.get("family"), params)


# ----------------------------- output ---------------------------------


def _json_default(value):
    """numpy arrays and scalars as the lists and numbers json writes; anything else is refused."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_bundle(out_dir: str, summary: dict, curves: dict) -> None:
    """Atomically write summary.json and curves.csv into out_dir.

    ``curves`` maps each label to the (k, 2) log-log points its estimate was
    fitted on. This is the one place numpy values become JSON or CSV text.
    """
    payloads = {
        "summary.json": json.dumps(summary, indent=2, default=_json_default) + "\n",
        "curves.csv": "label,log_x,log_neg_log_survival\n"
        + "".join(f"{label},{lx:.17g},{ly:.17g}\n" for label, pts in curves.items() for lx, ly in pts.tolist()),
    }
    os.makedirs(out_dir, exist_ok=True)
    staged = []
    try:
        for name, text in payloads.items():
            tmp = os.path.join(out_dir, f".{name}.{os.urandom(6).hex()}")
            # "x" creates the file exclusively with mode 0o666 less the umask; mkstemp's is 0o600
            with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
                staged.append((tmp, os.path.join(out_dir, name)))
                fh.write(text)
        # rename only after every payload is staged: no partial bundles
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


# ----------------------------- commands --------------------------------


def cmd_bnn_experiment(cfg: dict, out_dir: str, seed: int, n_samples: int, workers: int) -> int:
    window = parse_fit_window(cfg)
    netcfg = parse_network(cfg, seed, n_samples)
    trace = run_prior_monte_carlo(netcfg, workers)
    layers = []
    curves = {}
    for l in range(netcfg.depth):
        predicted = predicted_tail_parameter(netcfg.layer_priors, l + 1)
        samples = trace.g[l]
        if trace.overflow_replicates.size:
            samples = samples[np.isfinite(samples)]
        # the depth rule composes products harmonically; the rule name is not serialized
        report = judge_tail(RULE_PRODUCT_HARMONIC, predicted, samples, "right", window)
        layers.append(
            {
                "layer": l + 1,
                "predicted_beta": predicted,
                **asdict(report.estimated),
                "tolerance": report.tolerance,
                "within_tolerance": report.passed,
            }
        )
        curves[f"layer{l + 1}"] = report.points
    summary = {
        "command": "bnn",
        "seed": seed,
        "n_samples": n_samples,
        "network": {
            "input_dim": netcfg.input_dim,
            "widths": netcfg.widths,
            "activation": netcfg.activation,
            "priors": [
                {"family": p.family, "beta_w": p.tail_beta_w, "scale_policy": p.scale_policy}
                for p in netcfg.layer_priors
            ],
        },
        "fit_window": asdict(window),
        "degenerate_input": trace.degenerate_input,
        "overflow_count": trace.overflow_replicates.size,
        "layers": layers,
    }
    write_bundle(out_dir, summary, curves)
    print(f"{'layer':>5} {'predicted':>10} {'estimated':>10} {'stderr':>8}  in-band")
    for rec in layers:
        print(
            f"{rec['layer']:>5} {rec['predicted_beta']:>10.4f} {rec['beta_hat']:>10.4f} "
            f"{rec['stderr_slope']:>8.4f}  {'yes' if rec['within_tolerance'] else 'NO'}"
        )
    return 0


# characters of stdin lines read and converted per batch
_STDIN_BATCH_CHARS = 1 << 16
_QUOTE_CHARS = 80


def _quote(text: str) -> str:
    """repr() of ``text``, cut to its first _QUOTE_CHARS characters when longer."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def _parse_lines(lines: list, first_lineno: int) -> list:
    """float() of each line, by the per-line rules; ``first_lineno`` numbers ``lines[0]``.

    float() ignores surrounding whitespace itself, so most lines need no
    strip(); strip() also removes the separators U+001C..U+001F, which
    float() refuses, so a failed line is parsed once more after stripping.
    Blank lines are skipped but still counted.
    """
    values = []
    for lineno, line in enumerate(lines, start=first_lineno):
        try:
            values.append(float(line))
        except ValueError:
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ConfigError(f"unparseable sample on line {lineno}: {_quote(text)}") from None
    return values


def _read_stdin_samples(stream) -> np.ndarray:
    def batches():
        # a clean batch is converted by map() in C, with no Python frame per line;
        # a batch with any line float() refuses is parsed again by the per-line rules
        lineno = 1
        while lines := stream.readlines(_STDIN_BATCH_CHARS):
            try:
                yield list(map(float, lines))
            except ValueError:
                yield _parse_lines(lines, lineno)
            lineno += len(lines)

    # fromiter fills a float64 buffer directly; one batch of Python floats is alive at a time
    try:
        return np.fromiter(itertools.chain.from_iterable(batches()), dtype=np.float64)
    except UnicodeDecodeError as exc:  # raised by the stream itself, a chunk at a time
        raise ConfigError(f"stdin is not valid UTF-8: {exc}") from None


def cmd_estimate_tail(cfg: dict, out_dir: str, seed: int, n_samples: int, stdin=None) -> int:
    window = parse_fit_window(cfg)
    spec = parse_distribution(cfg)
    if spec is not None:
        samples = sample_iid(spec, n_samples, RngStream(seed))
        label = spec.family
    else:
        samples = _read_stdin_samples(stdin if stdin is not None else sys.stdin)
        label = "samples"
    # the command owns its samples: the fold partitions them in place and keeps the window's top block
    est, pts = estimate_with_points(samples, "right", window, overwrite=True)
    summary = {
        "command": "estimate",
        "seed": seed,
        "n": samples.size,
        "label": label,
        **asdict(est),
    }
    write_bundle(out_dir, summary, {label: pts})
    print(f"beta_hat = {est.beta_hat:.4f} (stderr {est.stderr_slope:.4f}, {est.fit_points} points)")
    return 0


def cmd_closure_suite(cfg: dict, out_dir: str, seed: int, n_samples: int) -> int:
    suite = cfg.get("suite", "all")
    window = parse_fit_window(cfg)
    reports = []
    curves = {}
    for result in closure_suite(suite, seed, n_samples, window):
        reports.append(result.to_dict())
        if result.points is not None:
            curves[result.name] = result.points
        print(f"{result.name:<34} {reports[-1]['verdict']}")
    summary = {
        "command": "closure",
        "suite": suite,
        "seed": seed,
        "n_samples": n_samples,
        "reports": reports,
    }
    write_bundle(out_dir, summary, curves)
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
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads = os.environ.get("GWT_LAB_THREADS") or "1"
        try:
            workers = int(threads)
        except ValueError:
            raise ConfigError(f"GWT_LAB_THREADS must be an integer, got {threads!r}") from None
        cfg = load_config(args.config) if args.config else {}
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(f"config declares command {declared!r}, invoked {args.command!r}")
        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is None and args.command == "estimate" and "distribution" not in cfg:
            seed = 0  # no randomness consumed when samples come from stdin
        if seed is None:
            raise ConfigError("a seed is required (config 'seed' or --seed)")
        seed = RngStream(seed).seed  # refuses a seed outside 0..2**64 - 1
        n_samples = cfg.get("n_samples", DESK_SCALE_N)
        out_dir = args.out or cfg.get("out_dir") or DEFAULT_OUT_DIR
        validate(out_dir, PATH, "--out")  # main(argv) can pass what no shell can
        if args.command == "bnn":
            return cmd_bnn_experiment(cfg, out_dir, seed, n_samples, workers)
        if args.command == "estimate":
            return cmd_estimate_tail(cfg, out_dir, seed, n_samples)
        return cmd_closure_suite(cfg, out_dir, seed, n_samples)
    except (ConfigError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OverflowAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InsufficientDataError, DegenerateTailError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
