"""The four benchmark workloads and the inputs each one derives from its seed.

Every workload is a real ``gwt-lab`` command line. Its config, stdin file
and CLI seed are a pure function of the benchmark's ``--seed`` argument;
the program under test only ever sees those generated inputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the paper's flagship net: a depth-4, width-4 ReLU net on a 10^4-dim input
FLAGSHIP_INPUT_DIM = 10**4
FLAGSHIP_WIDTHS = (4, 4, 4, 4)

# replicate, value and line counts per scale; "full" is what the benchmark
# measures, "tiny" only exercises every code path in the smoke test
SIZES = {
    "full": {"bnn_flagship": 5000, "bnn_laplace": 5000, "closure_full": 10**6, "estimate_stdin": 3 * 10**6},
    "tiny": {"bnn_flagship": 2000, "bnn_laplace": 2000, "closure_full": 10**5, "estimate_stdin": 10**5},
}

# the closure suite "all" reports this many verdicts, each on n sampled values
CLOSURE_CHECKS = 18


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    workers: int

    def size(self, scale: str) -> int:
        return SIZES[scale][self.name]

    def config(self, seed: int, scale: str) -> dict:
        if self.command == "bnn":
            family, beta = ("laplace", 1.0) if self.name == "bnn_laplace" else ("gaussian", 2.0)
            prior = {"family": family, "beta_w": beta, "scale_policy": "inv_sqrt_fan_in"}
            return {
                "command": "bnn",
                "seed": seed,
                "n_samples": self.size(scale),
                # a window for n in the thousands: q_hi = 0.9999 would fit on the top
                # one or two replicates and can end in an exit-4 degenerate fit
                "fit_window": {"q_lo": 0.9, "q_hi": 0.999},
                "network": {
                    "input_dim": FLAGSHIP_INPUT_DIM,
                    "widths": list(FLAGSHIP_WIDTHS),
                    "activation": "relu",
                    "priors": [prior] * len(FLAGSHIP_WIDTHS),
                },
            }
        if self.command == "closure":
            return {"command": "closure", "seed": seed, "suite": "all", "n_samples": self.size(scale)}
        return {"command": "estimate"}

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        """CLI arguments after ``python -m gwt_lab.cli``."""
        args = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.command != "estimate":
            args += ["--seed", str(seed)]
        return args

    def units(self, scale: str) -> int:
        """Work units of one run: replicates, sampled values or stdin lines."""
        if self.command == "closure":
            return self.size(scale) * CLOSURE_CHECKS
        return self.size(scale)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bnn_flagship",
            "bnn",
            "flagship Gaussian net: layer-1 weight draws in bnn_sampler and rng dominate",
            workers=2,
        ),
        Workload(
            "bnn_laplace",
            "bnn",
            "same net with Laplace priors: no exact layer-1 collapse exists, so a Gaussian-only shortcut must not move it",
            workers=2,
        ),
        Workload(
            "closure_full",
            "closure",
            "closure suite at n = 1e6 per check: closure_lab products, tail samplers and fits; bnn_sampler idle",
            workers=1,
        ),
        Workload(
            "estimate_stdin",
            "estimate",
            "3e6 samples piped on stdin: the CLI float parser and import time dominate; no sampling",
            workers=1,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, scale: str, work_dir: Path) -> tuple[Path, Path | None]:
    """Write the config and, for estimate_stdin, the stdin file into work_dir."""
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(workload.config(seed, scale)), encoding="utf-8")
    if workload.command != "estimate":
        return config_path, None
    values = np.random.default_rng(seed).standard_normal(workload.size(scale))
    stdin_path = work_dir / "stdin.txt"
    with open(stdin_path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, values.size, 10**5):
            fh.write("".join(repr(v) + "\n" for v in values[start:start + 10**5].tolist()))
    return config_path, stdin_path
