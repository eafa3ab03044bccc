"""Per-layer tracing of gwt-lab from outside its source.

``installed(tracer)`` rebinds each layer's public entry points, in every
``gwt_lab`` module that imported them, to wrappers that record a span
(name, start, end, parent, run id) and a few counts. Generators returned
by ``RngStream.generator`` are wrapped in a proxy that times and counts
every draw. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from .checks import BUNDLE_FILES


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class CountingGenerator:
    """Proxy of a numpy Generator that records a span and a count per draw."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            out = tracer.call("rng.draw", attr, args, kwargs)
            tracer.counts["rng.variates"] += int(np.size(out))
            return out

        return draw


def _count(key, measure):
    def on_result(counts, args, result):
        counts[key] += measure(args, result)

    return on_result


def _bundle_bytes(args, _result):
    out_dir = Path(args[0])
    return sum((out_dir / name).stat().st_size for name in BUNDLE_FILES)


def _monte_carlo(counts, _args, trace):
    counts["bnn_sampler.replicates"] += trace.n_samples
    counts["bnn_sampler.overflows"] += int(trace.overflow_replicates.size)


CHECK_SPAN = "closure_lab.check"
CONFIG_SPAN = "cli.config"
COMMAND_SPAN = "cli.command"

# (module that defines it, attribute, span name, count hook)
MODULE_HOOKS = [
    ("gwt_lab.tail_distributions", "sample_iid", "tail_distributions.sample_iid",
     _count("tail_distributions.samples", lambda a, r: int(np.size(r)))),
    ("gwt_lab.tail_estimation", "loglog_points", "tail_estimation.loglog_points", None),
    ("gwt_lab.tail_estimation", "estimate_tail_index", "tail_estimation.estimate_tail_index",
     _count("tail_estimation.estimates", lambda a, r: 1)),
    ("gwt_lab.bnn_sampler", "make_input", "bnn_sampler.make_input", None),
    ("gwt_lab.bnn_sampler", "run_prior_monte_carlo", "bnn_sampler.run_prior_monte_carlo", _monte_carlo),
    ("gwt_lab.closure_lab", "check_sum_rule", CHECK_SPAN, None),
    ("gwt_lab.closure_lab", "check_product_rule", CHECK_SPAN, None),
    ("gwt_lab.closure_lab", "check_power_rule", CHECK_SPAN, None),
    ("gwt_lab.closure_lab", "negative_control_truncation", CHECK_SPAN, None),
    ("gwt_lab.closure_lab", "estimate_pd_constant", "closure_lab.estimate_pd_constant", None),
    ("gwt_lab.closure_lab", "weight_unit_product_samples", "closure_lab.weight_unit_product_samples", None),
    ("gwt_lab.cli", "load_config", CONFIG_SPAN, None),
    ("gwt_lab.cli", "parse_fit_window", CONFIG_SPAN, None),
    ("gwt_lab.cli", "parse_network", CONFIG_SPAN, None),
    ("gwt_lab.cli", "parse_distribution", CONFIG_SPAN, None),
    ("gwt_lab.cli", "cmd_bnn_experiment", COMMAND_SPAN, None),
    ("gwt_lab.cli", "cmd_estimate_tail", COMMAND_SPAN, None),
    ("gwt_lab.cli", "cmd_closure_suite", COMMAND_SPAN, None),
    ("gwt_lab.cli", "write_bundle", "cli.write_bundle", _count("cli.bundle_bytes", _bundle_bytes)),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every hooked gwt_lab entry point through ``tracer`` while active."""
    from gwt_lab.rng import RngStream
    from gwt_lab.tail_estimation import EmpiricalTail

    undo = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for home, attr, span, hook in MODULE_HOOKS:
            original = getattr(importlib.import_module(home), attr)
            wrapped = tracer.wrap(span, original, hook)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "gwt_lab" and getattr(module, attr, None) is original:
                    rebind(module, attr, wrapped)

        generator = RngStream.__dict__["generator"]

        def counting_generator(stream):
            return CountingGenerator(tracer.call("rng.generator", generator, (stream,)), tracer)

        rebind(RngStream, "generator", counting_generator)
        from_samples = EmpiricalTail.__dict__["from_samples"].__func__
        rebind(EmpiricalTail, "from_samples", classmethod(tracer.wrap(
            "tail_estimation.from_samples", from_samples,
            _count("tail_estimation.values_folded", lambda a, r: r.n))))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy time, self time and counts from one traced run."""
    covered = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, start, end, _parent) in enumerate(tracer.spans):
        total[name] += end - start
        own[name] += end - start - covered[i]
        calls[name] += 1
    c = tracer.counts
    mc = "bnn_sampler.run_prior_monte_carlo"
    replicates = c["bnn_sampler.replicates"]
    grid = "tail_estimation.loglog_points"
    estimates = c["tail_estimation.estimates"]
    pd = "closure_lab.estimate_pd_constant"

    def per(num, den):
        return num / den if den else 0.0

    return {
        "rng.generator_calls": calls["rng.generator"],
        "rng.generator_s": total["rng.generator"],
        "rng.variates": c["rng.variates"],
        "rng.draw_s": total["rng.draw"],
        "bnn_sampler.monte_carlo_s": total[mc],
        "bnn_sampler.us_per_replicate": per(total[mc] * 1e6, replicates),
        "bnn_sampler.self_s": own[mc],
        "bnn_sampler.overflow_frac": per(c["bnn_sampler.overflows"], replicates),
        "tail_distributions.sample_s": total["tail_distributions.sample_iid"],
        "tail_distributions.samples": c["tail_distributions.samples"],
        "tail_estimation.fold_sort_s": total["tail_estimation.from_samples"],
        "tail_estimation.values_folded": c["tail_estimation.values_folded"],
        "tail_estimation.grid_s": total[grid],
        "tail_estimation.grid_calls": calls[grid],
        "tail_estimation.fit_s": own["tail_estimation.estimate_tail_index"],
        "tail_estimation.estimates": estimates,
        "tail_estimation.grids_per_estimate": per(calls[grid], estimates),
        "closure_lab.checks": calls[CHECK_SPAN],
        "closure_lab.check_self_s": own[CHECK_SPAN],
        "closure_lab.pd_s": total[pd],
        "closure_lab.pd_calls": calls[pd],
        "closure_lab.weight_unit_product_s": total["closure_lab.weight_unit_product_samples"],
        "cli.config_s": total[CONFIG_SPAN],
        "cli.command_self_s": own[COMMAND_SPAN],
        "cli.bundle_write_s": total["cli.write_bundle"],
        "cli.bundle_bytes": c["cli.bundle_bytes"],
    }


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)")


def import_seconds(python: str, env: dict, cwd: Path) -> dict[str, float]:
    """Cumulative import time of each module, from one ``-X importtime`` run."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import gwt_lab.cli"],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
    )
    return {m.group(3): int(m.group(2)) / 1e6 for m in map(_IMPORTTIME.match, proc.stderr.splitlines()) if m}
