"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from gwtbench.checks import check_bundle  # noqa: E402
from gwtbench.compare import verdict  # noqa: E402
from gwtbench.workloads import WORKLOADS, write_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, record):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args, "--record", str(record)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_names_and_workloads():
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) for name in declared)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    layer_map = json.loads((BENCH / "declarations.json").read_text(encoding="utf-8"))["layer_map"]
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke(workload, trace, tmp_path):
    result = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                    "--scale", "tiny", record=tmp_path / "r.jsonl")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    record = json.loads((tmp_path / "r.jsonl").read_text().splitlines()[-1])
    assert record["run"]["bundle_sha256"] is not None
    assert record["run"]["workload_seed"] == 1


def _estimate_bundle(tmp_path):
    from gwt_lab import cli

    workload = WORKLOADS["estimate_stdin"]
    config, stdin = write_inputs(workload, 3, "tiny", tmp_path)
    out = tmp_path / "bundle"
    with open(stdin, encoding="utf-8") as fh:
        status = cli.cmd_estimate_tail(cli.load_config(str(config)), str(out), 0, 0, stdin=fh)
    return out, status


def test_corrupted_curve_value_fails_the_check(tmp_path):
    from gwt_lab import refit_beta_from_points

    out, status = _estimate_bundle(tmp_path)
    assert check_bundle(out, status, refit_beta_from_points) == []
    corrupt = tmp_path / "corrupt"
    shutil.copytree(out, corrupt)
    lines = (corrupt / "curves.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    label, log_x, log_y = lines[10].rstrip("\n").split(",")
    lines[10] = f"{label},{log_x},{float(log_y) + 1e-3!r}\n"
    (corrupt / "curves.csv").write_text("".join(lines), encoding="utf-8")
    problems = check_bundle(corrupt, status, refit_beta_from_points)
    assert problems and "refit beta" in problems[0]


def test_missing_bundle_and_wrong_status_fail(tmp_path):
    from gwt_lab import refit_beta_from_points

    out, _ = _estimate_bundle(tmp_path)
    assert check_bundle(out, 1, refit_beta_from_points)
    (out / "summary.json").unlink()
    assert check_bundle(out, 0, refit_beta_from_points)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 10.0]

    def pairs(a, b):
        return list(zip(a, b))

    assert verdict(base, faster, pairs(base, faster), "lower", 0.1) == "improved"
    assert verdict(base, slower, pairs(base, slower), "lower", 0.1) == "worse"
    assert verdict(base, base[::-1], pairs(base, base[::-1]), "lower", 0.1) == "no worse"
    assert verdict(base, noisy, pairs(base, noisy), "lower", 0.1) == "unresolved"
    assert verdict(base, faster, pairs(base, faster), "higher", 0.1) == "worse"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "estimate_stdin", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
