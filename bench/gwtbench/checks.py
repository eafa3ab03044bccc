"""Output checks on one gwt-lab result bundle.

A run passes only when the CLI exits with the status its own summary
implies, both bundle files exist, and every ``beta_hat`` in
``summary.json`` re-fits from its ``curves.csv`` rows to 1e-9.
"""
from __future__ import annotations

import csv
import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

BUNDLE_FILES = ("summary.json", "curves.csv")
REFIT_TOLERANCE = 1e-9


def bundle_digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in BUNDLE_FILES
        if (out_dir / name).is_file()
    }


def _fitted_estimates(summary: dict) -> dict[str, float]:
    """curves.csv label -> the beta_hat reported for the points under it."""
    command = summary.get("command")
    if command == "bnn":
        return {f"layer{rec['layer']}": rec["beta_hat"] for rec in summary["layers"]}
    if command == "estimate":
        return {summary["label"]: summary["beta_hat"]}
    if command == "closure":
        out = {}
        for rec in summary["reports"]:
            if "beta_hat" in rec:
                out[rec["name"]] = rec["beta_hat"]
            elif "tail_estimate" in rec:
                out[rec["name"]] = rec["tail_estimate"]["beta_hat"]
        return out
    raise ValueError(f"unknown command in summary: {command!r}")


def expected_status(summary: dict) -> int:
    """0, or 1 when a closure verdict failed (a statistical outcome, not a crash)."""
    if summary.get("command") == "closure":
        return 1 if any(rec["verdict"] != "pass" for rec in summary["reports"]) else 0
    return 0


def check_bundle(out_dir: Path, status: int, refit) -> list[str]:
    """Problems found in one run's bundle; an empty list means it passed.

    ``refit`` is ``gwt_lab.refit_beta_from_points``, passed in so that this
    module imports nothing from the program under test.
    """
    missing = [name for name in BUNDLE_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"exit status {status}, bundle file(s) missing: {missing}"]
    problems = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        estimates = _fitted_estimates(summary)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable summary.json: {exc!r}"]
    if status != expected_status(summary):
        problems.append(f"exit status {status}, summary implies {expected_status(summary)}")
    rows = defaultdict(list)
    with open(out_dir / "curves.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["label", "log_x", "log_neg_log_survival"]:
            problems.append("curves.csv header is wrong")
        for row in reader:
            try:
                rows[row[0]].append((float(row[1]), float(row[2])))
            except (IndexError, ValueError):
                problems.append(f"malformed curves.csv row {row!r}")
    if set(rows) != set(estimates):
        problems.append(f"curve labels {sorted(rows)} != estimates {sorted(estimates)}")
    for label in sorted(set(rows) & set(estimates)):
        try:
            beta = refit(np.asarray(rows[label]))
        except Exception as exc:  # a refit that raises is a failed check, not a crash
            problems.append(f"{label}: refit raised {exc!r}")
            continue
        if not abs(beta - estimates[label]) <= REFIT_TOLERANCE:
            problems.append(f"{label}: refit beta {beta!r} != reported {estimates[label]!r}")
    return problems
