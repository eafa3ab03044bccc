"""Compare two result files (parent and change), one row per workload x metric.

Verdicts follow the rule the benchmark is judged by:

* ``improved``: the change wins at least 9 in 10 of the seed-matched pairs
  (ties count for neither side) and the medians differ, in the better
  direction, by more than the parent's interquartile range;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the metric's bound, and not every change run
  beats every parent run;
* ``worse``: the change median is worse than the parent median by more
  than the bound;
* ``no worse``: otherwise.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced result records of a result file, by workload."""
    runs = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                runs[rec["workload"]].append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], pairs, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound and not all_better:
        return "unresolved"
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    return "no worse"


def compare(parent_path: Path, change_path: Path, metrics: list[dict]) -> list[dict]:
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for metric in metrics:
            name = metric["name"]
            p_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in parent[workload]}
            c_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in change[workload]}
            pairs = [(p_by_seed[s], c_by_seed[s]) for s in sorted(p_by_seed.keys() & c_by_seed.keys())]
            p_vals, c_vals = list(p_by_seed.values()), list(c_by_seed.values())
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "parent": quartiles(p_vals),
                "change": quartiles(c_vals),
                "runs": (len(p_vals), len(c_vals)),
                "pairs": len(pairs),
                "verdict": verdict(p_vals, c_vals, pairs, metric["better"], metric["bound"]),
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<15} {'metric':<12} {'unit':<5} {'parent median [q1, q3]':>34} "
             f"{'change median [q1, q3]':>34} {'runs':>7} {'verdict':>10}"]
    for r in rows:
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        lines.append(
            f"{r['workload']:<15} {r['metric']:<12} {r['unit']:<5} "
            f"{pm:>12.5g} [{p1:>8.5g}, {p3:>8.5g}] {cm:>12.5g} [{c1:>8.5g}, {c3:>8.5g}] "
            f"{r['runs'][0]:>3}/{r['runs'][1]:<3} {r['verdict']:>10}"
        )
    return "\n".join(lines)
