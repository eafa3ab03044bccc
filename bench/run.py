"""gwt-lab benchmark: run one workload through the real CLI and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --trace 0|1   # each workload in turn
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

Run from the repository root. ``--trace 0`` launches fresh
``python -m gwt_lab.cli`` processes (``src`` on PYTHONPATH) for ``--seconds``
seconds, each paired with a fresh-interpreter import probe, and prints the
end-to-end metrics. ``--trace 1`` runs the CLI in-process, untraced and then
once traced, and prints the per-layer metrics. Every run's bundle is
checked; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each invocation also
appends a result record to ``--record`` for ``--compare``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
DEFAULT_RECORD = WORK_ROOT / "results.jsonl"
PROCESS_TIMEOUT_S = 150
# in-process untraced runs whose median the traced run is compared against
UNTRACED_REFERENCE_RUNS = 2

sys.path.insert(0, str(BENCH_DIR))

from gwtbench.checks import bundle_digests, check_bundle  # noqa: E402
from gwtbench.compare import compare, format_rows  # noqa: E402
from gwtbench.workloads import FLAGSHIP_INPUT_DIM, FLAGSHIP_WIDTHS, WORKLOADS, write_inputs  # noqa: E402


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env(workers: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), GWT_LAB_THREADS=str(workers))


def launch(argv: list[str], env: dict, stdin_path: Path | None, stderr_path: Path):
    """Run argv to completion; return (wall seconds, exit status, peak RSS in MB).

    The peak RSS comes from the child's rusage, which covers the pool
    workers it waited for.
    """
    with contextlib.ExitStack() as stack:
        stdin = stack.enter_context(open(stdin_path, "rb")) if stdin_path else subprocess.DEVNULL
        stderr = stack.enter_context(open(stderr_path, "wb"))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=stdin, stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def digest_failures(digests: list[dict]) -> int:
    """Runs whose bundle bytes differ from the first checked run's."""
    return sum(1 for d in digests[1:] if d != digests[0])


def run_untraced(workload, seed, seconds, scale, work, cfg_path, stdin_path, refit):
    env = child_env(workload.workers)
    python = sys.executable
    # no warm-up probe: this process has imported gwt_lab already, which
    # filled the bytecode and page caches
    probe = [python, "-c", "import gwt_lab.cli"]
    walls, setups, rss, digests, problems = [], [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    # start another iteration only if one more of mean length still fits
    while not walls or time.perf_counter() + (time.perf_counter() - start) / len(walls) <= deadline:
        setup, status, _ = launch(probe, env, None, work / "probe.err")
        if status != 0:
            raise RuntimeError(f"import probe exited {status}: {(work / 'probe.err').read_text()[-2000:]}")
        setups.append(setup)
        out = work / f"out{len(walls)}"
        argv = [python, "-m", "gwt_lab.cli", *workload.argv(cfg_path, out, seed)]
        wall, status, peak = launch(argv, env, stdin_path, work / "cli.err")
        walls.append(wall)
        rss.append(peak)
        found = check_bundle(out, status, refit)
        if found:
            problems.append(found + [(work / "cli.err").read_text()[-2000:]])
        else:
            digests.append(bundle_digests(out))
        shutil.rmtree(out, ignore_errors=True)
    failed = len(problems) + digest_failures(digests)
    wall_s, setup_s = median(walls), median(setups)
    metrics = {
        "wall_s": wall_s,
        "work_per_s": workload.units(scale) / (wall_s - setup_s),
        "setup_s": setup_s,
        "peak_rss_mb": median(rss),
        "ok_frac": 1.0 - failed / len(walls),
    }
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    return len(walls), failed, metrics, samples, digests, problems


@contextlib.contextmanager
def _workers(n: int):
    old = os.environ.get("GWT_LAB_THREADS")
    os.environ["GWT_LAB_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["GWT_LAB_THREADS"]
        else:
            os.environ["GWT_LAB_THREADS"] = old


def in_process(argv: list[str], stdin_path: Path | None) -> tuple[float, int]:
    """One gwt_lab.cli.main call at one worker; returns (wall seconds, exit status)."""
    from gwt_lab import cli

    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(_workers(1))
        old_stdin = sys.stdin
        if stdin_path:
            sys.stdin = stack.enter_context(open(stdin_path, encoding="utf-8"))
        try:
            start = time.perf_counter()
            status = cli.main(argv)
            return time.perf_counter() - start, status
        finally:
            sys.stdin = old_stdin


def pool_check(cfg: dict, seed: int):
    """Pool efficiency t1 / (2 t2) of the Monte Carlo, and whether 1 and 2 workers agree bitwise."""
    from gwt_lab.bnn_sampler import run_prior_monte_carlo
    from gwt_lab.cli import parse_network

    netcfg = parse_network(cfg, seed, cfg["n_samples"])
    times, traces = [], []
    with _workers(2):
        for workers in (1, 2):
            start = time.perf_counter()
            traces.append(run_prior_monte_carlo(netcfg, workers=workers))
            times.append(time.perf_counter() - start)
    one, two = traces
    same = all(a.tobytes() == b.tobytes() for a, b in zip(one.g + one.h, two.g + two.h)) and (
        one.overflow_replicates.tobytes() == two.overflow_replicates.tobytes()
    )
    return times[0] / (2.0 * times[1]), same


def expected_counts(workload, scale, m: dict) -> list[str]:
    """Exact counts the traced run must reproduce; returns the mismatches."""
    n = workload.size(scale)
    if workload.command == "bnn":
        widths = (FLAGSHIP_INPUT_DIM, *FLAGSHIP_WIDTHS)
        per_replicate = sum(a * b for a, b in zip(widths[:-1], widths[1:]))  # 10^4*4 + 3*16
        # one generator and input_dim variates more for the fixed input of make_input
        want = {
            "rng.generator_calls": n + 1,
            "rng.variates": n * per_replicate + FLAGSHIP_INPUT_DIM,
            "tail_estimation.grids_per_estimate": 2.0,
            "tail_estimation.estimates": len(FLAGSHIP_WIDTHS),
        }
    elif workload.command == "estimate":
        want = {
            "cli.stdin_lines": n,
            "tail_estimation.values_folded": n,
            "tail_estimation.grids_per_estimate": 2.0,
            "rng.generator_calls": 0,
        }
    else:
        want = {"closure_lab.checks": 11, "closure_lab.pd_calls": 11}
    return [f"{k}: {m[k]!r} != expected {v!r}" for k, v in want.items() if m[k] != v]


def run_traced(workload, seed, scale, work, cfg_path, stdin_path, refit):
    from gwtbench.tracing import Tracer, import_seconds, installed, layer_metrics

    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    untraced, digests, problems = [], [], []

    def once(tag):
        out = work / f"out-{tag}"
        wall, status = in_process(workload.argv(cfg_path, out, seed), stdin_path)
        found = check_bundle(out, status, refit)
        if found:
            problems.append([tag] + found)
        else:
            digests.append(bundle_digests(out))
        shutil.rmtree(out, ignore_errors=True)
        return wall

    for i in range(UNTRACED_REFERENCE_RUNS):
        untraced.append(once(f"untraced{i}"))
    tracer = Tracer(f"{workload.name}-seed{seed}")
    with installed(tracer):
        traced_wall = once("traced")
    metrics = layer_metrics(tracer)
    metrics["cli.stdin_lines"] = _count_lines(stdin_path) if stdin_path else 0
    metrics["trace.overhead_s"] = traced_wall - median(untraced)
    imports = import_seconds(sys.executable, child_env(1), ROOT)
    metrics["tail_distributions.import_s"] = imports["gwt_lab.tail_distributions"]
    metrics["bnn_sampler.pool_efficiency"] = 0.0
    if workload.command == "bnn":
        metrics["bnn_sampler.pool_efficiency"], same = pool_check(cfg, seed)
        if not same:
            problems.append(["traces at 1 and 2 workers differ"])
    mismatches = expected_counts(workload, scale, metrics)
    if mismatches:
        problems.append(["traced counts"] + mismatches)
    tracer.write(WORK_ROOT / f"spans-{workload.name}-seed{seed}.jsonl")
    attempted = UNTRACED_REFERENCE_RUNS + 1
    failed = min(attempted, len(problems) + digest_failures(digests))
    samples = {"untraced_wall_s": untraced, "traced_wall_s": [traced_wall]}
    return attempted, failed, metrics, samples, digests, problems


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def run_workload(args) -> int:
    if not (SRC / "gwt_lab" / "cli.py").is_file():
        print(f"error: no gwt_lab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from gwt_lab import refit_beta_from_points

    workload = WORKLOADS[args.workload]
    spec = declared()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        cfg_path, stdin_path = write_inputs(workload, args.seed, args.scale, work)
        stdin_digest = _sha256(stdin_path) if stdin_path else None
        if args.trace:
            result = run_traced(workload, args.seed, args.scale, work, cfg_path, stdin_path,
                                refit_beta_from_points)
        else:
            result = run_untraced(workload, args.seed, args.seconds, args.scale, work, cfg_path,
                                  stdin_path, refit_beta_from_points)
        attempted, failed, metrics, samples, digests, problems = result
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    out = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
        "samples": samples,
        "problems": problems,
        "run": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "workers": 1 if args.trace else workload.workers,
            "workload_seed": args.seed,
            "stdin_sha256": stdin_digest,
            "bundle_sha256": digests[0] if digests else None,
            "trace_overhead_s": metrics.get("trace.overhead_s"),
        },
    }
    record_path = Path(args.record)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with open(record_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in problems:
        print("FAILED CHECK: " + " | ".join(problem).replace("\n", " ")[:2000], file=sys.stderr)
    print(f"{workload.name}: {attempted - failed}/{attempted} runs passed every output check")
    for name, value in out.items():
        print(f"{workload.name:<15} {name:<40} {value['value']:>16.6g} {value['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' only exercises the code paths")
    parser.add_argument("--record", default=str(DEFAULT_RECORD), help="result file to append to")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two result files")
    args = parser.parse_args(argv)
    if args.compare:
        print(format_rows(compare(Path(args.compare[0]), Path(args.compare[1]), declared()["end_to_end"])))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    if args.workload != "all":
        return run_workload(args)
    for args.workload in WORKLOADS:
        status = run_workload(args)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
