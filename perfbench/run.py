#!/usr/bin/env python3
"""Certification benchmark of extremal_marginals: one workload per run.

    python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 40 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy. Every family certified and every
CLI call is checked, and a wrong result counts as a failed item.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. The line before it holds the
run's details under ``"perfbench"``: provenance, sample counts, raw values,
verdict counts and the first failures. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
SETUP_PER_ROUND = 2
IMPORT_RUNS = 3
CHILD_TIMEOUT_S = 150
MAX_ERRORS_SHOWN = 20


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument(
        "--setup-only", action="store_true", help="import the package, build the inputs and exit"
    )
    return p.parse_args(argv)


def import_package() -> None:
    """Put ``src/`` first on the path and make sure the package comes from there."""
    if not (SRC / "extremal_marginals" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import extremal_marginals

    if Path(extremal_marginals.__file__).resolve().parent != SRC / "extremal_marginals":
        raise SystemExit(f"error: extremal_marginals imported from {extremal_marginals.__file__}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str]) -> tuple[float, int, str, str]:
    """Run ``python <args>`` from the checkout root; return wall seconds, exit code, stdout, stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def setup_child(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the package and builds the inputs."""
    cmd = [str(BENCH / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    dt, code, _, err = run_child(cmd)
    if code != 0:
        raise SystemExit(f"error: set-up failed with exit code {code}:\n{err}")
    return dt


def measure_import_ms() -> list[float]:
    code = (
        "import time; t = time.perf_counter(); import extremal_marginals.cli; "
        "print((time.perf_counter() - t) * 1000.0)"
    )
    out = []
    for _ in range(IMPORT_RUNS):
        _, rc, stdout, err = run_child(["-c", code])
        if rc != 0:
            raise SystemExit(f"error: importing the CLI failed:\n{err}")
        out.append(float(stdout))
    return out


def cli_round(calls: list[list[str]]) -> tuple[float, list[str]]:
    """Run each CLI call in a fresh interpreter; return summed wall time and failures."""
    from workloads import check_cli

    total, failures = 0.0, []
    for argv in calls:
        label = "extmarg " + " ".join(argv)
        try:
            dt, code, out, _ = run_child(["-m", "extremal_marginals", *argv])
        except subprocess.TimeoutExpired:
            total += CHILD_TIMEOUT_S
            failures.append(f"{label}: timed out after {CHILD_TIMEOUT_S} s")
            continue
        total += dt
        failures += [f"{label}: {p}" for p in check_cli(code, out)]
    return total, failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        if "__pycache__" not in path.parts:
            h.update(path.relative_to(top).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD read from ``.git`` directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> tuple[str | None, int | None]:
    """OpenBLAS version and the thread count it chose, when numpy bundles it."""
    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        version = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def provenance(seed: int) -> dict:
    import numpy as np

    blas_version, blas_threads = blas_info()
    return {
        "git_commit": git_commit(ROOT),
        "src_sha256": tree_digest(SRC),
        "bench_sha256": tree_digest(BENCH),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "argv": sys.argv,
    }


def measure(seconds: float, one_round: Callable[[], None], min_rounds: int) -> int:
    """Call ``one_round()`` until the next round would pass the deadline, at least ``min_rounds`` times."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        t0 = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - t0) > deadline:
            return rounds


def untraced_run(name: str, wl, seed: int, seconds: float) -> tuple[dict, dict]:
    """Rounds of one pass, one round of CLI calls and SETUP_PER_ROUND set-ups.

    Spreading the set-ups over the run, instead of making them all first,
    keeps a slow spell of the machine from deciding ``setup_s``.
    """
    import workloads

    setup_child(name, seed)  # compiles bytecode and warms the page cache; not timed
    items = wl.build(seed)
    calls = wl.cli_calls(seed)
    workloads.run_pass(items[: wl.warmup])
    setup, passes, cli_times, per_item, failures, counts = [], [], [], [], [], {}
    attempted = 0

    def one_round() -> None:
        nonlocal attempted, counts
        res = workloads.run_pass(items)
        cli_s, cli_failures = cli_round(calls)
        setup.extend(setup_child(name, seed) for _ in range(SETUP_PER_ROUND))
        passes.append(res.seconds)
        cli_times.append(cli_s)
        per_item.append(res.latencies_ms)
        failures.extend(res.failures + cli_failures)
        attempted += len(items) + len(calls)
        counts = dict(res.counts)

    measure(seconds, one_round, MIN_ROUNDS)
    # Each family's median over the passes, so one slow pass cannot make the tail.
    latencies = [statistics.median(x) for x in zip(*per_item)]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "cli_s": (statistics.median(cli_times), "s"),
        "certify_p50_ms": (statistics.median(latencies), "ms"),
        "certify_p99_ms": (percentile(latencies, 0.99), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    details = {
        "samples": {
            "setup": len(setup),
            "passes": len(passes),
            "cli_rounds": len(cli_times),
            "families": len(latencies),
            "beyond_p99": sum(x > metrics["certify_p99_ms"][0] for x in latencies),
        },
        "raw": {"setup_s": setup, "pass_s": passes, "cli_s": cli_times},
        "counts": counts,
        "attempted": attempted,
        "failures": failures,
    }
    return metrics, details


def traced_run(name: str, wl, seed: int, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes, then run the CLI calls in-process under a trace."""
    import layers
    import workloads
    from extremal_marginals import cli
    from tracer import Tracer

    import_ms = measure_import_ms()
    with Tracer() as tr:
        layers.install_layers(tr)
        items = wl.build(seed)
    construct_ms = tr.busy_ms()["families.construct"]
    calls = wl.cli_calls(seed)
    workloads.run_pass(items[: wl.warmup])
    plain, traced, per_pass, failures = [], [], [], []
    attempted = 0

    def plain_pass() -> None:
        res = workloads.run_pass(items)
        plain.append(res.seconds)
        failures.extend(res.failures)

    def traced_pass() -> None:
        with Tracer() as tr:
            layers.install_layers(tr)
            res = workloads.run_pass(items)
        traced.append(res.seconds)
        per_pass.append(layers.pass_metrics(tr, res.seconds))
        failures.extend(res.failures)

    def one_round() -> None:
        nonlocal attempted
        # Alternate which pass goes first, so neither always runs on a warmer machine.
        order = (plain_pass, traced_pass) if len(plain) % 2 == 0 else (traced_pass, plain_pass)
        for step in order:
            step()
        attempted += 2 * len(items)

    rounds = measure(seconds, one_round, MIN_TRACED_ROUNDS)

    with Tracer() as cli_tr:
        layers.install_cli(cli_tr)
        for argv in calls:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            failures += [f"extmarg {' '.join(argv)}: {p}" for p in workloads.check_cli(code, out.getvalue())]
            attempted += 1

    values = layers.median_metrics(per_pass)
    values["families.construct_ms"] = construct_ms
    values["cli.import_ms"] = statistics.median(import_ms)
    values["cli.report_json_ms"] = cli_tr.busy_ms()["cli.report_json"]
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["error_rate"] = len(failures) / attempted
    metrics = {k: (v, layers.unit_of(k)) for k, v in values.items()}
    details = {
        "samples": {"rounds": rounds, "import": len(import_ms)},
        "raw": {"untraced_pass_s": plain, "traced_pass_s": traced, "cli_import_ms": import_ms},
        "attempted": attempted,
        "failures": failures,
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        wl.build(args.seed)
        return 0
    run = traced_run if args.trace else untraced_run
    metrics, details = run(args.workload, wl, args.seed, args.seconds)
    attempted, failures = details.pop("attempted"), details.pop("failures")
    details.update(
        workload=args.workload,
        trace=args.trace,
        provenance=provenance(args.seed),
        error_rate=len(failures) / attempted,
        failed=len(failures),
        failures=failures[:MAX_ERRORS_SHOWN],
    )
    print(json.dumps({"perfbench": details}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
