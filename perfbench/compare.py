#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run: the standard output of
``perfbench/run.py`` (``perfbench/sweep.py`` writes them). Runs of the two
sides are paired by workload, trace flag and seed. Results are compared
only when their provenance agrees on everything but the program: Python,
numpy, OpenBLAS and its thread count, CPU count and the benchmark's own
code.

Per workload and metric it prints each side's median and quartiles, the
share of pairs the change won (ties count for neither side) and a verdict:

* improved: at least ten pairs, the change won at least nine tenths of
  them, and the medians differ by more than the parent's quartile spread;
* worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
* unresolved: the parent's own spread is wider than the bound, unless every
  change run beat every parent run;
* within bound: none of the above.

Exits 1 when any bounded metric is worse, 2 when provenance disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("python", "numpy", "openblas", "blas_threads", "nproc", "cpus_usable", "bench_sha256")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_run(path: Path) -> dict:
    """One run's details and metric values from its saved standard output."""
    lines = [line for line in path.read_text().splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError(f"{path}: no benchmark result in it")
    details = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    return {
        "key": (details["workload"], details["trace"]),
        "seed": details["provenance"]["seed"],
        "provenance": details["provenance"],
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def load_runs(top: Path) -> list[dict]:
    return [load_run(p) for p in sorted(top.iterdir()) if p.is_file()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.4g}, {q3:.4g}]"


def provenance_mismatches(runs: list[dict]) -> list[str]:
    out = []
    for key in ENV_KEYS:
        seen = {json.dumps(r["provenance"].get(key)) for r in runs}
        if len(seen) > 1:
            out.append(f"{key}: {', '.join(sorted(seen))}")
    return out


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], lower: bool, bound: float | None) -> tuple[str, int]:
    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    wins = sum(better(c, p) for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = (pm - cm) if lower else (cm - pm)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        return "improved", wins
    if bound is None:
        return "-", wins
    if pm and -gain / abs(pm) > bound:
        return "worse", wins
    all_better = all(better(c, p) for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", wins
    return "within bound", wins


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--benchmark", type=Path, default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = ap.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    rules = {m["name"]: (m["better"] == "lower", m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    bad = provenance_mismatches(parent + change)
    if bad:
        print("provenance differs; results are not comparable:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 2

    worse = False
    print(f"{'workload':<18} {'metric':<32} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} {'won':>7}  verdict")
    for key in sorted({r["key"] for r in parent} & {r["key"] for r in change}):
        ps = {r["seed"]: r for r in parent if r["key"] == key}
        cs = {r["seed"]: r for r in change if r["key"] == key}
        for side, runs in (("parent", ps), ("change", cs)):
            wrong = sorted(s for s, r in runs.items() if not r["correct"])
            if wrong:
                print(f"{key[0]}: {side} runs with wrong results, seeds {wrong}")
        for metric in next(iter(ps.values()))["metrics"]:
            lower, bound = rules.get(metric, (True, None))
            pv = [r["metrics"][metric] for r in ps.values()]
            cv = [r["metrics"][metric] for r in cs.values() if metric in r["metrics"]]
            if not cv:
                continue
            pairs = [(ps[s]["metrics"][metric], cs[s]["metrics"][metric]) for s in ps if s in cs and metric in cs[s]["metrics"]]
            v, wins = verdict(pv, cv, pairs, lower, bound)
            worse |= v == "worse"
            print(f"{key[0]:<18} {metric:<32} {_fmt(pv):>30} {_fmt(cv):>30} {wins:>3}/{len(pairs):<3}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
