#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --out DIR --workload paper-exact --seeds 1-10
    python3 perfbench/sweep.py --out DIR --checkout PARENT --checkout CHANGE --workload random-mixed --seeds 1-10

Each run's standard output is saved as ``DIR/<side>/<workload>-t<trace>-s<seed>.out``,
where ``<side>`` is the checkout's directory name (prefixed by its position
when both checkouts have the same name). With two checkouts the
order in which they run alternates from seed to seed, and
``perfbench/compare.py DIR/<parent> DIR/<change>`` compares the two sides.
For each side, workload and metric the sweep prints the median and the
quartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_run, quartiles, spread

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--checkout", type=Path, action="append", help="repeat for a second side")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkout or [HERE.parent]]
    seconds = args.seconds or json.loads((checkouts[0] / "BENCHMARK.json").read_text())["run_seconds"]

    names = [c.name for c in checkouts]
    sides = [(n if names.count(n) == 1 else f"{i}-{n}", c) for i, (n, c) in enumerate(zip(names, checkouts))]
    saved: dict[tuple[str, str], list[Path]] = {}
    for i, seed in enumerate(args.seeds):
        for workload in args.workload:
            for side, checkout in sides[i % 2 :] + sides[: i % 2]:
                out = args.out / side / f"{workload}-t{args.trace}-s{seed}.out"
                out.parent.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                with out.open("w") as fh:
                    rc = subprocess.run(cmd, cwd=checkout, stdout=fh, timeout=600).returncode
                if rc != 0:
                    print(f"{side} {workload} seed {seed}: exit code {rc}", file=sys.stderr)
                    return 1
                saved.setdefault((side, workload), []).append(out)
                print(f"{side} {workload} seed {seed}: done", file=sys.stderr)

    for (side, workload), paths in saved.items():
        runs = [load_run(p) for p in paths]
        wrong = sum(not r["correct"] for r in runs)
        print(f"{side} {workload}: {len(runs)} runs, {wrong} with wrong results")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric] for r in runs]
            print(f"  {metric:<32} median {quartiles(values)[1]:<12.5g} spread {spread(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
