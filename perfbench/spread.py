"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload seed_sweep --seeds 1 2 3 4 5 6 7 8 9 10

Runs the benchmark once per seed, untraced, one run at a time, then
prints each end-to-end metric's median and its interquartile distance
as a share of the median next to the metric's bound (and a third of
it, the margin this benchmark is tuned to).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.measure import quartile_spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [*definition["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(definition["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    if len(args.seeds) < 2:
        return 0
    for metric in definition["end_to_end"]:
        series = values[metric["name"]]
        spread = quartile_spread(series)
        verdict = "ok" if spread <= metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "OVER BOUND")
        print(f"{args.workload} {metric['name']}: median {statistics.median(series):.4g} "
              f"{metric['unit']}, spread {spread:.4f} (bound {metric['bound']}, "
              f"third {metric['bound'] / 3:.4f}) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
