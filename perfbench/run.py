"""Benchmark command: one workload, one seed, cold.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table_column --seed 1 --seconds 15 --trace 0

Prints each metric by name with its unit, then as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Exits 1 when an output
check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One BLAS thread in this process and every process it starts (the
#: gateway's autoscaler already does the same for its replicas).  At
#: the smoke profile's matrix sizes a second BLAS thread bought nothing
#: on two cores, and with it run-to-run times varied by ~10% (one: ~1%).
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The program's own settings (profile, dtype, wire, tracing, cache
    # switches) come from the benchmark, never from the caller's shell.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

    from perfbench import serving, training
    from perfbench.measure import cpu_ticks

    run = getattr(serving if args.workload == "predict_gateway" else training, args.workload)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    # Anything that falls back to a default location stays in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    steal, total = cpu_ticks()
    try:
        report = run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_end, total_end = cpu_ticks()
    report.notes.append(
        f"host steal share over the run: {(steal_end - steal) / max(total_end - total, 1):.4f}"
    )
    report.emit(
        args.workload,
        bool(args.trace),
        {m["name"]: m["unit"] for m in definition["end_to_end"]},
        {m["name"]: m["unit"] for m in definition["per_layer"]},
    )
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
