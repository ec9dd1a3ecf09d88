"""What a workload hands back to ``run.py``, and how it is printed."""

from __future__ import annotations

import json
import statistics

from perfbench.layers import missing_boundaries


class Report:
    """End-to-end metrics, per-layer metrics, notes and failures of one run."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, float] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def set_e2e(self, *, setup_times, watches, peak, til, cil) -> None:
        """The end-to-end metrics every workload reports (BENCHMARK.json).

        ``watches`` are the :class:`~perfbench.measure.Stopwatch` es of the
        timed units; ``makespan_s`` is their median wall time less steal.
        """
        self.metrics["setup_s"] = (statistics.median(setup_times), "s")
        self.metrics["makespan_s"] = (statistics.median(w.seconds for w in watches), "s")
        self.metrics["peak_rss_mb"] = (peak, "MiB")
        self.metrics["acc_til_mean"] = (til, "ratio")
        self.metrics["acc_cil_mean"] = (cil, "ratio")
        self.notes.append(
            "setup_s samples: " + ", ".join(f"{t:.3f}" for t in setup_times)
            + "; makespan_s samples: " + ", ".join(f"{w.seconds:.3f}" for w in watches)
            + " (wall " + ", ".join(f"{w.wall:.3f}" for w in watches)
            + " less host steal " + ", ".join(f"{w.stolen:.3f}" for w in watches) + ")"
        )

    def require(self, names, calls) -> None:
        """Fail the run for every boundary in ``names`` that saw no call."""
        for name in missing_boundaries(calls, names):
            self.problems.append(f"boundary {name} recorded zero calls")

    @property
    def correct(self) -> bool:
        return not self.problems

    def emit(self, workload: str, trace: bool, end_to_end, per_layer) -> None:
        """Print every metric by name with its unit, then the result line.

        ``end_to_end``/``per_layer`` are BENCHMARK.json's names; the
        result line carries the first with ``trace`` off and the second
        with it on.  A per-layer metric the workload never reached
        reads 0.  A run that failed a check prints the failure and no
        numbers.
        """
        fail_ratio = self.failed / self.attempted if self.attempted else 1.0
        print(f"[{workload}] attempted={self.attempted} failed={self.failed} "
              f"fail_ratio={fail_ratio:.4f}")
        for problem in self.problems:
            print(f"[{workload}] FAILED: {problem}")
        if not self.correct:
            print(json.dumps({"correct": False, "attempted": max(self.attempted, 1),
                              "failed": self.failed, "metrics": {}}))
            return
        for line in self.notes:
            print(f"[{workload}] {line}")
        for name, (value, unit) in self.metrics.items():
            print(f"[{workload}] {name} = {value:.6g} {unit}")
        if trace:
            chosen = {}
            for name, unit in per_layer.items():
                value = float(self.layers.get(name, 0.0))
                idle = "" if name in self.layers else "  (layer idle on this workload)"
                print(f"[{workload}] {name} = {value:.6g} {unit}{idle}")
                chosen[name] = {"value": value, "unit": unit}
        else:
            chosen = {
                name: {"value": self.metrics[name][0], "unit": unit}
                for name, unit in end_to_end.items()
            }
        print(json.dumps({"correct": True, "attempted": self.attempted,
                          "failed": self.failed, "metrics": chosen}))
