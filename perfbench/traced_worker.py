"""A cluster worker with the benchmark's layer wrappers installed.

Run as ``python perfbench/traced_worker.py cluster-worker ...`` with
``PERFBENCH_TRACE_OUT`` naming the JSON file that receives the
worker's per-layer totals when it exits.
"""

import atexit
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402
from perfbench.training import registry_numbers  # noqa: E402


def main() -> int:
    tracer = layers.Tracer()
    layers.install(tracer)
    tracer.enabled = True

    def dump():
        tracer.enabled = False
        Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps({
            "layers": tracer.layer_metrics(),
            "calls": tracer.all_calls(),
            "top": tracer.top,
            "registry": registry_numbers(),
        }))

    atexit.register(dump)
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
