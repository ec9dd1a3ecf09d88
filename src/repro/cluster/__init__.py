"""`repro.cluster` — queue-backed distributed cell execution over TCP.

The ROADMAP's distribution milestone: the same :class:`RunSpec` cells
the local process pool executes, fanned out over any number of
machines.  A **coordinator** holds the work queue (lease timeouts,
heartbeats, automatic requeue of cells from dead workers, bounded
retries, content-addressed cache dedup); **workers** lease one cell at
a time and run it through the ordinary engine ``run_one``; results
either short-circuit via a shared disk cache or travel back over the
wire, where the coordinator and client write them into their caches —
so everything downstream of the executor is unchanged.

Three ways in::

    # 1. the Session executor string (drop-in backend)
    from repro.api import Session
    session = Session(profile="smoke", executor="cluster://127.0.0.1:7070")
    result = session.run("cdcl").on("digits_drift").seeds(8).result()

    # 2. the fluent builder, per run
    session.run("cdcl").on("digits_drift").seeds(8).on_cluster("host:7070").result()

    # 3. the CLI
    repro-experiments cluster-coordinator --port 7070
    repro-experiments cluster-worker --coordinator host:7070   # xN machines
    repro-experiments --cluster cluster://host:7070 multiseed --seeds 0 1 2 3

Determinism contract: a sweep through ``cluster://`` produces results
cell-for-cell **bitwise identical** to the serial/local-jobs run —
same cache keys, same aggregates — because workers run the exact same
``run_one`` under the spec's profile and dtype, and results are keyed
by spec, never by worker identity or completion order.
"""

from repro.cluster.client import (
    ClusterClient,
    ClusterJob,
    ClusterJobError,
    run_specs_via_cluster,
)
from repro.cluster.coordinator import ClusterTask, Coordinator, CoordinatorThread
from repro.cluster.protocol import (
    DEFAULT_PORT,
    decode_spec,
    encode_spec,
    format_address,
    parse_address,
)
from repro.cluster.worker import ClusterWorker

__all__ = [
    "DEFAULT_PORT",
    "ClusterClient",
    "ClusterJob",
    "ClusterJobError",
    "ClusterTask",
    "ClusterWorker",
    "Coordinator",
    "CoordinatorThread",
    "decode_spec",
    "encode_spec",
    "format_address",
    "parse_address",
    "run_specs_via_cluster",
]
