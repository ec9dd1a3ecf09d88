"""The unified experiment engine (internal machinery).

Four layers turn the paper's tables and figures into declarative specs:

* :mod:`repro.engine.registry` — every method and scenario registered
  by name; add one factory and every table runner, sweep and CLI
  listing picks it up.
* :mod:`repro.engine.profiles` — workload sizes (smoke/scaled/full)
  and the config factories registry entries build from.
* :mod:`repro.engine.runner` — :class:`RunSpec` cells and the single
  run-one-(source, target)-pair loop; specs hash to disk-cache keys.
* :mod:`repro.engine.executor` — parallel spec fan-out and multi-seed
  aggregation over a process pool.

:mod:`repro.engine.cache` provides the content-addressed result store
underneath (``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE``), with a
management layer (``stats`` / ``inspect`` / ``evict`` / ``verify`` /
``pin``) surfaced through the CLI's ``cache-*`` subcommands.

The free functions (``run_one``, ``run_specs``, ``run_seed_sweep``,
...) live in their home modules; the :class:`repro.api.Session` facade
is the supported entry point, owning cache/profile/executor
configuration once.  The *types* (:class:`RunSpec`, :class:`RunResult`,
...), the registries and :mod:`~repro.engine.cache` exported here are
the vocabulary both share.
"""

from repro.engine.registry import (
    METHODS,
    SCENARIOS,
    MethodSpec,
    Registry,
    ScenarioSpec,
    register_method,
    register_scenario,
)
from repro.engine.profiles import ExperimentProfile, get_profile, profile_overrides
from repro.engine.runner import (
    DEFAULT_EVAL_SCENARIOS,
    PairResult,
    RunResult,
    RunSpec,
)
from repro.engine.executor import (
    MultiSeedResult,
    SeedStatistics,
)
from repro.engine import cache

__all__ = [
    "METHODS",
    "SCENARIOS",
    "MethodSpec",
    "Registry",
    "ScenarioSpec",
    "register_method",
    "register_scenario",
    "ExperimentProfile",
    "get_profile",
    "profile_overrides",
    "DEFAULT_EVAL_SCENARIOS",
    "PairResult",
    "RunResult",
    "RunSpec",
    "MultiSeedResult",
    "SeedStatistics",
    "cache",
]
