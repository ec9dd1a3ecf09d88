"""Shared experiment surface, now backed by :mod:`repro.engine`.

Historically this module owned the method factory and the
run-one-(source, target)-pair loop; both now live in the engine
(:mod:`repro.engine.registry` / :mod:`repro.engine.runner`) where they
are registry-driven, disk-cached and parallelizable.  The names below
are kept as thin delegates so existing imports — tests, examples,
notebooks — keep working unchanged.

Profiles
--------
Experiment cost is controlled by a *profile* (environment variable
``REPRO_PROFILE`` or an explicit argument):

* ``smoke``  — minutes-scale CI check; tiny models, 2-3 epochs.
* ``scaled`` — the default; small models, enough training for the
  paper's qualitative shape (who wins, relative gaps) to emerge.
* ``full``   — paper-shaped splits and the large model; hours on CPU.
"""

from __future__ import annotations

from repro.continual import Scenario, TaskStream
from repro.engine.profiles import ExperimentProfile, get_profile
from repro.engine.registry import METHODS
from repro.engine.runner import (
    PairResult,
    run_method_on_stream,
    run_stream_pair,
)

__all__ = [
    "ExperimentProfile",
    "get_profile",
    "CONTINUAL_METHODS",
    "build_method",
    "PairResult",
    "run_pair",
    "fit_tvt",
    "format_percent",
    "session_for",
]

DEFAULT_SCENARIOS = [Scenario.TIL, Scenario.CIL]


def session_for(
    session=None,
    profile: ExperimentProfile | str | None = None,
    *,
    jobs: int = 1,
    use_cache: bool = True,
    checkpoint: bool = False,
    verbose: bool = False,
):
    """Resolve the :class:`repro.api.Session` an artifact runs through.

    Every ``run_table*`` / ``run_figure2`` entry point accepts either a
    configured session (preferred — its settings win) or the legacy
    loose kwargs, which are folded into a one-shot session here so the
    table specs themselves only ever talk to the facade.
    """
    from repro.api import Session

    if session is not None:
        return session
    return Session(
        profile=profile,
        jobs=jobs,
        use_cache=use_cache,
        checkpoint=checkpoint,
        verbose=verbose,
    )

#: Methods that run through the streaming protocol (TVT is static).
CONTINUAL_METHODS = ("DER", "DER++", "HAL", "MSL", "CDTrans-S", "CDTrans-B", "CDCL")


def build_method(
    name: str,
    profile: ExperimentProfile,
    in_channels: int,
    image_size: int,
    rng_seed: int = 0,
    cdcl_overrides: dict | None = None,
):
    """Construct a continual method by table name (via the registry)."""
    spec = METHODS.get(name)
    overrides = cdcl_overrides if name == "CDCL" else None
    return spec.factory(profile, in_channels, image_size, rng_seed, overrides)


def run_pair(
    stream: TaskStream,
    profile: ExperimentProfile,
    methods=CONTINUAL_METHODS,
    scenarios=DEFAULT_SCENARIOS,
    include_tvt: bool = True,
    in_channels: int | None = None,
    image_size: int | None = None,
    verbose: bool = False,
    cdcl_overrides: dict | None = None,
) -> PairResult:
    """Score every method on one explicitly built stream (uncached).

    Registry-named scenarios should go through
    :meth:`repro.api.Session.pair` instead, which caches each
    method cell on disk.  ``in_channels``/``image_size`` override the
    stream-inferred model geometry, as before.
    """
    return run_stream_pair(
        stream,
        profile,
        methods,
        eval_scenarios=scenarios,
        include_tvt=include_tvt,
        verbose=verbose,
        cdcl_overrides=cdcl_overrides,
        in_channels=in_channels,
        image_size=image_size,
    )


def fit_tvt(
    stream: TaskStream,
    profile: ExperimentProfile,
    in_channels: int,
    image_size: int,
) -> dict[Scenario, float]:
    """Train the static upper bound once; report mean per-task accuracy."""
    _results, static_acc, _tvt = run_method_on_stream(
        METHODS.get("TVT"),
        stream,
        profile,
        seed=profile.seed,
        eval_scenarios=DEFAULT_SCENARIOS,
        in_channels=in_channels,
        image_size=image_size,
    )
    return static_acc


def format_percent(value: float) -> str:
    """Render a [0, 1] accuracy the way the paper prints it (xx.xx)."""
    return f"{100.0 * value:.2f}"
