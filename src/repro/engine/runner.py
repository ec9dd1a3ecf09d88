"""The run-one-cell loop shared by every table, figure and sweep.

A :class:`RunSpec` names one experiment cell — (method, scenario,
profile, seed) plus optional overrides — and :func:`run_one` executes
it: build the stream from the scenario registry, build the method from
the method registry, run the continual protocol (or the static fit for
upper-bound methods), and return a :class:`RunResult`.  Because the
spec canonicalizes to a :mod:`repro.engine.cache` key, repeated sweeps
and multi-seed aggregation reuse finished cells from disk.

:func:`run_pair_cells` assembles per-method cells into the
:class:`PairResult` shape the table renderers consume;
:func:`run_stream_pair` is the uncached variant for explicitly
constructed streams (notebooks, tests with truncated streams).

Cells are *checkpoint-aware*: ``run_one(spec, checkpoint=True)``
persists the trained model (via :mod:`repro.io`) next to the cached
metrics under the same content-addressed key, and
:func:`load_checkpoint` reloads it without retraining — the entry
point for ablations, qualitative probes and the batched inference
service.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro import telemetry
from repro.autograd import default_dtype
from repro.continual import (
    ContinualResult,
    RMatrix,
    Scenario,
    TaskStream,
    evaluate_task_multi,
    run_continual_multi,
)
from repro.engine import cache
from repro.engine.profiles import ExperimentProfile, get_profile, profile_overrides
from repro.engine.registry import METHODS, SCENARIOS, MethodSpec

__all__ = [
    "DEFAULT_EVAL_SCENARIOS",
    "RunSpec",
    "RunResult",
    "PairResult",
    "assemble_pair",
    "checkpoint_path",
    "has_checkpoint",
    "load_checkpoint",
    "pair_specs",
    "result_from_tree",
    "result_to_tree",
    "run_one",
    "run_pair_cells",
    "run_stream_pair",
    "spec_for",
    "spec_summary",
]

#: The paper scores every trained model under both protocols.
DEFAULT_EVAL_SCENARIOS = ("til", "cil")


@dataclass
class RunSpec:
    """Everything that determines one experiment cell.

    ``profile`` is the profile *name*; ``profile_overrides`` carry any
    field-level deviations so the spec stays JSON-canonical (and hence
    cacheable).  ``seed`` drives stream sampling and method
    initialization alike, matching the previous per-table behavior.
    """

    method: str
    scenario: str
    profile: str = "scaled"
    seed: int = 0
    eval_scenarios: tuple[str, ...] = DEFAULT_EVAL_SCENARIOS
    profile_overrides: dict = field(default_factory=dict)
    method_overrides: dict = field(default_factory=dict)
    scenario_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.eval_scenarios = tuple(
            Scenario.parse(s).value for s in self.eval_scenarios
        )

    def resolved_profile(self) -> ExperimentProfile:
        overrides = dict(self.profile_overrides)
        # Custom profiles carry their display name as an override; it
        # cannot be passed to get_profile (whose `name` selects the base).
        display_name = overrides.pop("name", None)
        profile = get_profile(self.profile, seed=self.seed, **overrides)
        if display_name is not None:
            profile = replace(profile, name=display_name)
        return profile

    def cache_payload(self) -> dict:
        """The canonical dict hashed into this spec's cache key.

        Scenario params are hashed in *effective* form — the registered
        defaults merged with the spec's explicit params — so a changed
        registry default invalidates stale cells, and two specs that
        build the same stream share one cache entry.
        """
        effective_params = dict(SCENARIOS.get(self.scenario).default_params)
        effective_params.update(self.scenario_params)
        return {
            "method": self.method,
            "scenario": self.scenario,
            "scenario_params": effective_params,
            "profile": asdict(self.resolved_profile()),
            "eval_scenarios": list(self.eval_scenarios),
            "method_overrides": self.method_overrides,
        }

    def cache_key(self) -> str:
        return cache.cache_key(self.cache_payload())


@dataclass
class RunResult:
    """Scores of one method on one stream (one cell of a table)."""

    method: str
    scenario: str
    stream_name: str
    seed: int
    results: dict[Scenario, ContinualResult] = field(default_factory=dict)
    static_acc: dict[Scenario, float] = field(default_factory=dict)
    elapsed: float = 0.0
    #: True when this result came from the disk cache (set on load, not
    #: persisted, so a cold store never claims to be a hit).
    cached: bool = field(default=False, compare=False)

    @property
    def is_static(self) -> bool:
        return bool(self.static_acc) and not self.results


#: Format tag of the :func:`result_to_tree` layout, bumped if it changes.
_RESULT_FORMAT = "repro/result-v3"


def result_to_tree(result: RunResult) -> dict:
    """A :class:`RunResult` as a JSON-safe tree — the one result codec.

    The disk cache writes it as a JSON file and the cluster sends it on
    both wire framings.  R-matrices and history rows become nested
    float lists: Python floats serialize via ``repr`` (shortest
    round-trip) and NaN survives :mod:`json`, so :func:`result_from_tree`
    rebuilds the result bitwise.  ``cached`` is delivery-local state and
    is not carried.
    """
    return {
        "format": _RESULT_FORMAT,
        "method": result.method,
        "scenario": result.scenario,
        "stream_name": result.stream_name,
        "seed": int(result.seed),
        "elapsed": float(result.elapsed),
        "results": [
            {
                "scenario": scenario.value,
                "method": run.method,
                "stream": run.stream,
                "num_tasks": run.r_matrix.num_tasks,
                "r_values": run.r_matrix.values.tolist(),
                "history": [
                    {"task_id": int(entry["task_id"]), "row": entry["row"].tolist()}
                    for entry in run.history
                ],
            }
            for scenario, run in result.results.items()
        ],
        "static_acc": {scenario.value: float(acc) for scenario, acc in result.static_acc.items()},
    }


def result_from_tree(tree) -> RunResult:
    """Inverse of :func:`result_to_tree`; :class:`ValueError` on a bad tree.

    Every R-matrix must hold exactly ``num_tasks**2`` floats and every
    history row ``num_tasks``, checked before any array is built, so a
    small tree cannot make the reader allocate a large matrix.
    """
    if not isinstance(tree, dict) or tree.get("format") != _RESULT_FORMAT:
        raise ValueError(f"not a {_RESULT_FORMAT} tree")
    try:
        results: dict[Scenario, ContinualResult] = {}
        for entry in tree["results"]:
            scenario = Scenario.parse(entry["scenario"])
            num_tasks = entry["num_tasks"]
            values = _floats(entry["r_values"], (num_tasks, num_tasks))
            r_matrix = RMatrix(num_tasks)
            r_matrix.values = values
            results[scenario] = ContinualResult(
                method=str(entry["method"]),
                stream=str(entry["stream"]),
                scenario=scenario,
                r_matrix=r_matrix,
                history=[
                    {"task_id": int(item["task_id"]), "row": _floats(item["row"], (num_tasks,))}
                    for item in entry["history"]
                ],
            )
        return RunResult(
            method=str(tree["method"]),
            scenario=str(tree["scenario"]),
            stream_name=str(tree["stream_name"]),
            seed=int(tree["seed"]),
            results=results,
            static_acc={
                Scenario.parse(name): float(acc) for name, acc in tree["static_acc"].items()
            },
            elapsed=float(tree["elapsed"]),
        )
    except (KeyError, TypeError, AttributeError, OverflowError) as error:
        raise ValueError(f"malformed result tree: {error!r}") from None


def _floats(value, shape: tuple[int, ...]) -> np.ndarray:
    """Nested lists of exactly ``shape`` floats as a float64 array."""

    def fits(node, dims) -> bool:
        if not isinstance(node, list) or len(node) != dims[0]:
            return False
        if len(dims) == 1:
            return all(isinstance(item, float) for item in node)
        return all(fits(child, dims[1:]) for child in node)

    if not fits(value, shape):
        raise ValueError(f"result tree does not hold {shape} floats where expected")
    return np.array(value, dtype=np.float64)


@dataclass
class PairResult:
    """All scores for one (source -> target) benchmark pair."""

    stream_name: str
    results: dict[str, dict[Scenario, ContinualResult]] = field(default_factory=dict)
    tvt_acc: dict[Scenario, float] = field(default_factory=dict)

    def acc(self, method: str, scenario: Scenario) -> float:
        return self.results[method][scenario].acc

    def fgt(self, method: str, scenario: Scenario) -> float:
        return self.results[method][scenario].fgt


def spec_for(
    method: str,
    scenario: str,
    profile: ExperimentProfile | str | None = None,
    seed: int | None = None,
    **kwargs,
) -> RunSpec:
    """Build a :class:`RunSpec` from a profile object or name.

    A materialized :class:`ExperimentProfile` is decomposed into
    ``(name, overrides)``; its ``seed`` field becomes the spec seed
    unless ``seed`` is given explicitly.
    """
    if isinstance(profile, ExperimentProfile):
        base_name, overrides = profile_overrides(profile)
        return RunSpec(
            method=method,
            scenario=scenario,
            profile=base_name,
            seed=profile.seed if seed is None else seed,
            profile_overrides=overrides,
            **kwargs,
        )
    resolved = get_profile(profile)
    return RunSpec(
        method=method,
        scenario=scenario,
        profile=resolved.name,
        seed=0 if seed is None else seed,
        **kwargs,
    )


def run_one(
    spec: RunSpec,
    *,
    use_cache: bool = True,
    checkpoint: bool = False,
    verbose: bool = False,
) -> RunResult:
    """Execute one cell, consulting the disk cache first.

    With ``checkpoint=True`` the trained model is persisted next to the
    cached metrics (same content-addressed key, ``.ckpt.npz`` suffix);
    a cache hit whose checkpoint is missing is recomputed so the
    checkpoint materializes.  Checkpoints live in the cache, so the
    flag requires caching to be active.
    """
    caching = use_cache and cache.cache_enabled()
    if checkpoint and not caching:
        raise ValueError(
            "checkpoint=True persists into the result cache; it cannot be "
            "combined with use_cache=False or REPRO_NO_CACHE"
        )
    key = spec.cache_key() if caching else None
    # When a checkpoint is required but absent, skip the load entirely:
    # the cell will retrain regardless, and a discarded read would still
    # count as a session hit and bump the entry's LRU position.
    if key is not None and (not checkpoint or cache.checkpoint_path(key).exists()):
        hit = cache.load(key)
        if hit is not None:
            telemetry.registry.counter("engine.cache_hits").inc()
            return hit
    profile = spec.resolved_profile()
    # The whole cell — stream synthesis, training, evaluation and the
    # checkpoint write — runs at the profile's precision, so every
    # array the cell materializes (and persists) carries one dtype.
    # The span + phase collector are the profiling scope: per-phase
    # wall-clock (data_prep here; train/eval/forward/... in the layers
    # below) lands in phase.<name> histograms and, via the provenance
    # write after the block, in the run store for `runs query`.
    with default_dtype(profile.dtype), telemetry.span(
        "engine.run_one", method=spec.method, scenario=spec.scenario, seed=spec.seed
    ), telemetry.collect_phases() as phases:
        with telemetry.phase("data_prep"):
            stream = SCENARIOS.get(spec.scenario).build(
                profile, spec.seed, **spec.scenario_params
            )
        start = time.perf_counter()
        mspec = METHODS.get(spec.method)
        results, static_acc, method = run_method_on_stream(
            mspec,
            stream,
            profile,
            seed=spec.seed,
            eval_scenarios=[Scenario.parse(s) for s in spec.eval_scenarios],
            method_overrides=spec.method_overrides,
            verbose=verbose,
        )
        result = RunResult(
            method=spec.method,
            scenario=spec.scenario,
            stream_name=stream.name,
            seed=spec.seed,
            results=results,
            static_acc=static_acc,
            elapsed=time.perf_counter() - start,
        )
        if key is not None:
            if checkpoint:
                # Checkpoint first: the result entry is the commit
                # point, so a crash between the writes leaves an
                # orphaned checkpoint (cache-verify cleans it up),
                # never a result that claims a checkpoint it lacks.
                _save_checkpoint(method, stream, key)
            cache.store(key, result, meta=spec_summary(spec))
    telemetry.registry.counter("engine.cells_trained").inc()
    telemetry.record_phase_provenance(
        key if key is not None else spec.cache_key(),
        phases,
        method=spec.method,
        seed=spec.seed,
    )
    return result


def spec_summary(spec: RunSpec) -> dict:
    """The sidecar metadata cache management and the run store index on.

    Shared by every path that persists a result (local ``run_one``,
    cluster ``persist_result``) so the recorded provenance — including
    the resolved compute dtype and the overrides that distinguish
    ablation cells — can never drift between them.
    """
    return {
        "method": spec.method,
        "scenario": spec.scenario,
        "profile": spec.profile,
        "seed": spec.seed,
        "dtype": spec.resolved_profile().dtype,
        "eval_scenarios": list(spec.eval_scenarios),
        "method_overrides": dict(spec.method_overrides),
        "scenario_params": dict(spec.scenario_params),
    }


def _save_checkpoint(method, stream: TaskStream, key: str) -> None:
    from repro import io

    sample_image = stream[0].source_train[0][0]
    io.save_method(
        method,
        cache.checkpoint_path(key),
        extra_meta={
            "in_channels": int(sample_image.shape[0]),
            "image_size": int(sample_image.shape[-1]),
            "stream_name": stream.name,
        },
    )


def checkpoint_path(spec: RunSpec):
    """Where ``spec``'s trained-model checkpoint lives (may not exist)."""
    return cache.checkpoint_path(spec.cache_key())


def has_checkpoint(spec: RunSpec) -> bool:
    """True when a trained model is persisted for this cell."""
    return checkpoint_path(spec).exists()


def load_checkpoint(spec: RunSpec):
    """Reload the trained method of a checkpointed cell — no retraining.

    The method is rebuilt from its registry factory at the spec's
    profile and the geometry recorded in the checkpoint, then restored
    to the trained state.  Raises :class:`FileNotFoundError` when the
    cell was never run with ``checkpoint=True``.
    """
    from repro import io

    path = checkpoint_path(spec)
    if not path.exists():
        raise FileNotFoundError(
            f"no checkpoint for {spec.method} on {spec.scenario} "
            f"(profile={spec.profile}, seed={spec.seed}); run the cell with "
            "checkpoint=True (CLI: --checkpoint) first"
        )
    meta = io.read_checkpoint_meta(path)
    extra = meta.get("extra", {})
    profile = spec.resolved_profile()
    # Restore at the precision the checkpoint was trained at (recorded
    # by save_method); pre-policy checkpoints carry no dtype and fall
    # back to the spec profile's.
    with default_dtype(meta.get("dtype", profile.dtype)):
        mspec = METHODS.get(spec.method)
        method = mspec.factory(
            profile,
            int(extra["in_channels"]),
            int(extra["image_size"]),
            spec.seed,
            dict(spec.method_overrides) or None,
        )
        return io.load_method(method, path)


def run_method_on_stream(
    mspec: MethodSpec,
    stream: TaskStream,
    profile: ExperimentProfile,
    *,
    seed: int,
    eval_scenarios: list[Scenario],
    method_overrides: dict | None = None,
    verbose: bool = False,
    in_channels: int | None = None,
    image_size: int | None = None,
) -> tuple[dict[Scenario, ContinualResult], dict[Scenario, float], object]:
    """Train and score one method on one stream.

    This is the single copy of the loop every table used to duplicate:
    streaming methods run the continual protocol; static methods
    (``kind == "static"``) fit on the whole stream and report mean
    per-task accuracy.  ``in_channels``/``image_size`` override the
    stream-inferred model geometry when given.  The trained method is
    returned alongside the scores so callers can checkpoint it.

    Training and evaluation run at the profile's dtype (idempotent
    under :func:`run_one`, which already holds the same policy).
    """
    with default_dtype(profile.dtype):
        sample_image = stream[0].source_train[0][0]
        in_channels = in_channels or sample_image.shape[0]
        image_size = image_size or sample_image.shape[-1]
        method = mspec.factory(profile, in_channels, image_size, seed, method_overrides)
        if mspec.kind == "static":
            with telemetry.phase("train"):
                method.fit(stream)
            accs: dict[Scenario, list[float]] = {s: [] for s in eval_scenarios}
            with telemetry.phase("eval"):
                for task in stream:
                    per_task = evaluate_task_multi(method, task, eval_scenarios)
                    for scenario, acc in per_task.items():
                        accs[scenario].append(acc)
            return {}, {s: float(np.mean(v)) for s, v in accs.items()}, method
        results = run_continual_multi(method, stream, list(eval_scenarios), verbose=verbose)
        return results, {}, method


def run_pair_cells(
    scenario: str,
    methods,
    profile: ExperimentProfile | str | None = None,
    *,
    seed: int | None = None,
    eval_scenarios=DEFAULT_EVAL_SCENARIOS,
    include_tvt: bool = True,
    method_overrides: dict | None = None,
    scenario_params: dict | None = None,
    use_cache: bool = True,
    checkpoint: bool = False,
    jobs: int = 1,
    verbose: bool = False,
    progress=None,
) -> PairResult:
    """Run every method (plus the TVT bound) on one registered scenario.

    Each method is one cached :class:`RunSpec` cell, so re-running a
    table after adding a method only pays for the new column entries.
    ``method_overrides`` apply to every *listed* method (not to the
    implicitly added TVT bound).
    """
    from repro.engine.executor import run_specs

    cells = run_specs(
        pair_specs(
            scenario,
            methods,
            profile,
            seed=seed,
            eval_scenarios=eval_scenarios,
            include_tvt=include_tvt,
            method_overrides=method_overrides,
            scenario_params=scenario_params,
        ),
        jobs=jobs,
        use_cache=use_cache,
        checkpoint=checkpoint,
        verbose=verbose,
        progress=progress,
    )
    return assemble_pair(cells)


def pair_specs(
    scenario: str,
    methods,
    profile: ExperimentProfile | str | None = None,
    *,
    seed: int | None = None,
    eval_scenarios=DEFAULT_EVAL_SCENARIOS,
    include_tvt: bool = True,
    method_overrides: dict | None = None,
    scenario_params: dict | None = None,
) -> list[RunSpec]:
    """The spec list of one (scenario x methods [+ TVT]) table pair.

    Shared by :func:`run_pair_cells` and the Session facade's
    :meth:`repro.api.Session.pair`, so the two paths can never drift.
    ``method_overrides`` apply to the *listed* methods only, never to
    the implicitly appended TVT bound.
    """
    methods = list(methods)
    names = methods + (["TVT"] if include_tvt else [])
    if not names:
        raise ValueError("at least one method (or include_tvt) is required")
    return [
        spec_for(
            name,
            scenario,
            profile,
            seed=seed,
            eval_scenarios=tuple(eval_scenarios),
            method_overrides=dict(method_overrides or {}) if name in methods else {},
            scenario_params=dict(scenario_params or {}),
        )
        for name in names
    ]


def assemble_pair(cells) -> PairResult:
    """Fold finished cells into the :class:`PairResult` table shape."""
    cells = list(cells)
    pair = PairResult(stream_name=cells[0].stream_name)
    for cell in cells:
        if cell.is_static:
            pair.tvt_acc = dict(cell.static_acc)
        else:
            pair.results[cell.method] = cell.results
    return pair


def run_stream_pair(
    stream: TaskStream,
    profile: ExperimentProfile,
    methods,
    *,
    eval_scenarios=None,
    include_tvt: bool = True,
    verbose: bool = False,
    cdcl_overrides: dict | None = None,
    in_channels: int | None = None,
    image_size: int | None = None,
) -> PairResult:
    """Score methods on an explicitly built stream (uncached).

    For ad-hoc streams (truncated tasks, custom generators) that have
    no registry identity — the engine cannot key them on content, so
    results are computed fresh each call.
    """
    scenarios = [
        Scenario.parse(s)
        for s in (eval_scenarios if eval_scenarios is not None else DEFAULT_EVAL_SCENARIOS)
    ]
    geometry = dict(in_channels=in_channels, image_size=image_size)
    pair = PairResult(stream_name=stream.name)
    for name in methods:
        mspec = METHODS.get(name)
        overrides = cdcl_overrides if name == "CDCL" else None
        results, _static, _method = run_method_on_stream(
            mspec,
            stream,
            profile,
            seed=profile.seed,
            eval_scenarios=scenarios,
            method_overrides=overrides,
            verbose=verbose,
            **geometry,
        )
        pair.results[name] = results
    if include_tvt:
        _results, static_acc, _tvt = run_method_on_stream(
            METHODS.get("TVT"),
            stream,
            profile,
            seed=profile.seed,
            eval_scenarios=[Scenario.TIL, Scenario.CIL],
            verbose=verbose,
            **geometry,
        )
        pair.tvt_acc = static_acc
    return pair
