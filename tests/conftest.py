"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import mnist_usps


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def _run_result(
    seed: int = 0,
    *,
    method: str = "CDCL",
    scenario: str = "digits",
    num_tasks: int = 2,
    static: bool = False,
):
    """A small, deterministic ``RunResult`` built without training.

    Streaming results carry TIL and CIL R-matrices with the lower
    triangle measured (NaN above it) and one history row per task;
    ``static=True`` gives a TVT-style result with only ``static_acc``.
    """
    from repro.continual import ContinualResult, RMatrix, Scenario
    from repro.engine.runner import RunResult

    gen = np.random.default_rng(seed)
    result = RunResult(
        method=method, scenario=scenario, stream_name="mnist->usps", seed=seed, elapsed=0.25
    )
    for protocol in (Scenario.TIL, Scenario.CIL):
        if static:
            result.static_acc[protocol] = float(gen.random())
            continue
        r_matrix = RMatrix(num_tasks)
        run = ContinualResult(method, "mnist->usps", protocol, r_matrix)
        for after in range(num_tasks):
            for on in range(after + 1):
                r_matrix.record(after, on, float(gen.random()))
            run.history.append({"task_id": after, "row": r_matrix.row(after).copy()})
        result.results[protocol] = run
    return result


@pytest.fixture(scope="session")
def make_result():
    """Factory of small ``RunResult`` objects for cache and store tests."""
    return _run_result


@pytest.fixture(scope="session")
def tiny_stream():
    """A 2-task digit stream small enough for per-test training."""
    stream = mnist_usps(
        "mnist->usps", samples_per_class=8, test_samples_per_class=4, rng=0
    )
    stream.tasks = stream.tasks[:2]
    return stream


@pytest.fixture(scope="session")
def digit_stream_3tasks():
    stream = mnist_usps(
        "mnist->usps", samples_per_class=8, test_samples_per_class=4, rng=1
    )
    stream.tasks = stream.tasks[:3]
    return stream
