"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
(every binding of them in loaded ``repro`` modules, so a
``from ... import`` copy is wrapped too) and a :class:`Tracer` keeps
spans in memory: calls, self time (span minus the intervals its child
spans cover) and the top-level intervals.  :meth:`Installation.remove`
puts the originals back.  Nothing inside ``src/`` is changed.

Counters that the program already publishes (``engine.cells_trained``,
the ``phase.*`` histograms) are read from ``repro.telemetry.registry``
by the workloads instead.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from pathlib import Path

from perfbench.measure import self_time, union_length

#: (layer name, module, attribute, only the outermost call opens a span).
#: ``Class.method`` attributes wrap the method on that class.
SPANS = (
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward", True),
    ("autograd.conv2d", "repro.autograd.conv", "conv2d", False),
    ("autograd.max_pool2d", "repro.autograd.conv", "max_pool2d", False),
    ("nn.forward", "repro.nn.module", "Module.__call__", True),
    ("optim.step", "repro.optim.optimizer", "Optimizer.step", False),
    ("core.pseudo_label", "repro.core.pseudo_label", "build_pair_set", False),
    ("data.build", "repro.engine.registry", "ScenarioSpec.build", True),
    ("continual.eval", "repro.continual.evaluator", "evaluate_task_multi", True),
    ("engine.cache.store", "repro.engine.cache", "store", False),
    ("store.sync", "repro.store", "sync_cache_event", False),
)

#: Every subclass override of these methods is wrapped under one name.
OVERRIDES = (
    ("continual.observe_task", "repro.continual.method", "ContinualMethod", "observe_task"),
)

#: Pure counters, no span: (name, module, attribute, units counted per call).
COUNTS = (
    ("autograd.tensors", "repro.autograd.tensor", "Tensor.__init__", None),
    (
        "engine.seed_batch.cells",
        "repro.engine.seed_batch",
        "run_seed_batch",
        lambda args, kwargs: len(args[1] if len(args) > 1 else kwargs["seeds"]),
    ),
)

LAYER_NAMES = (
    [name for name, *_ in SPANS] + [name for name, *_ in OVERRIDES]
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.enabled = False
        self.thread = threading.get_ident()
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.store_bytes = 0
        self.top: list[tuple[float, float]] = []
        self._stack: list[list] = []  # [name, start, child intervals]
        self._active: dict[str, int] = {}

    def span(self, name: str, fn, outermost: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (
                not tracer.enabled
                or threading.get_ident() != tracer.thread
                or (outermost and tracer._active.get(name))
            ):
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), []]
            tracer._stack.append(frame)
            tracer._active[name] = tracer._active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
                start, children = frame[1], frame[2]
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + self_time(
                    start, end, children
                )
                if tracer._stack:
                    tracer._stack[-1][2].append((start, end))
                else:
                    tracer.top.append((start, end))
            if name == "engine.cache.store" and isinstance(result, Path):
                tracer.store_bytes += _entry_bytes(result)
            return result

        return wrapper

    def count(self, name: str, fn, weigh=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                units = 1 if weigh is None else weigh(args, kwargs)
                tracer.counts[name] = tracer.counts.get(name, 0) + units
            return fn(*args, **kwargs)

        return wrapper

    def attributed_share(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        inside = [
            (max(lo, start), min(hi, end)) for lo, hi in self.top if hi > start and lo < end
        ]
        return union_length(inside) / (end - start) if end > start else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers under the benchmark's metric names."""
        out: dict[str, float] = {}
        for name in LAYER_NAMES:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            out[f"{name}.calls"] = float(self.calls.get(name, 0))
        out["autograd.tensors"] = float(self.counts.get("autograd.tensors", 0))
        out["engine.cache.store.bytes"] = float(self.store_bytes)
        return out

    def all_calls(self) -> dict[str, int]:
        """Span calls and counter units together, for the zero-call guard."""
        return {**self.calls, **self.counts}


def _entry_bytes(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def import_all() -> None:
    """Load every ``repro`` module so each binding exists before wrapping."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


class Installation:
    """The wrappers in place; :meth:`remove` restores every original."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _rebind_function(inst: Installation, original, wrapper) -> int:
    """Point every loaded ``repro`` module's binding of ``original`` at ``wrapper``."""
    bound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                inst.set(module, attr, wrapper)
                bound += 1
    return bound


def install(tracer: Tracer) -> Installation:
    """Wrap every boundary in :data:`SPANS`, :data:`OVERRIDES` and :data:`COUNTS`."""
    import_all()
    inst = Installation()
    for name, module_name, attr, outermost in SPANS:
        _wrap(inst, module_name, attr, lambda fn, n=name, o=outermost: tracer.span(n, fn, o))
    for name, module_name, attr, weigh in COUNTS:
        _wrap(inst, module_name, attr, lambda fn, n=name, w=weigh: tracer.count(n, fn, w))
    for name, module_name, base_name, method in OVERRIDES:
        base = getattr(importlib.import_module(module_name), base_name)
        for cls in _subclasses(base):
            if method in cls.__dict__:
                inst.set(cls, method, tracer.span(name, cls.__dict__[method], True))
    return inst


def _wrap(inst: Installation, module_name: str, attr: str, make) -> None:
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, method = attr.split(".")
        cls = getattr(module, class_name)
        inst.set(cls, method, make(cls.__dict__[method]))
        return
    original = getattr(module, attr)
    if not _rebind_function(inst, original, make(original)):
        raise RuntimeError(f"no binding of {module_name}.{attr} to wrap")


def _subclasses(base):
    seen, queue = [], [base]
    while queue:
        cls = queue.pop()
        if cls not in seen:
            seen.append(cls)
            queue.extend(cls.__subclasses__())
    return seen


def missing_boundaries(calls: dict[str, float], required) -> list[str]:
    """The required boundaries that recorded zero calls."""
    return [name for name in required if not calls.get(name)]
