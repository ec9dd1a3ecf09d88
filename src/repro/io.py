"""Checkpoint serialization for trained models.

State dicts are plain ``{dotted.name: ndarray}`` mappings, so any
module tree round-trips through a single ``.npz`` file.  CDCL trainers
additionally carry per-task structure (how many tasks/classes were
instantiated), stored alongside the weights so a checkpoint can be
restored into a freshly-constructed trainer.

Checkpoints record the compute precision they were written at (the
``dtype`` metadata field) and the arrays are persisted verbatim — a
float32 model round-trips as float32, a float64 one as float64; the
engine restores the policy from the metadata before rebuilding the
method (see :func:`repro.engine.runner.load_checkpoint`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.autograd import default_dtype, get_default_dtype
from repro.continual.method import ContinualMethod
from repro.core.config import CDCLConfig
from repro.core.trainer import CDCLTrainer
from repro.nn.module import Module

__all__ = [
    "save_module",
    "load_module",
    "save_cdcl",
    "load_cdcl",
    "save_method",
    "load_method",
    "read_checkpoint_meta",
]

_META_KEY = "__meta_json__"
_METHOD_FORMAT = "repro.io/method-v1"


def save_module(module: Module, path: str | Path) -> Path:
    """Serialize a module's state dict to ``path`` (.npz)."""
    path = Path(path)
    state = module.state_dict()
    np.savez(path, **state)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_module(module: Module, path: str | Path, strict: bool = True) -> Module:
    """Restore a module's parameters from a ``save_module`` checkpoint."""
    with np.load(_resolve(path)) as data:
        state = {name: data[name] for name in data.files if name != _META_KEY}
    module.load_state_dict(state, strict=strict)
    return module


def save_cdcl(trainer: CDCLTrainer, path: str | Path) -> Path:
    """Serialize a CDCL trainer: weights + task structure + config."""
    path = Path(path)
    state = trainer.network.state_dict()
    meta = {
        "task_classes": list(trainer.network._task_classes),
        "in_channels": trainer.network.tokenizer.blocks[0].in_channels,
        "image_size": _infer_image_size(trainer),
        "dtype": _arrays_dtype(state),
        "config": _config_to_dict(trainer.config),
    }
    state[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **state)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_cdcl(path: str | Path, rng=0) -> CDCLTrainer:
    """Reconstruct a CDCL trainer from a ``save_cdcl`` checkpoint.

    The returned trainer has the saved architecture, task heads and
    weights; optimizer state and rehearsal memory are not persisted
    (checkpoints capture the *model*, matching common practice).
    """
    with np.load(_resolve(path)) as data:
        if _META_KEY not in data.files:
            raise ValueError(f"{path} is not a CDCL checkpoint (missing metadata)")
        meta = json.loads(bytes(data[_META_KEY]).decode())
        state = {name: data[name] for name in data.files if name != _META_KEY}
    config = CDCLConfig(**meta["config"])
    # Rebuild at the recorded precision so the weights load verbatim
    # (pre-policy checkpoints carry no dtype: use the ambient default).
    with default_dtype(meta.get("dtype", get_default_dtype())):
        trainer = CDCLTrainer(
            config, in_channels=meta["in_channels"], image_size=meta["image_size"], rng=rng
        )
        for num_classes in meta["task_classes"]:
            trainer.network.add_task(int(num_classes))
        trainer.network.load_state_dict(state)
    return trainer


def save_method(
    method: ContinualMethod, path: str | Path, extra_meta: dict | None = None
) -> Path:
    """Serialize any trained :class:`ContinualMethod` to one ``.npz``.

    Uses the method's checkpointing protocol (``checkpoint_arrays`` /
    ``checkpoint_meta``); ``extra_meta`` lets callers stash context the
    method itself does not know (the engine records input geometry so a
    checkpoint can be reloaded without rebuilding its data stream).

    The write is atomic (tmp file + rename), so concurrent workers may
    target the same path: last writer wins, readers never see a torn
    file.
    """
    path = Path(path)
    state = dict(method.checkpoint_arrays())
    meta = {
        "format": _METHOD_FORMAT,
        "class": type(method).__name__,
        "method_name": method.name,
        "dtype": _arrays_dtype(state),
        "state": method.checkpoint_meta(),
        "extra": dict(extra_meta or {}),
    }
    state[_META_KEY] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **state)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_method(method: ContinualMethod, path: str | Path) -> ContinualMethod:
    """Restore a ``save_method`` checkpoint into a fresh instance.

    ``method`` must be architecturally compatible (same factory, same
    profile/geometry); its per-task structure is regrown from the
    checkpoint's metadata before the weights are loaded.
    """
    with np.load(_resolve(path)) as data:
        meta = _parse_method_meta(path, data)
        arrays = {name: data[name] for name in data.files if name != _META_KEY}
    recorded = meta["class"]
    if recorded != type(method).__name__:
        raise ValueError(
            f"checkpoint {path} holds a {recorded}, cannot restore into "
            f"{type(method).__name__}"
        )
    method.restore_checkpoint(arrays, meta.get("state", {}))
    return method


def read_checkpoint_meta(path: str | Path) -> dict:
    """Metadata of a ``save_method`` checkpoint without loading weights."""
    with np.load(_resolve(path)) as data:
        return _parse_method_meta(path, data)


def _parse_method_meta(path, data) -> dict:
    if _META_KEY not in data.files:
        raise ValueError(f"{path} is not a method checkpoint (missing metadata)")
    meta = json.loads(bytes(data[_META_KEY]).decode())
    if meta.get("format") != _METHOD_FORMAT:
        raise ValueError(
            f"{path} has unsupported checkpoint format {meta.get('format')!r}"
        )
    return meta


def _arrays_dtype(state: dict) -> str:
    """The floating dtype a state dict is stored at (policy fallback)."""
    for value in state.values():
        dtype = np.asarray(value).dtype
        if dtype.kind == "f":
            return dtype.name
    return get_default_dtype().name


def _resolve(path: str | Path) -> Path:
    path = Path(path)
    if path.exists():
        return path
    candidate = path.with_suffix(path.suffix + ".npz")
    if candidate.exists():
        return candidate
    raise FileNotFoundError(path)


def _infer_image_size(trainer: CDCLTrainer) -> int:
    side = trainer.network.tokenizer.grid_side
    for _ in range(trainer.config.tokenizer_layers):
        side *= 2
    return side


def _config_to_dict(config: CDCLConfig) -> dict:
    from dataclasses import asdict

    data = asdict(config)
    data.pop("extra", None)
    return data
