"""Module/Parameter system, the backbone of all models in this library.

Mirrors the familiar torch.nn design at a much smaller scale:
``Parameter`` is a Tensor flagged as trainable; ``Module`` provides
recursive parameter discovery, train/eval switching, state dicts and
gradient zeroing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.autograd import Tensor

__all__ = ["Parameter", "Module"]


def _lead_aligned(param: Tensor, core_ndim: int, ndim: int) -> Tensor:
    """``param`` shaped to broadcast against a rank-``ndim`` operand.

    A solo parameter (rank ``core_ndim``) is returned unchanged.  One
    with extra leading axes ``lead`` — a seed-stacked ``(S, ...)``
    parameter — becomes ``lead + (1,) * k + core``, so its leading axes
    meet the operand's leading axes and the ``k`` batch axes between
    them broadcast.
    """
    lead_ndim = param.ndim - core_ndim
    k = ndim - param.ndim
    if lead_ndim == 0 or k == 0:
        return param
    shape = param.shape
    return param.reshape(shape[:lead_ndim] + (1,) * k + shape[lead_ndim:])


class Parameter(Tensor):
    """A trainable tensor.

    Parameters are leaves of the autodiff graph; optimizers update
    ``param.data`` in place so the graph wiring never changes.
    """

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)
        # Parameters must track gradients even if created under no_grad.
        self.requires_grad = True


class Module:
    """Base class for all neural-network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically for optimization and
    serialization.
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Attribute plumbing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
            self.__dict__.pop(name, None)
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
            self.__dict__.pop(name, None)
        else:
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        params = self.__dict__.get("_parameters")
        if params is not None and name in params:
            return params[name]
        modules = self.__dict__.get("_modules")
        if modules is not None and name in modules:
            return modules[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __delattr__(self, name: str) -> None:
        if name in self.__dict__.get("_parameters", {}):
            del self._parameters[name]
        elif name in self.__dict__.get("_modules", {}):
            del self._modules[name]
        else:
            object.__delattr__(self, name)

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _name, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        for _name, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size
            for p in self.parameters()
            if not trainable_only or p.requires_grad
        )

    # ------------------------------------------------------------------
    # Mode and gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Stop gradient accumulation for every parameter in the tree."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def astype(self, dtype) -> "Module":
        """Cast every parameter (and pending gradient) to ``dtype`` in place.

        ``dtype`` must be one of the supported policy precisions; the
        graph wiring is untouched (optimizers update ``param.data`` in
        place, so identity is what matters, not storage width).
        """
        from repro.autograd import resolve_dtype

        dtype = resolve_dtype(dtype)
        for param in self.parameters():
            param.data = np.asarray(param.data, dtype=dtype)
            if param.grad is not None:
                param.grad = np.asarray(param.grad, dtype=dtype)
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.requires_grad = True
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every parameter keyed by its dotted path."""
        return OrderedDict(
            (name, param.data.copy()) for name, param in self.named_parameters()
        )

    def load_state_dict(self, state: dict, strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            if name not in own:
                continue
            param = own[name]
            value = np.asarray(value, dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: saved {value.shape}, model {param.shape}"
                )
            param.data[...] = value

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {repr(mod).replace(chr(10), chr(10) + '  ')}"
            for name, mod in self._modules.items()
        ]
        body = "\n".join(child_lines)
        if body:
            return f"{type(self).__name__}(\n{body}\n)"
        return f"{type(self).__name__}()"
