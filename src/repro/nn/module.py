"""Module system: parameter/buffer registration and state dicts.

Mirrors ``torch.nn.Module`` closely enough that the paper's mechanisms map
one-to-one:

- **parameters** are learnable tensors shared by all ESTs within a global
  step (one replica per EasyScale worker, never swapped — §3.2);
- **buffers** are the *implicit framework states* the paper calls out
  (BatchNorm running statistics): not learnable, but they must travel with
  checkpoints or determinism breaks;
- ``state_dict`` / ``load_state_dict`` round-trip both, bitwise.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as learnable state of a Module."""

    def __init__(self, data: np.ndarray, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with automatic parameter/submodule/buffer registration."""

    #: bumped by every registration or removal of a parameter or submodule,
    #: in any module: a held ``parameters()`` list of an older version is stale
    _structure_version = 0

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            home = self._parameters
        elif isinstance(value, Module):
            home = self._modules
        else:
            home = None
        self._register(home, name, value)
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        self._register(None, name, None)
        object.__delattr__(self, name)

    def _register(self, home: Optional[OrderedDict], name: str, value) -> None:
        """Bind ``name`` in table ``home`` (keeping its position) and in no other."""
        for table in (self._parameters, self._modules):
            if table is home:
                table[name] = value
            elif name in table:
                del table[name]
            else:
                continue
            Module._structure_version += 1

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place of registration."""
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} is not registered")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for child_name, child in self._modules.items():
            child_prefix = f"{prefix}.{child_name}" if prefix else child_name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        """The parameters in registration order (walked once per structure version)."""
        version, held = self.__dict__.get("_held_parameters", (None, ()))
        if version != Module._structure_version:
            held = tuple(p for _, p in self.named_parameters())
            object.__setattr__(self, "_held_parameters", (Module._structure_version, held))
        return list(held)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buf
        for child_name, child in self._modules.items():
            child_prefix = f"{prefix}.{child_name}" if prefix else child_name
            yield from child.named_buffers(child_prefix)

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for child_name, child in self._modules.items():
            child_prefix = f"{prefix}.{child_name}" if prefix else child_name
            yield from child.named_modules(child_prefix)

    # ------------------------------------------------------------------
    # mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # grads
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # state dict (bitwise round-trip contract)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = {name: None for name, _ in self.named_buffers()}
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)[:5]}, "
                f"unexpected={sorted(unexpected)[:5]}"
            )
        for name, param in own_params.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()
        self._load_buffers(state, prefix="")

    def _load_buffers(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for name in list(self._buffers):
            full = f"{prefix}.{name}" if prefix else name
            self._set_buffer(name, np.asarray(state[full]).copy())
        for child_name, child in self._modules.items():
            child_prefix = f"{prefix}.{child_name}" if prefix else child_name
            child._load_buffers(state, child_prefix)

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._register(self._modules, str(i), layer)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class ModuleList(Module):
    """List container that registers children for traversal."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._list: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        self._register(self._modules, str(len(self._list)), module)
        self._list.append(module)

    def __iter__(self):
        return iter(self._list)

    def __getitem__(self, index: int) -> Module:
        return self._list[index]

    def __len__(self) -> int:
        return len(self._list)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called")
