"""Module system: parameters, buffers, state dicts and composition.

The interface intentionally mirrors a small subset of ``torch.nn.Module`` so
the federated-learning code (which dispatches, prunes and aggregates
*state dicts*) reads like its PyTorch counterpart.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.nn.dtype import resolve_dtype
from repro.perf.workspace import Workspace, thread_arena

__all__ = ["Parameter", "Module", "Sequential", "Skeleton"]


class Parameter:
    """A trainable tensor: value plus accumulated gradient.

    Floating input keeps its dtype (initialisers already produce the
    stack dtype; double-precision tests build under a ``float64``
    override); non-floating input is cast to the stack dtype.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        if data.dtype.kind != "f":
            data = data.astype(resolve_dtype())
        self.data = data
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses register parameters, buffers and child modules simply by
    assigning them as attributes; ``named_parameters``/``state_dict`` walk
    the attribute tree in insertion order.  Layers implement ``forward`` and
    ``backward``; ``backward`` receives the gradient of the loss with
    respect to the layer output and must return the gradient with respect to
    the layer input while accumulating parameter gradients in place.
    """

    def __init__(self) -> None:
        self._parameters: OrderedDict[str, Parameter] = OrderedDict()
        self._buffers: OrderedDict[str, np.ndarray] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()
        self.training = True

    # -- attribute registration ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable tensor that is part of ``state_dict``."""
        value = np.asarray(value)
        if value.dtype.kind != "f":
            value = value.astype(resolve_dtype())
        self._buffers[name] = value
        object.__setattr__(self, name, self._buffers[name])

    # -- traversal ---------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}.{name}" if prefix else name), buf
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_buffers(child_prefix)

    # -- state dict ----------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Return a copy of all parameters and buffers keyed by dotted name."""
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters and buffers from ``state``.

        With ``strict=True`` every key must be present with a matching
        shape; with ``strict=False`` missing keys are skipped (used when a
        pruned submodel's weights are loaded into a larger model for
        evaluation is *not* allowed — shape mismatches always raise).
        """
        own_params = dict(self.named_parameters())
        own_buffers = self._named_buffer_owners()
        missing = []
        for name, param in own_params.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            # copy into the existing tensor: keeps the parameter's dtype and
            # lets cached models reload weights without reallocating
            np.copyto(param.data, value, casting="unsafe")
        for name, (owner, local) in own_buffers.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name])
            if value.shape != owner._buffers[local].shape:
                raise ValueError(
                    f"shape mismatch for buffer {name!r}: "
                    f"expected {owner._buffers[local].shape}, got {value.shape}"
                )
            np.copyto(owner._buffers[local], value, casting="unsafe")
        if strict:
            unexpected = [k for k in state if k not in own_params and k not in own_buffers]
            if missing or unexpected:
                raise KeyError(f"load_state_dict mismatch: missing={missing}, unexpected={unexpected}")

    def _named_buffer_owners(self) -> dict[str, tuple["Module", str]]:
        owners: dict[str, tuple[Module, str]] = {}
        for prefix, module in self.named_modules():
            for local in module._buffers:
                full = f"{prefix}.{local}" if prefix else local
                owners[full] = (module, local)
        return owners

    # -- training / gradients -------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- computation -------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Run child modules in order; backward runs them in reverse."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            setattr(self, name, module)
            self._order.append(name)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        setattr(self, name, module)
        self._order.append(name)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self:
            x = module(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for module in reversed(list(self)):
            grad_out = module.backward(grad_out)
        return grad_out


class Skeleton:
    """A built network kept between uses without its tensors.

    What stays is the module tree and the shape and dtype of every
    parameter and buffer; what goes is every parameter, gradient, buffer
    and workspace array.  The tree is the expensive part to build and the
    arrays are the heavy part to keep, so a skeleton is cheap to hold per
    worker and width spec where a model is not.

    While checked out, the model's workspaces carve their buffers from the
    thread's :class:`~repro.perf.workspace.Arena`: :meth:`check_out` opens
    it and :meth:`check_in` closes it, so one task's scratch reuses the
    memory, already faulted in, of the tasks before it on the thread.
    """

    def __init__(self, model: Module):
        self.model = model
        self._modules = list(model.modules())
        self._parameters = [
            (name, param, param.data.shape, param.data.dtype) for name, param in model.named_parameters()
        ]
        self._buffers = [
            (f"{prefix}.{local}" if prefix else local, module, local, buffer.shape, buffer.dtype)
            for prefix, module in model.named_modules()
            for local, buffer in module._buffers.items()
        ]
        self._names = dict.fromkeys(name for name, *_ in self._parameters + self._buffers)
        self._workspaces = [
            value for module in self._modules for value in vars(module).values() if isinstance(value, Workspace)
        ]
        #: the arena the checked-out model's workspaces carve from
        self._arena = None
        #: layers that draw random numbers, with their place in the tree
        self._stochastic = [
            (index, module) for index, module in enumerate(self._modules) if hasattr(module, "reseed")
        ]
        self.check_in()

    def check_out(self, seeds: Sequence[int]) -> Module:
        """The model with fresh tensors for ``K = len(seeds)`` clients: every
        parameter, gradient and buffer a stack ``(K, *shape)``, the input the
        clients' ``K·N`` samples client-major, one pass training each client
        exactly as alone; client ``k``'s stochastic layers on streams
        ``default_rng([seeds[k], place in the tree])``.

        Gradients are zero; parameters and buffers are *uninitialised* —
        :meth:`load` a state before anything reads them.  The thread's arena
        is open until :meth:`check_in`, which the caller owes even when the
        task raises.
        """
        stack = (len(seeds),)
        for _, param, shape, dtype in self._parameters:
            param.data = np.empty(stack + shape, dtype)
            param.grad = np.zeros(stack + shape, dtype)
        for _, module, local, shape, dtype in self._buffers:
            module.register_buffer(local, np.empty(stack + shape, dtype))
        for index, module in self._stochastic:
            module.reseed([np.random.default_rng([seed, index]) for seed in seeds])
        self._arena = thread_arena()
        self._arena.open()
        for workspace in self._workspaces:
            workspace.arena = self._arena
        return self.model

    def load(self, state: Mapping[str, np.ndarray]) -> None:
        """Set every client's row of each checked-out parameter and buffer to
        ``state[name]``, cast to the stack's dtype — the rows
        :meth:`Module.load_state_dict` of ``K``-fold broadcast views writes.

        A tensor of the wrong shape raises ``ValueError`` and a missing or
        unexpected one ``KeyError``, each naming the tensor.
        """
        missing = [name for name in self._names if name not in state]
        unexpected = [name for name in state if name not in self._names]
        if missing or unexpected:
            raise KeyError(f"load_state_dict mismatch: missing={missing}, unexpected={unexpected}")
        targets = [(name, param.data) for name, param, _, _ in self._parameters]
        targets += [(name, module._buffers[local]) for name, module, local, _, _ in self._buffers]
        for name, target in targets:
            value = np.asarray(state[name])
            if value.shape != target.shape[1:]:
                raise ValueError(f"shape mismatch for {name!r}: expected {target.shape[1:]}, got {value.shape}")
            np.copyto(target, value, casting="unsafe")

    def parameters(self) -> list[Parameter]:
        """Every parameter, in :meth:`Module.parameters` order."""
        return [param for _, param, _, _ in self._parameters]

    def train(self) -> Module:
        """The model, every layer in training mode."""
        for module in self._modules:
            module.training = True
        return self.model

    def tensors(self) -> dict[str, np.ndarray]:
        """Every checked-out stack by name, parameters then buffers (:meth:`Module.state_dict` order)."""
        tensors = {name: param.data for name, param, _, _ in self._parameters}
        tensors.update((name, module._buffers[local]) for name, module, local, _, _ in self._buffers)
        return tensors

    def check_in(self) -> None:
        """Drop every tensor and workspace buffer and close the arena.

        For a model whose last forward pass was followed by its backward
        pass (layers clear what they cached per batch there); a model
        abandoned half-way is not worth keeping — check it in, so the arena
        closes, and let it go instead.
        """
        for _, param, _, _ in self._parameters:
            param.data = param.grad = None
        for _, module, local, _, _ in self._buffers:
            module._buffers[local] = None
            object.__setattr__(module, local, None)
        for workspace in self._workspaces:
            workspace.clear()
            workspace.arena = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
