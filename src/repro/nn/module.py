"""Module/Parameter system plus flat-parameter-vector exchange helpers.

The parameter server ships the global model as one flat float64 vector
(:func:`get_flat_params` / :func:`set_flat_params`); workers push gradients
the same way (:func:`get_flat_grads`).  Flattening order is the deterministic
``named_parameters()`` traversal order, so every replica agrees on the
layout.

Every module caches that traversal — one flat list of its parameters and one
of its submodules — because the worker reads both several times per update.
Invalidation rule: any registration or unregistration on *any* module
(assigning a ``Parameter``/``Module`` attribute, overwriting one with
something else, deleting an attribute, ``register_buffer``) starts a new
registration epoch, and a cache built in an earlier epoch is rebuilt on its next read.
The epoch is process-wide on purpose: a module does not know its parents, so
a change in a nested child could not otherwise reach the caches above it.
Rebinding ``param.data`` or a buffer does not touch the lists and starts no
epoch.  A cache is built completely before it is published with a single
attribute store, so a concurrent reader sees the old cache or the new one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

# The current registration epoch.  Replaced, never mutated: stores are atomic
# and a cache stamped with any earlier object can never compare identical.
_epoch = object()


def _new_epoch() -> None:
    global _epoch
    _epoch = object()


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by default)."""

    def __init__(self, data, requires_grad: bool = True) -> None:
        super().__init__(np.asarray(data.data if isinstance(data, Tensor) else data), requires_grad=requires_grad)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, :class:`Module` and (via
    :meth:`register_buffer`) NumPy-array buffers as attributes; registration
    is automatic and ordered, which fixes the flat-vector layout.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_flat", None)

    # -------------------------------------------------------------- #
    # registration
    # -------------------------------------------------------------- #
    def _register(self, registry: Optional[OrderedDict], name: str, value) -> None:
        """Make ``registry`` (``None``: no registry) the only one holding ``name``.

        Re-registering a name in the registry it is already in keeps its
        position, and with it the flat layout.
        """
        for other in (self._parameters, self._modules, self._buffers):
            if other is registry:
                other[name] = value
            else:
                other.pop(name, None)
        _new_epoch()

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._register(self._parameters, name, value)
        elif isinstance(value, Module):
            self._register(self._modules, name, value)
        elif name in self._parameters or name in self._modules:
            # overwritten by a plain value (``layer.bias = None``): the
            # attribute is no longer part of the flat layout
            self._register(None, name, None)
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        object.__delattr__(self, name)
        self._register(None, name, None)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BN running stats)."""
        self._register(self._buffers, name, np.asarray(value))
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a registered buffer in place of the registration slot."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # -------------------------------------------------------------- #
    # traversal
    # -------------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` in deterministic order."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def _flat_lists(self) -> Tuple[List[Parameter], List["Module"]]:
        """The cached ``(parameters, modules)`` traversals; do not mutate."""
        cached = self._flat
        if cached is None or cached[0] is not _epoch:
            # stamp with the epoch read *before* walking: a registration
            # racing with the walk leaves a cache that is already stale
            epoch = _epoch
            cached = (
                epoch,
                [p for _, p in self.named_parameters()],
                [m for _, m in self.named_modules()],
            )
            object.__setattr__(self, "_flat", cached)
        return cached[1], cached[2]

    def parameters(self) -> List[Parameter]:
        """All parameters in deterministic order (a fresh list each call)."""
        return list(self._flat_lists()[0])

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` in deterministic order."""
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` including self (empty name)."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Iterate over all submodules including self."""
        return iter(self._flat_lists()[1])

    # -------------------------------------------------------------- #
    # train / eval / grads
    # -------------------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        """Switch the module tree into training (or eval) mode."""
        for module in self._flat_lists()[1]:
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Switch the module tree into evaluation mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self._flat_lists()[0]:
            param.grad = None

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self._flat_lists()[0])

    # -------------------------------------------------------------- #
    # the worker's training step (Algorithm 1, lines 4-12)
    # -------------------------------------------------------------- #
    def train_forward(self, inputs: np.ndarray, targets: np.ndarray) -> Tuple[float, object]:
        """Training-mode forward to the mean cross-entropy: ``(loss, pending)``.

        ``pending`` is what :meth:`train_backward` needs; here it is the loss
        tensor with its autograd graph.  A subclass may override the pair
        with a fused kernel, as :class:`repro.nn.mlp.MLP` does, provided the
        results are bit-identical to this default.
        """
        self.train()
        loss = F.cross_entropy(self(Tensor(inputs)), targets)
        return float(loss.data), loss

    def train_backward(self, pending, seed: float) -> np.ndarray:
        """Backpropagate ``seed * loss`` from one :meth:`train_forward`.

        Returns the flat float64 gradient in ``named_parameters`` order.
        ``pending`` is consumed.
        """
        self.zero_grad()
        pending.backward(np.asarray(seed, dtype=pending.data.dtype))
        return get_flat_grads(self)

    # -------------------------------------------------------------- #
    # state dict
    # -------------------------------------------------------------- #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Parameters + buffers as a flat dict of copied arrays."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[f"buffer:{name}"] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load a dict produced by :meth:`state_dict` (strict)."""
        params = dict(self.named_parameters())
        buffer_owners: Dict[str, Tuple[Module, str]] = {}
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                dotted = f"{mod_name}.{buf_name}" if mod_name else buf_name
                buffer_owners[dotted] = (module, buf_name)
        for key, value in state.items():
            if key.startswith("buffer:"):
                dotted = key[len("buffer:") :]
                if dotted not in buffer_owners:
                    raise KeyError(f"unexpected buffer {dotted!r}")
                owner, buf_name = buffer_owners[dotted]
                owner.set_buffer(buf_name, value.copy())
            else:
                if key not in params:
                    raise KeyError(f"unexpected parameter {key!r}")
                if params[key].data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: "
                        f"{params[key].data.shape} vs {value.shape}"
                    )
                params[key].data = value.astype(params[key].data.dtype).copy()

    # -------------------------------------------------------------- #
    # call protocol
    # -------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        """Compute the module output; must be overridden."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module!r}".replace("\n", "\n  ") for name, module in self._modules.items()]
        body = "\n".join(child_lines)
        head = self.extra_repr()
        if body:
            return f"{type(self).__name__}({head}\n{body}\n)"
        return f"{type(self).__name__}({head})"

    def extra_repr(self) -> str:
        """One-line summary inserted into ``repr``; override in subclasses."""
        return ""


# ---------------------------------------------------------------------- #
# flat parameter-vector exchange (server <-> worker payloads)
# ---------------------------------------------------------------------- #
def _fill_flat(module: Module, dtype, pick) -> np.ndarray:
    """One new vector holding ``pick(param)`` (``None``: zeros) per parameter."""
    params = module._flat_lists()[0]
    flat = np.empty(sum(p.data.size for p in params), dtype=dtype)
    offset = 0
    for param in params:
        stop = offset + param.data.size
        values = pick(param)
        flat[offset:stop] = 0.0 if values is None else values.reshape(-1)
        offset = stop
    return flat


def get_flat_params(module: Module, dtype=np.float64) -> np.ndarray:
    """Concatenate all parameters into one 1-D vector (deterministic order)."""
    return _fill_flat(module, dtype, lambda param: param.data)


def set_flat_params(module: Module, flat: np.ndarray) -> None:
    """Write a flat vector produced by :func:`get_flat_params` back in place.

    A vector of the wrong length raises before any parameter is written.
    """
    flat = np.asarray(flat).ravel()
    params = module._flat_lists()[0]
    total = sum(param.data.size for param in params)
    if total != flat.size:
        raise ValueError(f"flat vector has {flat.size} elements, module holds {total}")
    offset = 0
    for param in params:
        stop = offset + param.data.size
        param.data = flat[offset:stop].reshape(param.data.shape).astype(param.data.dtype)
        offset = stop


def get_flat_grads(module: Module, dtype=np.float64) -> np.ndarray:
    """Concatenate parameter gradients (zeros where ``grad is None``)."""
    return _fill_flat(module, dtype, lambda param: param.grad)
