"""Module containers."""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.nn.module import Module


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, str(i), module)
        self._length = len(modules)

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, str(i)) for i in range(self._length))

    def __getitem__(self, index: int) -> Module:
        if not -self._length <= index < self._length:
            raise IndexError(f"index {index} out of range for Sequential of {self._length}")
        return getattr(self, str(index % self._length))


class ModuleList(Module):
    """List-like registry of submodules."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._length = 0
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(self._length), module)
        self._length += 1
        return self

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, str(i)) for i in range(self._length))

    def __getitem__(self, index: int) -> Module:
        if not -self._length <= index < self._length:
            raise IndexError(f"index {index} out of range for ModuleList of {self._length}")
        return getattr(self, str(index % self._length))
