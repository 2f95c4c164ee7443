"""Stochastic gradient descent with momentum / Nesterov / weight decay.

Used by the sequential-SGD baseline.  The predictors' fused kernel
(:mod:`repro.core.predictors.series_lstm`) applies the same momentum update
and global norm clip inline and is tested against this class.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter


class SGD:
    """Plain SGD over a list of :class:`~repro.nn.module.Parameter`.

    Parameters
    ----------
    params:
        Parameters to update (e.g. ``model.parameters()``).
    lr:
        Learning rate (mutable via :attr:`lr` for schedules).
    momentum:
        Classical momentum coefficient; 0 disables the velocity buffer.
    weight_decay:
        L2 penalty added to the gradient.
    nesterov:
        Use Nesterov lookahead (requires ``momentum > 0``).
    max_grad_norm:
        Optional global gradient-norm clip applied before the update.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("SGD received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if momentum < 0 or weight_decay < 0:
            raise ValueError("momentum and weight_decay must be non-negative")
        if nesterov and momentum == 0:
            raise ValueError("nesterov requires momentum > 0")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)
        self.max_grad_norm = max_grad_norm
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def zero_grad(self) -> None:
        """Clear parameter gradients."""
        for p in self.params:
            p.grad = None

    def _clip(self) -> None:
        if self.max_grad_norm is None:
            return
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float((p.grad.astype(np.float64) ** 2).sum())
        norm = np.sqrt(total)
        if norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad = p.grad * scale

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        self._clip()
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                vel = self.momentum * self._velocity[i] + grad
                self._velocity[i] = vel
                grad = grad + self.momentum * vel if self.nesterov else vel
            p.data = p.data - self.lr * grad

    def state_dict(self) -> dict:
        """Snapshot of hyper-parameters and velocity buffers."""
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "nesterov": self.nesterov,
            "velocity": [None if v is None else v.copy() for v in self._velocity],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot created by :meth:`state_dict`."""
        self.lr = state["lr"]
        self.momentum = state["momentum"]
        self.weight_decay = state["weight_decay"]
        self.nesterov = state["nesterov"]
        velocity = state["velocity"]
        if len(velocity) != len(self.params):
            raise ValueError("velocity buffer count mismatch")
        self._velocity = [None if v is None else v.copy() for v in velocity]
