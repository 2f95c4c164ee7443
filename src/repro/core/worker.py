"""The worker — Algorithm 1.

Each worker owns a model replica and a mini-batch stream over the shared
training set.  Its cycle (pull -> forward -> state push -> [compensation]
-> backward -> gradient push) is :func:`repro.runtime.cycle.worker_cycle`;
this class holds the *real* mathematics of each step.

The compensation enters as a backward *seed* (Formula 5 couplings; see
:func:`repro.core.algorithms.lcasgd.compensation_seed`): the worker
backpropagates ``seed * l_m`` instead of ``l_m``.
"""

from __future__ import annotations

import threading
from typing import Any, Optional, Tuple

import numpy as np

from repro.analysis.lockorder import make_lock
from repro.core.algorithms.lcasgd import compensation_seed
from repro.core.state import CompensationReply, GradientPayload, WorkerState
from repro.data.loader import DataLoader
from repro.nn.module import Module, set_flat_params
from repro.nn.norm import collect_bn_stats


class DistributedWorker:
    """Algorithm 1's computations for one worker ``m``."""

    def __init__(
        self,
        worker_id: int,
        model: Module,
        loader: DataLoader,
        collect_bn: bool = True,
    ) -> None:
        self.worker_id = int(worker_id)
        self.model = model
        self.loader = loader
        self.collect_bn = collect_bn
        # Guards replica mutation for concurrent runtimes: the worker cycle
        # holds it during forward/backward, and local-BN-mode eval
        # acquires it to snapshot this replica's running statistics
        # consistently.  Uncontended (and thus free) under the simulator
        # and in a proc child.
        self.model_lock = make_lock("DistributedWorker.model_lock")
        self.pull_version = -1
        self.last_t_comm = 0.0
        self.last_t_comp = 0.0
        self._pending: Any = None
        self._pending_loss_value = 0.0

    # ------------------------------------------------------------------ #
    def load_params(self, flat: np.ndarray, version: int, t_comm: float) -> None:
        """Algorithm 1, lines 1-3: install pulled weights, record ``t_comm``."""
        set_flat_params(self.model, flat)
        self.pull_version = int(version)
        self.last_t_comm = float(t_comm)

    def forward(self) -> WorkerState:
        """Algorithm 1, lines 4-8: one forward pass; returns ``state_m``.

        The model's ``pending`` state (see :meth:`Module.train_forward`) is
        retained so backward can run later, after the compensation reply
        arrives.
        """
        inputs, targets = self.loader.next_batch()
        self._pending_loss_value, self._pending = self.model.train_forward(inputs, targets)
        bn_stats = collect_bn_stats(self.model) if self.collect_bn else []
        return WorkerState(
            worker=self.worker_id,
            loss=self._pending_loss_value,
            bn_stats=bn_stats,
            t_comm=self.last_t_comm,
            t_comp=self.last_t_comp,
            pull_version=self.pull_version,
        )

    def backward(
        self,
        reply: Optional[CompensationReply] = None,
        lc_lambda: float = 0.5,
        compensation: str = "damping",
        t_comp: float = 0.0,
    ) -> GradientPayload:
        """Algorithm 1, lines 9-12: backward pass, optionally compensated.

        Parameters
        ----------
        reply:
            The server's ``l_delay`` reply; None for the uncompensated
            algorithms (plain seed of 1).
        lc_lambda, compensation:
            Formula 5's lambda and the coupling mode.
        t_comp:
            The (virtual) duration of this computation, recorded as the
            worker's ``t_comp`` feature for the next state push.
        """
        if self._pending is None:
            raise RuntimeError("backward() called before forward()")
        seed = 1.0
        if reply is not None:
            seed = compensation_seed(
                compensation,
                self._pending_loss_value,
                reply.l_delay,
                reply.predicted_step,
                lc_lambda,
                sensitivity=getattr(reply, "sensitivity", 0.0),
            )
        pending, self._pending = self._pending, None
        payload = GradientPayload(
            worker=self.worker_id,
            grad=self.model.train_backward(pending, seed),
            pull_version=self.pull_version,
            loss=self._pending_loss_value,
        )
        self.last_t_comp = float(t_comp)
        return payload

    def forward_backward(self, t_comp: float = 0.0) -> Tuple[WorkerState, GradientPayload]:
        """Fused cycle for the algorithms without a compensation round trip."""
        state = self.forward()
        payload = self.backward(reply=None, t_comp=t_comp)
        return state, payload
