"""LC-ASGD — the paper's contribution.

The server-side update is plain asynchronous SGD (Algorithm 2, line 9:
``w_{t+1} = w_t - lr g_m``); what distinguishes LC-ASGD is that the gradient
pushed by the worker was computed from the *compensated* loss
``l_m + lambda l_delay`` (Formula 5), where ``l_delay`` is the loss
predictor's summed ``k_m``-step forecast (Formula 9) and ``k_m`` comes from
the step predictor (Formula 10).

Formula 5 taken literally adds a constant to the loss, which does not
change the gradient; real implementations must couple the compensation to
the backward pass.  :func:`compensation_seed` implements three couplings —
the seed multiplies the backward pass, i.e. the worker backpropagates
``seed * l_m``:

* ``scale`` — paper-literal surrogate: the compensated loss rescales the
  true loss, seed ``(l_m + lambda l_delay) / l_m``.
* ``sensitivity`` — chain rule through the predictor, seed
  ``1 + lambda d(l_delay)/d(l_m)``.
* ``damping`` (default) — compare the *average predicted future loss*
  against the worker's snapshot loss: when the server has already
  progressed past the worker's state (ratio < 1) the stale gradient is
  damped proportionally.  This is the coupling that reproduces the paper's
  robustness-to-M curves.
"""

from __future__ import annotations

import numpy as np

from repro.core.algorithms.base import UpdateRule
from repro.core.state import GradientPayload

#: bounds keeping any coupling's seed from exploding a single update
SEED_MIN, SEED_MAX = 0.05, 3.0


def compensation_seed(
    mode: str,
    loss: float,
    l_delay: float,
    k: int,
    lam: float,
    sensitivity: float = 0.0,
) -> float:
    """Backward seed implementing Formula 5 under the chosen coupling.

    Parameters
    ----------
    mode:
        ``"scale"``, ``"sensitivity"`` or ``"damping"`` (module docstring).
    loss:
        The worker's own loss ``l_m``.
    l_delay:
        The summed ``k``-step forecast from the loss predictor (Formula 9).
    k:
        The predicted staleness ``k_m``.
    lam:
        The paper's fine-tuning hyper-parameter ``lambda``.
    sensitivity:
        ``d l_delay / d l_m`` (server-computed; used by ``"sensitivity"``).
    """
    safe_loss = max(abs(float(loss)), 1e-8)
    if k <= 0:
        return 1.0
    if mode == "scale":
        seed = (float(loss) + lam * float(l_delay)) / safe_loss
    elif mode == "sensitivity":
        seed = 1.0 + lam * float(sensitivity)
    elif mode == "damping":
        mean_future = float(l_delay) / max(int(k), 1)
        # A stale gradient is damped toward the loss level it will land on;
        # it is never amplified (ratio capped at 1), since an upward loss
        # forecast signals instability, not a need for larger steps.  The
        # square sharpens the contrast between mildly and severely stale
        # gradients (the rollout ratio shrinks with k, so squaring is a
        # monotone re-weighting of the same predicted signal).
        ratio = min(mean_future / safe_loss, 1.0)
        seed = (1.0 - lam) + lam * ratio * ratio
    else:
        raise ValueError(f"unknown compensation mode {mode!r}")
    return float(min(max(seed, SEED_MIN), SEED_MAX))


class LCASGDRule(UpdateRule):
    """Server-side LC-ASGD update: plain apply of the compensated gradient."""

    name = "lc-asgd"
    requires_compensation = True

    def apply_gradient(
        self,
        params: np.ndarray,
        payload: GradientPayload,
        lr: float,
        version: int,
    ) -> bool:
        self._sgd_step(params, payload.grad, lr)
        return True
