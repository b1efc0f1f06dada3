"""Merit function, model reduction, and merit-parameter update logic.

The merit function is the exact l2 penalty  phi(x, tau) = tau f + ||c||_2,
and progress is measured by the reduction of its first-order model along a
step.  The merit parameter only ever decreases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import norm2


@dataclass
class TauState:
    """Current merit parameter with its per-iteration history."""

    tau: float
    history: list = field(default_factory=list)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if not self.history:
            self.history.append((-1, self.tau))

    def keep(self, k: int):
        self.history.append((k, self.tau))


def merit_value(tau: float, f: float, c) -> float:
    """phi(x, tau) = tau * f + ||c||_2."""
    return tau * f + norm2(c)


def model_reduction(tau: float, g_bar, c_bar, J_bar, d, *, c_norm=None) -> float:
    """Reduction of the merit model:  -tau g'd + ||c|| - ||c + Jd||  (float arrays).

    ``c_norm`` is ||c|| when the caller has it already.
    """
    if c_norm is None:
        c_norm = norm2(c_bar)
    return float(-tau * g_bar.dot(d) + c_norm - norm2(c_bar + J_bar.dot(d)))


def tau_trial(g_bar, d, u, H, c_norm: float, c_vr_norm: float, params) -> float:
    """Trial merit parameter on the residual branch of Termination Test 2.

    Returns +inf when the denominator  g'd + max{u'Hu, lambda_u ||u||^2}
    is <= 0 (the step is already aligned with descent).
    """
    u = np.asarray(u)
    denom = float(np.asarray(g_bar) @ np.asarray(d)) + max(
        float(u @ (np.asarray(H) @ u)), params.lambda_u * float(u @ u))
    if denom <= 0.0:
        return math.inf
    decrease = c_norm - c_vr_norm
    return (1.0 - params.sigma_c / params.sigma_r) * decrease / denom


def tau_update(state: TauState, trial: float, sigma_tau: float, k: int) -> TauState:
    """Keep tau when already below (1 - sigma_tau) * trial, else cut it there."""
    if trial < 0:
        raise ValueError("trial must be >= 0 or +inf")
    cut = (1.0 - sigma_tau) * trial
    if not state.tau <= cut:
        state.tau = cut
    state.history.append((k, state.tau))
    return state
